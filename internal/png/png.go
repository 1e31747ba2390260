// Package png builds the Partition-Node Graph layout of the paper's §3.3:
// a per-partition bipartite graph G'(P, V, E') in which all edges from a
// source node into one destination partition collapse into a single
// compressed edge, transposed so that scatter writes stream to one update
// bin at a time.
//
// The package also materializes the destination-ID streams (§3.2): within
// each destination bin, the out-neighbors of a source node are written
// consecutively and the first is flagged, signaling the gather phase to
// consume the next update value. Destination IDs are written once and reused
// across iterations.
//
// A gather only addresses the nodes of one partition and a scatter only reads
// those of one, so both streams are stored in the smallest width the
// partition allows (§6's G-Store-style "smallest number of bits"): 16-bit
// partition-local offsets when a partition holds at most 65 536 nodes — the
// 256 KB default — with the run-start flags bit-packed beside them, and the
// paper's 32-bit MSB-tagged global IDs otherwise. The width follows from the
// layout; it is not an option.
//
// This package owns that layout and every walk over it: BuildCSR is the only
// builder of the streams and Kernel holds the only scatter (Algorithm 3) and
// gather (Algorithm 4) loops. core.PCPM, spmv.PCPMEngine and
// shard.BlockSolver are adapters over them.
package png

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/partition"
)

// narrowMaxNodes is the largest partition (in nodes) whose local offsets fit
// 16 bits.
const narrowMaxNodes = 1 << 16

// PNG is the Partition-Node Graph of a partitioned graph. All slices are
// read-only after Build. Readers outside this package that want the paper's
// logical streams use DecodeBin, which hides the storage width.
type PNG struct {
	// Layout partitions the sources (columns) into K scatter partitions;
	// RowLayout partitions the destinations (rows) into KRows bins. Build
	// uses one layout for both; only BuildCSR can make them differ.
	Layout    partition.Layout
	K         int
	RowLayout partition.Layout
	KRows     int

	// SubOff[p] has KRows+1 entries; the compressed in-edges of destination
	// partition q within source partition p's bipartite graph are entries
	// SubOff[p][q]:SubOff[p][q+1] of p's source list (ascending). This is the
	// transposed per-partition CSR of §3.3.
	SubOff [][]int32

	// The source list of partition p is SubSrc16[p] — offsets from the
	// partition's first node — when column partitions hold at most 65 536
	// nodes, and SubSrc[p] — global node IDs — otherwise. The other is nil.
	SubSrc16 [][]uint16
	SubSrc   [][]graph.NodeID

	// Destination bin q's ID stream lists, for every update arriving at q
	// (in scatter order), the target nodes it applies to. When row
	// partitions hold at most 65 536 nodes it is DestOff[q] — offsets from
	// the partition's first node — with bit j%64 of DestFlags[q][j/64] set
	// when entry j opens an update's run (unused high bits of the last word
	// are zero). Otherwise it is DestIDs[q]: global IDs with the MSB set on
	// the first ID of each run. The other form is nil.
	DestOff   [][]uint16
	DestFlags [][]uint64
	DestIDs   [][]uint32

	// DestWs, non-nil only for weighted input, holds each nonzero's weight
	// at the position of its ID in the destination stream (§3.5).
	DestWs [][]float32

	// UpdateWriteOff[p*KRows+q] is the index in bin q's update array where
	// source partition p begins writing — the statically precomputed,
	// lock-free write offsets of §3.1.
	UpdateWriteOff []int32

	// UpdateCount[q] is the number of updates destined to bin q per
	// iteration (= compressed in-edges of q).
	UpdateCount []int64

	// EdgesCompressed is |E'|, the total compressed edge count.
	EdgesCompressed int64
}

// CSR is the builder's input: a sparse structure stored by source (column)
// in graph.Chunk form, chunk c holding sources c<<graph.ChunkShift onward,
// each source's destination (row) IDs in ascending order. Weighted selects
// the weighted form, whose every chunk carries W (graph.Chunked cuts flat
// arrays this way).
type CSR struct {
	Chunks   []graph.Chunk
	Weighted bool
}

// sources returns the number of sources (columns) the chunks hold.
func (in CSR) sources() int {
	k := len(in.Chunks)
	if k == 0 {
		return 0
	}
	return (k-1)<<graph.ChunkShift + len(in.Chunks[k-1].Off) - 1
}

// Build constructs the PNG for g under the given layout: the square,
// unweighted case of BuildCSR. g's adjacency lists must be sorted
// (graph.Builder guarantees this); construction tolerates unsorted input
// silently, so callers loading untrusted graphs should Validate the graph
// first.
func Build(g *graph.Graph, layout partition.Layout, workers int) (*PNG, error) {
	return BuildCSR(CSR{Chunks: g.Chunks()}, layout, layout, workers)
}

// BuildCSR constructs the PNG of in with sources partitioned by cols and
// destinations by rows, fusing the compression and transposition steps into
// two scans as in §3.3. It is parallel over source partitions. Each stream is
// written directly in the width its layout allows; no wider copy is made.
func BuildCSR(in CSR, cols, rows partition.Layout, workers int) (*PNG, error) {
	if cols.NumNodes() != in.sources() {
		return nil, fmt.Errorf("png: layout covers %d nodes, input has %d", cols.NumNodes(), in.sources())
	}
	k, kr := cols.K(), rows.K()
	if int64(k)*int64(kr) > (1 << 26) {
		return nil, fmt.Errorf("png: %d×%d partitions would need %d offset cells; choose a larger partition size", k, kr, int64(k)*int64(kr))
	}
	p := &PNG{
		Layout:         cols,
		K:              k,
		RowLayout:      rows,
		KRows:          kr,
		SubOff:         make([][]int32, k),
		UpdateWriteOff: make([]int32, k*kr),
		UpdateCount:    make([]int64, kr),
	}
	narrowSrc, narrowDst := cols.Size() <= narrowMaxNodes, rows.Size() <= narrowMaxNodes
	if narrowSrc {
		p.SubSrc16 = make([][]uint16, k)
	} else {
		p.SubSrc = make([][]graph.NodeID, k)
	}
	if narrowDst {
		p.DestOff = make([][]uint16, kr)
		p.DestFlags = make([][]uint64, kr)
	} else {
		p.DestIDs = make([][]uint32, kr)
	}
	if in.Weighted {
		p.DestWs = make([][]float32, kr)
	}
	shift := rows.Shift()
	local := graph.NodeID(rows.Size() - 1) // masks an ID down to its offset in its row partition

	// Pass 1 (parallel over source partitions): count, per (p, q), the
	// compressed edges (updates) and raw edges (destination IDs).
	updCnt := make([]int32, k*kr) // updates from p into q
	dstCnt := make([]int32, k*kr) // destination IDs from p into q
	par.ForDynamic(k, workers, func(pi int) {
		lo, hi := cols.Bounds(pi)
		row := pi * kr
		for _, s := range graph.Spans(in.Chunks, int(lo), int(hi)) {
			for i := range len(s.Off) - 1 {
				prev := -1
				for _, u := range s.Adj[s.Off[i]:s.Off[i+1]] {
					q := int(u >> shift)
					if q != prev {
						updCnt[row+q]++
						prev = q
					}
					dstCnt[row+q]++
				}
			}
		}
	})

	// Pass 2 (serial, O(K·KRows)): column-wise prefix sums give each source
	// partition its disjoint write ranges in every bin — the offset
	// computation of §3.1 that makes scatter lock-free.
	dstWriteOff := make([]int32, k*kr)
	for q := 0; q < kr; q++ {
		var updAcc, dstAcc int32
		for pi := 0; pi < k; pi++ {
			p.UpdateWriteOff[pi*kr+q] = updAcc
			dstWriteOff[pi*kr+q] = dstAcc
			updAcc += updCnt[pi*kr+q]
			dstAcc += dstCnt[pi*kr+q]
		}
		p.UpdateCount[q] = int64(updAcc)
		if narrowDst {
			p.DestOff[q] = make([]uint16, dstAcc)
			p.DestFlags[q] = make([]uint64, (int(dstAcc)+63)/64)
		} else {
			p.DestIDs[q] = make([]uint32, dstAcc)
		}
		if in.Weighted {
			p.DestWs[q] = make([]float32, dstAcc)
		}
		p.EdgesCompressed += int64(updAcc)
	}

	// Pass 3 (parallel over source partitions): fill the per-partition
	// bipartite CSR and the destination streams. Both are written in scatter
	// order — destination partitions visited in ascending order per source
	// node, source nodes ascending — so the gather phase's sequential read
	// pairs updates and IDs correctly. Source partitions own disjoint entry
	// ranges of a bin but may share the flag word at a range boundary, hence
	// the atomic OR.
	par.ForDynamic(k, workers, func(pi int) {
		row := pi * kr
		off := make([]int32, kr+1)
		for q := 0; q < kr; q++ {
			off[q+1] = off[q] + updCnt[row+q]
		}
		var src []graph.NodeID
		var src16 []uint16
		if narrowSrc {
			src16 = make([]uint16, off[kr])
		} else {
			src = make([]graph.NodeID, off[kr])
		}
		updCur := make([]int32, kr)
		dstCur := make([]int32, kr)
		lo, hi := cols.Bounds(pi)
		for first, s := range graph.Spans(in.Chunks, int(lo), int(hi)) {
			for iv := range len(s.Off) - 1 {
				v := graph.NodeID(first + iv)
				adj := s.Adj[s.Off[iv]:s.Off[iv+1]]
				i := 0
				for i < len(adj) {
					q := int(adj[i] >> shift)
					// One compressed edge for the (v, q) run.
					if narrowSrc {
						src16[off[q]+updCur[q]] = uint16(v - lo)
					} else {
						src[off[q]+updCur[q]] = v
					}
					updCur[q]++
					runAt, start := dstWriteOff[row+q]+dstCur[q], i
					if narrowDst {
						atomic.OrUint64(&p.DestFlags[q][runAt>>6], 1<<(uint(runAt)&63))
						run := p.DestOff[q][runAt:]
						for i < len(adj) && int(adj[i]>>shift) == q {
							run[i-start] = uint16(adj[i] & local)
							i++
						}
					} else {
						run := p.DestIDs[q][runAt:]
						run[0] = adj[i] | graph.MSBMask
						for i++; i < len(adj) && int(adj[i]>>shift) == q; i++ {
							run[i-start] = adj[i]
						}
					}
					dstCur[q] += int32(i - start)
					if in.Weighted { // the run's weights, beside its IDs
						copy(p.DestWs[q][runAt:], s.W[s.Off[iv]:][start:i])
					}
				}
			}
		}
		p.SubOff[pi] = off
		if narrowSrc {
			p.SubSrc16[pi] = src16
		} else {
			p.SubSrc[pi] = src
		}
	})
	return p, nil
}

// CompressionRatio returns r = |E| / |E'| (Table 2). A ratio of m/n is
// optimal (every node's out-edges collapse into one); 1 is the worst case.
func (p *PNG) CompressionRatio(g *graph.Graph) float64 {
	if p.EdgesCompressed == 0 {
		return 1
	}
	return float64(g.NumEdges()) / float64(p.EdgesCompressed)
}

// runFlag is 1 when entry j of a 16-bit bin opens an update's run, else 0.
func runFlag(flags []uint64, j int) uint64 { return flags[j>>6] >> (uint(j) & 63) & 1 }

// binLen returns the number of destination-ID entries of bin q.
func (p *PNG) binLen(q int) int {
	if p.DestOff != nil {
		return len(p.DestOff[q])
	}
	return len(p.DestIDs[q])
}

// DestTotal returns the total number of destination-ID entries (= |E|).
func (p *PNG) DestTotal() int64 {
	var t int64
	for q := 0; q < p.KRows; q++ {
		t += int64(p.binLen(q))
	}
	return t
}

// OffsetCells returns K*KRows, the PNG offset storage the paper's Eff2 bounds.
func (p *PNG) OffsetCells() int64 { return int64(p.K) * int64(p.KRows) }

// DecodeBin returns destination bin q as the paper draws it, whatever width
// it is stored in: ids is the bin's stream of global destination IDs with the
// MSB set on the first ID of each update's run, and srcs the global source
// node of each of the bin's updates, in update order (source partitions
// ascending; partition p's share starts at UpdateWriteOff[p*KRows+q]). Both
// are fresh copies — this is the reading side for tests, goldens and the
// traffic replayer, not for the kernel.
func (p *PNG) DecodeBin(q int) (ids []uint32, srcs []graph.NodeID) {
	if p.DestOff == nil {
		ids = append(ids, p.DestIDs[q]...)
	} else {
		lo, _ := p.RowLayout.Bounds(q)
		flags := p.DestFlags[q]
		ids = make([]uint32, len(p.DestOff[q]))
		for j, o := range p.DestOff[q] {
			ids[j] = (lo + uint32(o)) | uint32(runFlag(flags, j))<<31
		}
	}
	srcs = make([]graph.NodeID, 0, p.UpdateCount[q])
	for pi := 0; pi < p.K; pi++ {
		off := p.SubOff[pi]
		if p.SubSrc16 == nil {
			srcs = append(srcs, p.SubSrc[pi][off[q]:off[q+1]]...)
			continue
		}
		lo, _ := p.Layout.Bounds(pi)
		for _, o := range p.SubSrc16[pi][off[q]:off[q+1]] {
			srcs = append(srcs, lo+graph.NodeID(o))
		}
	}
	return ids, srcs
}

// Validate checks the structural invariants of the PNG against its graph:
// edge conservation, stream pairing, run-flag counts, and ID ranges.
func (p *PNG) Validate(g *graph.Graph) error { return p.ValidateEdges(g.NumEdges()) }

// ValidateEdges is Validate for a layout built from any CSR input holding
// the given number of nonzeros: each stream is stored in the width its layout
// calls for, sources stay inside their column partition and ascend within a
// bin, destinations stay inside their row bin (the short last partition
// included), every bin carries one run flag per update, opens with one and
// leaves the padding bits of its last flag word zero, and a weighted layout
// carries one weight per destination ID.
func (p *PNG) ValidateEdges(edges int64) error {
	if p.K != p.Layout.K() || p.KRows != p.RowLayout.K() {
		return fmt.Errorf("png: K=%d×%d disagrees with layouts K=%d×%d", p.K, p.KRows, p.Layout.K(), p.RowLayout.K())
	}
	narrowSrc, narrowDst := p.Layout.Size() <= narrowMaxNodes, p.RowLayout.Size() <= narrowMaxNodes
	if narrowSrc != (p.SubSrc16 != nil) || narrowSrc == (p.SubSrc != nil) || len(p.SubSrc16)+len(p.SubSrc) != p.K {
		return fmt.Errorf("png: source lists are not the one width %d-node column partitions call for", p.Layout.Size())
	}
	if narrowDst != (p.DestOff != nil) || narrowDst == (p.DestIDs != nil) || len(p.DestOff)+len(p.DestIDs) != p.KRows ||
		(narrowDst && len(p.DestFlags) != p.KRows) {
		return fmt.Errorf("png: destination streams are not the one width %d-node row partitions call for", p.RowLayout.Size())
	}
	if p.DestTotal() != edges {
		return fmt.Errorf("png: destination streams hold %d IDs, want %d", p.DestTotal(), edges)
	}
	if p.EdgesCompressed > edges {
		return fmt.Errorf("png: |E'|=%d exceeds |E|=%d", p.EdgesCompressed, edges)
	}
	var updTotal int64
	for pi := 0; pi < p.K; pi++ {
		off := p.SubOff[pi]
		if len(off) != p.KRows+1 || off[0] != 0 {
			return fmt.Errorf("png: partition %d has malformed offsets", pi)
		}
		lo, hi := p.Layout.Bounds(pi)
		var count int
		var at func(i int32) int64 // global ID of the partition's i-th source entry
		if narrowSrc {
			src := p.SubSrc16[pi]
			count, at = len(src), func(i int32) int64 { return int64(lo) + int64(src[i]) }
		} else {
			src := p.SubSrc[pi]
			count, at = len(src), func(i int32) int64 { return int64(src[i]) }
		}
		if int(off[p.KRows]) != count {
			return fmt.Errorf("png: partition %d offsets end at %d, want %d", pi, off[p.KRows], count)
		}
		for q := 0; q < p.KRows; q++ {
			if off[q+1] < off[q] {
				return fmt.Errorf("png: partition %d offsets not monotone at %d", pi, q)
			}
		}
		for q := 0; q < p.KRows; q++ {
			prev := int64(-1)
			for i := off[q]; i < off[q+1]; i++ {
				s := at(i)
				if s < int64(lo) || s >= int64(hi) {
					return fmt.Errorf("png: partition %d lists source %d outside [%d,%d)", pi, s, lo, hi)
				}
				if s <= prev {
					return fmt.Errorf("png: partition %d sources for bin %d not strictly ascending", pi, q)
				}
				prev = s
			}
		}
		updTotal += int64(count)
	}
	if updTotal != p.EdgesCompressed {
		return fmt.Errorf("png: source lists hold %d entries, want |E'|=%d", updTotal, p.EdgesCompressed)
	}
	if p.DestWs != nil && len(p.DestWs) != p.KRows {
		return fmt.Errorf("png: weight streams cover %d bins, want %d", len(p.DestWs), p.KRows)
	}
	for q := 0; q < p.KRows; q++ {
		n := p.binLen(q)
		qlo, qhi := p.RowLayout.Bounds(q)
		var marks int64
		opens := n == 0
		if narrowDst {
			flags := p.DestFlags[q]
			if len(flags) != (n+63)/64 {
				return fmt.Errorf("png: bin %d has %d flag words for %d destination IDs", q, len(flags), n)
			}
			for _, o := range p.DestOff[q] {
				if graph.NodeID(o) >= qhi-qlo {
					return fmt.Errorf("png: bin %d holds local offset %d outside its %d-node partition", q, o, qhi-qlo)
				}
			}
			for _, w := range flags {
				marks += int64(bits.OnesCount64(w))
			}
			if n > 0 {
				opens = flags[0]&1 != 0
				if pad := uint(n) & 63; pad != 0 && flags[len(flags)-1]>>pad != 0 {
					return fmt.Errorf("png: bin %d has run flags set past its %d destination IDs", q, n)
				}
			}
		} else {
			for _, id := range p.DestIDs[q] {
				marks += int64(id >> 31)
				if raw := id & graph.IDMask; raw < qlo || raw >= qhi {
					return fmt.Errorf("png: bin %d holds destination %d outside [%d,%d)", q, raw, qlo, qhi)
				}
			}
			opens = opens || p.DestIDs[q][0]&graph.MSBMask != 0
		}
		if marks != p.UpdateCount[q] {
			return fmt.Errorf("png: bin %d has %d run flags, want %d updates", q, marks, p.UpdateCount[q])
		}
		if !opens {
			return fmt.Errorf("png: bin %d does not start with a run flag", q)
		}
		if p.DestWs != nil && len(p.DestWs[q]) != n {
			return fmt.Errorf("png: bin %d holds %d weights for %d destination IDs", q, len(p.DestWs[q]), n)
		}
	}
	return nil
}

// Package png builds the Partition-Node Graph layout of the paper's §3.3:
// a per-partition bipartite graph G'(P, V, E') in which all edges from a
// source node into one destination partition collapse into a single
// compressed edge, transposed so that scatter writes stream to one update
// bin at a time.
//
// The package also materializes the MSB-tagged destination-ID streams
// (§3.2): within each destination bin, the out-neighbors of a source node
// are written consecutively and the first carries a set MSB, signaling the
// gather phase to consume the next update value. Destination IDs are
// written once and reused across iterations.
//
// This package owns that layout and every walk over it: BuildCSR is the only
// builder of MSB-tagged streams and Kernel holds the only scatter
// (Algorithm 3) and gather (Algorithm 4) loops. core.PCPM, spmv.PCPMEngine
// and shard.BlockSolver are adapters over them.
package png

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/partition"
)

// PNG is the Partition-Node Graph of a partitioned graph. All slices are
// read-only after Build.
type PNG struct {
	// Layout partitions the sources (columns) into K scatter partitions;
	// RowLayout partitions the destinations (rows) into KRows bins. Build
	// uses one layout for both; only BuildCSR can make them differ.
	Layout    partition.Layout
	K         int
	RowLayout partition.Layout
	KRows     int

	// SubOff[p] has KRows+1 entries; the compressed in-edges of destination
	// partition q within source partition p's bipartite graph are
	// SubSrc[p][SubOff[p][q]:SubOff[p][q+1]] (global source-node IDs,
	// ascending). This is the transposed per-partition CSR of §3.3.
	SubOff [][]int32
	SubSrc [][]graph.NodeID

	// DestIDs[q] is destination bin q's ID stream: for every update
	// arriving at q (in scatter order), the target node IDs it applies to,
	// with the MSB set on the first ID of each update's run.
	DestIDs [][]uint32

	// DestWs, non-nil only for weighted input, holds each nonzero's weight
	// at the position of its ID in DestIDs (§3.5).
	DestWs [][]float32

	// DestIDs16, when non-nil, is the compact encoding of the same streams
	// (the G-Store-style "smallest number of bits" representation the
	// paper's §6 proposes): because a gather only addresses nodes of one
	// partition, each ID is stored as a 15-bit partition-local offset with
	// the demarcation flag in bit 15. Built by BuildCompact for layouts of
	// at most CompactMaxPartitionNodes nodes per partition; halves the
	// gather's dominant m·di read stream.
	DestIDs16 [][]uint16

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

// CompactMaxPartitionNodes is the largest partition (in nodes) whose local
// offsets fit the 15-bit compact destination encoding.
const CompactMaxPartitionNodes = 1 << 15

// CompactMSB flags the first ID of an update's run in the compact stream.
const CompactMSB uint16 = 1 << 15

// CompactIDMask removes the flag from a compact destination entry.
const CompactIDMask uint16 = CompactMSB - 1

// BuildCompact builds the PNG and additionally materializes the 16-bit
// destination streams (§6's G-Store-style compression). The layout's
// partitions must not exceed CompactMaxPartitionNodes nodes.
func BuildCompact(g *graph.Graph, layout partition.Layout, workers int) (*PNG, error) {
	if layout.Size() > CompactMaxPartitionNodes {
		return nil, fmt.Errorf("png: partition size %d nodes exceeds the %d-node compact limit",
			layout.Size(), CompactMaxPartitionNodes)
	}
	p, err := Build(g, layout, workers)
	if err != nil {
		return nil, err
	}
	p.DestIDs16 = make([][]uint16, p.K)
	par.ForDynamic(p.K, workers, func(q int) {
		lo, _ := layout.Bounds(q)
		c := make([]uint16, len(p.DestIDs[q]))
		for i, id := range p.DestIDs[q] {
			local := uint16((id & graph.IDMask) - lo)
			if id&graph.MSBMask != 0 {
				local |= CompactMSB
			}
			c[i] = local
		}
		p.DestIDs16[q] = c
	})
	return p, nil
}

// CSR is the builder's input: a sparse structure stored by source (column).
// Off has one entry per source plus one; Adj[Off[c]:Off[c+1]] lists source
// c's destination (row) IDs in ascending order; W is nil or holds one weight
// per Adj entry.
type CSR struct {
	Off []int64
	Adj []graph.NodeID
	W   []float32
}

// Build constructs the PNG for g under the given layout: the square,
// unweighted case of BuildCSR. g's adjacency lists must be sorted
// (graph.Builder guarantees this); construction tolerates unsorted input
// silently, so callers loading untrusted graphs should Validate the graph
// first.
func Build(g *graph.Graph, layout partition.Layout, workers int) (*PNG, error) {
	return BuildCSR(CSR{Off: g.OutOffsets(), Adj: g.OutAdjacency()}, layout, layout, workers)
}

// BuildCSR constructs the PNG of in with sources partitioned by cols and
// destinations by rows, fusing the compression and transposition steps into
// two scans as in §3.3. It is parallel over source partitions.
func BuildCSR(in CSR, cols, rows partition.Layout, workers int) (*PNG, error) {
	if cols.NumNodes() != len(in.Off)-1 {
		return nil, fmt.Errorf("png: layout covers %d nodes, input has %d", cols.NumNodes(), len(in.Off)-1)
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
		SubSrc:         make([][]graph.NodeID, k),
		DestIDs:        make([][]uint32, kr),
		UpdateWriteOff: make([]int32, k*kr),
		UpdateCount:    make([]int64, kr),
	}
	if in.W != nil {
		p.DestWs = make([][]float32, kr)
	}
	shift := rows.Shift()

	// Pass 1 (parallel over source partitions): count, per (p, q), the
	// compressed edges (updates) and raw edges (destination IDs).
	updCnt := make([]int32, k*kr) // updates from p into q
	dstCnt := make([]int32, k*kr) // destination IDs from p into q
	par.ForDynamic(k, workers, func(pi int) {
		lo, hi := cols.Bounds(pi)
		row := pi * kr
		for v := lo; v < hi; v++ {
			prev := -1
			for _, u := range in.Adj[in.Off[v]:in.Off[v+1]] {
				q := int(u >> shift)
				if q != prev {
					updCnt[row+q]++
					prev = q
				}
				dstCnt[row+q]++
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
		p.DestIDs[q] = make([]uint32, dstAcc)
		if in.W != nil {
			p.DestWs[q] = make([]float32, dstAcc)
		}
		p.EdgesCompressed += int64(updAcc)
	}

	// Pass 3 (parallel over source partitions): fill the per-partition
	// bipartite CSR and the MSB-tagged destination-ID streams. Both are
	// written in scatter order — destination partitions visited in
	// ascending order per source node, source nodes ascending — so the
	// gather phase's sequential read pairs updates and IDs correctly.
	par.ForDynamic(k, workers, func(pi int) {
		row := pi * kr
		off := make([]int32, kr+1)
		for q := 0; q < kr; q++ {
			off[q+1] = off[q] + updCnt[row+q]
		}
		src := make([]graph.NodeID, off[kr])
		updCur := make([]int32, kr)
		dstCur := make([]int32, kr)
		lo, hi := cols.Bounds(pi)
		for v := lo; v < hi; v++ {
			adj := in.Adj[in.Off[v]:in.Off[v+1]]
			i := 0
			for i < len(adj) {
				q := int(adj[i] >> shift)
				// One compressed edge for the (v, q) run.
				src[off[q]+updCur[q]] = v
				updCur[q]++
				bin := p.DestIDs[q]
				base := dstWriteOff[row+q]
				runAt, start, first := base+dstCur[q], i, true
				for i < len(adj) && int(adj[i]>>shift) == q {
					id := uint32(adj[i])
					if first {
						id |= graph.MSBMask
						first = false
					}
					bin[base+dstCur[q]] = id
					dstCur[q]++
					i++
				}
				if in.W != nil { // the run's weights, beside its IDs
					copy(p.DestWs[q][runAt:], in.W[in.Off[v]:][start:i])
				}
			}
		}
		p.SubOff[pi] = off
		p.SubSrc[pi] = src
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

// DestTotal returns the total number of destination-ID entries (= |E|).
func (p *PNG) DestTotal() int64 {
	var t int64
	for _, d := range p.DestIDs {
		t += int64(len(d))
	}
	return t
}

// OffsetCells returns K*KRows, the PNG offset storage the paper's Eff2 bounds.
func (p *PNG) OffsetCells() int64 { return int64(p.K) * int64(p.KRows) }

// Validate checks the structural invariants of the PNG against its graph:
// edge conservation, stream pairing, MSB counts, and ID ranges.
func (p *PNG) Validate(g *graph.Graph) error { return p.ValidateEdges(g.NumEdges()) }

// ValidateEdges is Validate for a layout built from any CSR input holding
// the given number of nonzeros: sources stay inside their column partition,
// row IDs inside their row bin, and a weighted layout carries one weight per
// destination ID.
func (p *PNG) ValidateEdges(edges int64) error {
	if p.K != p.Layout.K() || p.KRows != p.RowLayout.K() {
		return fmt.Errorf("png: K=%d×%d disagrees with layouts K=%d×%d", p.K, p.KRows, p.Layout.K(), p.RowLayout.K())
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
		if int(off[p.KRows]) != len(p.SubSrc[pi]) {
			return fmt.Errorf("png: partition %d offsets end at %d, want %d", pi, off[p.KRows], len(p.SubSrc[pi]))
		}
		lo, hi := p.Layout.Bounds(pi)
		for q := 0; q < p.KRows; q++ {
			if off[q+1] < off[q] {
				return fmt.Errorf("png: partition %d offsets not monotone at %d", pi, q)
			}
			prev := int64(-1)
			for _, s := range p.SubSrc[pi][off[q]:off[q+1]] {
				if s < lo || s >= hi {
					return fmt.Errorf("png: partition %d lists source %d outside [%d,%d)", pi, s, lo, hi)
				}
				if int64(s) <= prev {
					return fmt.Errorf("png: partition %d sources for bin %d not strictly ascending", pi, q)
				}
				prev = int64(s)
			}
		}
		updTotal += int64(len(p.SubSrc[pi]))
	}
	if updTotal != p.EdgesCompressed {
		return fmt.Errorf("png: SubSrc holds %d entries, want |E'|=%d", updTotal, p.EdgesCompressed)
	}
	if p.DestWs != nil && len(p.DestWs) != p.KRows {
		return fmt.Errorf("png: weight streams cover %d bins, want %d", len(p.DestWs), p.KRows)
	}
	for q := 0; q < p.KRows; q++ {
		var msb int64
		qlo, qhi := p.RowLayout.Bounds(q)
		for _, id := range p.DestIDs[q] {
			if id&graph.MSBMask != 0 {
				msb++
			}
			raw := id & graph.IDMask
			if raw < qlo || raw >= qhi {
				return fmt.Errorf("png: bin %d holds destination %d outside [%d,%d)", q, raw, qlo, qhi)
			}
		}
		if msb != p.UpdateCount[q] {
			return fmt.Errorf("png: bin %d has %d MSB marks, want %d updates", q, msb, p.UpdateCount[q])
		}
		if len(p.DestIDs[q]) > 0 && p.DestIDs[q][0]&graph.MSBMask == 0 {
			return fmt.Errorf("png: bin %d does not start with an MSB mark", q)
		}
		if p.DestWs != nil && len(p.DestWs[q]) != len(p.DestIDs[q]) {
			return fmt.Errorf("png: bin %d holds %d weights for %d destination IDs", q, len(p.DestWs[q]), len(p.DestIDs[q]))
		}
	}
	if p.DestIDs16 != nil {
		if len(p.DestIDs16) != p.KRows {
			return fmt.Errorf("png: compact streams cover %d bins, want %d", len(p.DestIDs16), p.KRows)
		}
		for q := 0; q < p.KRows; q++ {
			if len(p.DestIDs16[q]) != len(p.DestIDs[q]) {
				return fmt.Errorf("png: compact bin %d length %d, want %d", q, len(p.DestIDs16[q]), len(p.DestIDs[q]))
			}
			lo, _ := p.RowLayout.Bounds(q)
			for i, c := range p.DestIDs16[q] {
				full := p.DestIDs[q][i]
				if uint32(c&CompactIDMask) != (full&graph.IDMask)-lo {
					return fmt.Errorf("png: compact bin %d entry %d mismatches full stream", q, i)
				}
				if (c&CompactMSB != 0) != (full&graph.MSBMask != 0) {
					return fmt.Errorf("png: compact bin %d entry %d flag mismatch", q, i)
				}
			}
		}
	}
	return nil
}

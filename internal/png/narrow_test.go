package png

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
)

// These tests hold the two storage widths to one meaning. The reference is
// the paper's logical stream derived from the CSR input alone
// (logicalBin): DecodeBin must return it whatever the width, and scatter and
// both gathers must compute what a plain walk of it computes, bit for bit.

// logicalBin is bin q of Algorithm 3's output written down from the input:
// sources in partition order then node order, each one's neighbors inside row
// partition q in adjacency order, the first MSB-tagged.
func logicalBin(in CSR, rows partition.Layout, q int) (ids []uint32, srcs []graph.NodeID, ws []float32) {
	for v := 0; v < len(in.Off)-1; v++ {
		first := true
		for e := in.Off[v]; e < in.Off[v+1]; e++ {
			u := in.Adj[e]
			if rows.PartitionOf(u) != q {
				continue
			}
			if first {
				srcs = append(srcs, graph.NodeID(v))
				u |= graph.MSBMask
				first = false
			}
			ids = append(ids, u)
			if in.W != nil {
				ws = append(ws, in.W[e])
			}
		}
	}
	return ids, srcs, ws
}

func graphCSR(g *graph.Graph) CSR { return CSR{Off: g.OutOffsets(), Adj: g.OutAdjacency()} }

// checkLayout builds in under cols × rows, validates it, and checks every
// bin's decoded stream, the scattered updates and both gathers against the
// logical stream. It returns the layout for width assertions.
func checkLayout(t *testing.T, in CSR, cols, rows partition.Layout, workers int) *PNG {
	t.Helper()
	p, err := BuildCSR(in, cols, rows, workers)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ValidateEdges(int64(len(in.Adj))); err != nil {
		t.Fatal(err)
	}
	x := make([]float32, cols.NumNodes())
	for v := range x {
		x[v] = float32(v%251+1) / 4096
	}
	k := NewKernel(p, workers)
	k.Scatter(x)
	want := make([]float32, rows.NumNodes())
	for q := 0; q < p.KRows; q++ {
		ids, srcs, ws := logicalBin(in, rows, q)
		gotIDs, gotSrcs := p.DecodeBin(q)
		if !slices.Equal(gotIDs, ids) {
			t.Fatalf("bin %d decodes to %#x, want %#x", q, gotIDs, ids)
		}
		if !slices.Equal(gotSrcs, srcs) {
			t.Fatalf("bin %d update sources %v, want %v", q, gotSrcs, srcs)
		}
		if p.DestWs != nil && !slices.Equal(p.DestWs[q], ws) {
			t.Fatalf("bin %d weights %v, want %v", q, p.DestWs[q], ws)
		}
		for i, s := range srcs {
			if k.Updates[q][i] != x[s] {
				t.Fatalf("bin %d update %d = %v, want x[%d] = %v", q, i, k.Updates[q][i], s, x[s])
			}
		}
		u := -1
		for j, id := range ids {
			u += int(id >> 31)
			upd := k.Updates[q][u]
			if ws != nil {
				upd *= ws[j]
			}
			want[id&graph.IDMask] += upd
		}
	}
	for _, branching := range []bool{false, true} {
		got := make([]float32, rows.NumNodes())
		k.Gather(branching, func(lo, hi graph.NodeID, sums []float32) (float64, float64) {
			copy(got[lo:hi], sums)
			return 0, 0
		})
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("branching=%v: sum of row %d = %v, want %v", branching, v, got[v], want[v])
			}
		}
	}
	return p
}

func isNarrow(p *PNG) bool {
	return p.DestOff != nil && p.DestFlags != nil && p.SubSrc16 != nil && p.DestIDs == nil && p.SubSrc == nil
}

func isWide(p *PNG) bool {
	return p.DestIDs != nil && p.SubSrc != nil && p.DestOff == nil && p.DestFlags == nil && p.SubSrc16 == nil
}

// TestBuildCompactMatchesFullStream: the 16-bit streams of a many-partition
// layout and the 32-bit streams of a one-partition layout of the same graph
// both decode to the paper's MSB-tagged global-ID stream.
func TestBuildCompactMatchesFullStream(t *testing.T) {
	g, err := gen.RMAT(gen.Graph500RMAT(11, 8, 13), graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{256, 1 << 17} {
		layout, err := partition.NewLayout(g.NumNodes(), size)
		if err != nil {
			t.Fatal(err)
		}
		p := checkLayout(t, graphCSR(g), layout, layout, 2)
		if size == 256 && !isNarrow(p) {
			t.Fatal("256-node partitions were not stored in 16 bits")
		}
		if size == 1<<17 && !isWide(p) {
			t.Fatal("131072-node partitions were not stored in 32 bits")
		}
	}
}

// TestShardRowBlockLayout: a shard's input — the full ID space with only the
// edges into one row block, so most bins are empty — in both widths.
func TestShardRowBlockLayout(t *testing.T) {
	g, err := gen.ErdosRenyi(3000, 24_000, 21, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := g.RowBlock(1000, 1900) // straddles 256-node partitions at both ends
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{256, 1 << 17} {
		layout, err := partition.NewLayout(sub.NumNodes(), size)
		if err != nil {
			t.Fatal(err)
		}
		p := checkLayout(t, graphCSR(sub), layout, layout, 2)
		if size == 256 && (p.binLen(0) != 0 || p.binLen(p.KRows-1) != 0 || p.binLen(4) == 0) {
			t.Fatalf("row block [1000,1900): bins 0, 4, %d hold %d, %d, %d entries", p.KRows-1,
				p.binLen(0), p.binLen(4), p.binLen(p.KRows-1))
		}
	}
}

// TestBuildCompactAtLimit: a partition of exactly 65 536 nodes is still
// narrow, local offset 65 535 is reachable, and the short last partition
// (5 nodes) keeps its own small offsets.
func TestBuildCompactAtLimit(t *testing.T) {
	const n = narrowMaxNodes + 5
	edges := []graph.Edge{
		{Src: 0, Dst: narrowMaxNodes - 1}, {Src: 0, Dst: narrowMaxNodes + 4},
		{Src: narrowMaxNodes - 1, Dst: 0}, {Src: narrowMaxNodes - 1, Dst: narrowMaxNodes - 1},
		{Src: narrowMaxNodes + 4, Dst: narrowMaxNodes - 1}, {Src: narrowMaxNodes + 4, Dst: narrowMaxNodes},
	}
	er, err := gen.ErdosRenyi(n, 4000, 9, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromEdges(n, append(edges, er.Edges()...), false, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	layout, err := partition.NewLayout(n, narrowMaxNodes)
	if err != nil {
		t.Fatal(err)
	}
	p := checkLayout(t, graphCSR(g), layout, layout, 2)
	if !isNarrow(p) {
		t.Fatal("65536-node partitions were not stored in 16 bits")
	}
	if !slices.Contains(p.DestOff[0], narrowMaxNodes-1) || !slices.Contains(p.SubSrc16[0], narrowMaxNodes-1) {
		t.Fatal("local offset 65535 does not appear in partition 0's streams")
	}
}

// TestWidePartitionsKeep32BitStream: partitions past 65 536 nodes — the
// harness sweeps reach 1 MB — keep the paper's MSB-tagged encoding.
func TestWidePartitionsKeep32BitStream(t *testing.T) {
	g, err := gen.ErdosRenyi(2*narrowMaxNodes+100, 20_000, 3, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	layout, err := partition.NewLayout(g.NumNodes(), 2*narrowMaxNodes)
	if err != nil {
		t.Fatal(err)
	}
	if p := checkLayout(t, graphCSR(g), layout, layout, 2); !isWide(p) || p.K != 2 {
		t.Fatalf("131072-node partitions: K=%d, wide=%v", p.K, isWide(p))
	}
}

// TestNarrowBinLengths walks bins whose lengths sit on the flag-word
// boundaries (0, 1, 63, 64, 65, and a few words), with runs of every length
// from 1 to 9, unweighted and weighted, in both widths of a rectangular
// layout: sources in 32-node partitions, one row partition per length.
func TestNarrowBinLengths(t *testing.T) {
	lengths := []int{0, 1, 63, 64, 65, 128, 200}
	for _, rowSize := range []int{256, 2 * narrowMaxNodes} {
		for _, weighted := range []bool{false, true} {
			t.Run(fmt.Sprintf("rows=%d/weighted=%v", rowSize, weighted), func(t *testing.T) {
				// Source s sends runs into every bin; bin q receives exactly
				// lengths[q] entries, its run lengths cycling 1..9.
				nSrc := 0
				perSrc := make(map[int][]graph.NodeID)
				for q, length := range lengths {
					s := 0
					for placed, run := 0, 1; placed < length; run = run%9 + 1 {
						run = min(run, length-placed)
						for i := 0; i < run; i++ {
							perSrc[s] = append(perSrc[s], graph.NodeID(q*rowSize+(placed+i)%rowSize))
						}
						placed += run
						s++
					}
					nSrc = max(nSrc, s)
				}
				in := CSR{Off: []int64{0}}
				for s := 0; s < nSrc; s++ {
					adj := perSrc[s]
					slices.Sort(adj)
					in.Adj = append(in.Adj, adj...)
					in.Off = append(in.Off, int64(len(in.Adj)))
				}
				if weighted {
					for e := range in.Adj {
						in.W = append(in.W, float32(e%13+1)/8)
					}
				}
				cols, err := partition.NewLayout(nSrc, 32)
				if err != nil {
					t.Fatal(err)
				}
				rows, err := partition.NewLayout(len(lengths)*rowSize, rowSize)
				if err != nil {
					t.Fatal(err)
				}
				p := checkLayout(t, in, cols, rows, 2)
				for q, length := range lengths {
					if p.binLen(q) != length {
						t.Fatalf("bin %d holds %d entries, want %d", q, p.binLen(q), length)
					}
				}
				if narrow := rowSize <= narrowMaxNodes; narrow != (p.DestOff != nil) || p.SubSrc16 == nil {
					t.Fatalf("rows of %d nodes: DestOff set=%v, SubSrc16 set=%v", rowSize, p.DestOff != nil, p.SubSrc16 != nil)
				}
			})
		}
	}
}

// TestValidateCatchesCompactCorruption: every invariant ValidateEdges states
// for the 16-bit streams fails when broken, one at a time.
func TestValidateCatchesCompactCorruption(t *testing.T) {
	g, err := gen.ErdosRenyi(500, 3000, 4, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	layout, err := partition.NewLayout(g.NumNodes(), 64)
	if err != nil {
		t.Fatal(err)
	}
	last := layout.K() - 1 // the short partition: 500 - 7*64 = 52 nodes
	if layout.Len(last) != 52 {
		t.Fatalf("last partition holds %d nodes, want 52", layout.Len(last))
	}
	bit := func(j int) uint64 { return 1 << (uint(j) & 63) }
	// entry returns the index of the first entry of bin q after entry 0
	// that opens a run (flagged) or continues one (not).
	entry := func(p *PNG, q int, flagged bool) int {
		for j := 1; j < len(p.DestOff[q]); j++ {
			if (runFlag(p.DestFlags[q], j) != 0) == flagged {
				return j
			}
		}
		t.Fatalf("bin %d has no entry with flagged=%v past its first", q, flagged)
		return 0
	}
	corruptions := map[string]func(p *PNG){
		"flag set inside a run": func(p *PNG) {
			j := entry(p, 0, false)
			p.DestFlags[0][j>>6] |= bit(j)
		},
		"flag of a run cleared": func(p *PNG) {
			j := entry(p, 1, true)
			p.DestFlags[1][j>>6] &^= bit(j)
		},
		"first entry not flagged, population kept": func(p *PNG) {
			j := entry(p, 2, false)
			p.DestFlags[2][0] &^= 1
			p.DestFlags[2][j>>6] |= bit(j)
		},
		"padding bit set, population kept": func(p *PNG) {
			for q := range p.DestOff {
				if len(p.DestOff[q])%64 != 0 {
					j := entry(p, q, true)
					p.DestFlags[q][j>>6] &^= bit(j)
					p.DestFlags[q][len(p.DestFlags[q])-1] |= 1 << 63
					return
				}
			}
			t.Fatal("every bin fills its last flag word")
		},
		"offset past a full partition": func(p *PNG) { p.DestOff[0][0] = 64 },
		"offset past the short last partition": func(p *PNG) {
			p.DestOff[last][0] = 52 // fits 16 bits and a full partition, not this one
		},
		"source offset past its partition": func(p *PNG) { p.SubSrc16[last][0] = 52 },
		"sources of a bin not ascending": func(p *PNG) {
			for q := 0; q < p.KRows; q++ {
				if off := p.SubOff[0]; off[q+1]-off[q] >= 2 {
					p.SubSrc16[0][off[q]+1] = p.SubSrc16[0][off[q]]
					return
				}
			}
			t.Fatal("partition 0 has no bin with two sources")
		},
		"flag words missing": func(p *PNG) { p.DestFlags[4] = p.DestFlags[4][:len(p.DestFlags[4])-1] },
		"32-bit stream on narrow partitions": func(p *PNG) {
			p.DestIDs = make([][]uint32, p.KRows)
			for q := range p.DestIDs {
				p.DestIDs[q], _ = p.DecodeBin(q)
			}
			p.DestOff, p.DestFlags = nil, nil
		},
		"both source widths present": func(p *PNG) { p.SubSrc = make([][]graph.NodeID, p.K) },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			p, err := Build(g, layout, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Validate(g); err != nil {
				t.Fatal(err)
			}
			corrupt(p)
			if err := p.Validate(g); err == nil {
				t.Fatal("Validate accepted the corrupted layout")
			}
		})
	}
}

package png

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
)

// paperExample is the 9-node, 3-partition graph of the paper's Fig. 3a.
func paperExample(t testing.TB) (*graph.Graph, partition.Layout) {
	t.Helper()
	edges := []graph.Edge{
		{Src: 3, Dst: 2}, {Src: 6, Dst: 0}, {Src: 6, Dst: 1}, {Src: 7, Dst: 2},
		{Src: 0, Dst: 4}, {Src: 1, Dst: 3}, {Src: 1, Dst: 4}, {Src: 2, Dst: 5},
		{Src: 2, Dst: 8}, {Src: 7, Dst: 8},
	}
	g, err := graph.FromEdges(9, edges, false, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Partition size 4 (power of two) still yields the paper's {0-3, 4-7, 8}
	// grouping closely enough for structural assertions below; the paper
	// uses size 3, which is not a power of two, so we assert on our own
	// partitioning ({0..3}, {4..7}, {8}).
	layout, err := partition.NewLayout(9, 4)
	if err != nil {
		t.Fatal(err)
	}
	return g, layout
}

func TestBuildPaperExample(t *testing.T) {
	g, layout := paperExample(t)
	p, err := Build(g, layout, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	if p.K != 3 {
		t.Fatalf("K = %d, want 3", p.K)
	}
	if p.DestTotal() != g.NumEdges() {
		t.Fatalf("DestTotal = %d, want %d", p.DestTotal(), g.NumEdges())
	}
	// Partition 0 nodes {0,1,2,3}: edges 0→4(P1), 1→3(P0), 1→4(P1), 2→5(P1),
	// 2→8(P2), 3→2(P0). Compressed: 1→P0, 3→P0, 0→P1, 1→P1, 2→P1, 2→P2 = 6.
	if got := p.SubOff[0][p.KRows]; got != 6 {
		t.Fatalf("partition 0 compressed edges = %d, want 6", got)
	}
	// Bin 0 updates: from P0 {1,3}, from P1 {6,7}; |updates| = 4.
	if p.UpdateCount[0] != 4 {
		t.Fatalf("UpdateCount[0] = %d, want 4", p.UpdateCount[0])
	}
	// Bin 0 destination stream: sources ascending within each partition:
	// 1→{3}, 3→{2}, 6→{0,1}, 7→{2}; every run's first entry is MSB-tagged.
	want := []uint32{
		3 | graph.MSBMask,
		2 | graph.MSBMask,
		0 | graph.MSBMask, 1,
		2 | graph.MSBMask,
	}
	got, srcs := p.DecodeBin(0)
	if len(got) != len(want) {
		t.Fatalf("bin 0 stream = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bin 0 stream[%d] = %#x, want %#x", i, got[i], want[i])
		}
	}
	if wantSrcs := []graph.NodeID{1, 3, 6, 7}; !slices.Equal(srcs, wantSrcs) {
		t.Fatalf("bin 0 update sources = %v, want %v", srcs, wantSrcs)
	}
}

func TestCompressionRatioBounds(t *testing.T) {
	g, layout := paperExample(t)
	p, err := Build(g, layout, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := p.CompressionRatio(g)
	if r < 1 {
		t.Fatalf("r = %v < 1", r)
	}
	maxR := float64(g.NumEdges()) / float64(g.NumNodes())
	if r > maxR+2 { // loose upper sanity bound (dangling nodes shrink denominator)
		t.Fatalf("r = %v exceeds plausible maximum", r)
	}
	// 10 edges; compressed: P0:6 (see above) + P1 {6→P0 (0,1), 7→P0 (2), 7→P2 (8)} = 3 + P2: 0 = 9.
	if p.EdgesCompressed != 9 {
		t.Fatalf("EdgesCompressed = %d, want 9", p.EdgesCompressed)
	}
}

func TestSinglePartitionDegenerate(t *testing.T) {
	g, _ := paperExample(t)
	layout, err := partition.NewLayout(9, 16)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Build(g, layout, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	if p.K != 1 {
		t.Fatalf("K = %d, want 1", p.K)
	}
	// With one partition every node's out-edges compress to one edge:
	// |E'| = number of non-dangling nodes = 6.
	if p.EdgesCompressed != 6 {
		t.Fatalf("EdgesCompressed = %d, want 6", p.EdgesCompressed)
	}
}

func TestPartitionSizeOneDegenerate(t *testing.T) {
	g, _ := paperExample(t)
	layout, err := partition.NewLayout(9, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Build(g, layout, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	// With singleton partitions nothing compresses: |E'| = |E| and r = 1.
	if p.EdgesCompressed != g.NumEdges() {
		t.Fatalf("EdgesCompressed = %d, want %d", p.EdgesCompressed, g.NumEdges())
	}
	if r := p.CompressionRatio(g); r != 1 {
		t.Fatalf("r = %v, want 1", r)
	}
}

func TestLayoutMismatchRejected(t *testing.T) {
	g, _ := paperExample(t)
	layout, err := partition.NewLayout(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(g, layout, 1); err == nil {
		t.Fatal("Build accepted mismatched layout")
	}
}

func TestEmptyGraph(t *testing.T) {
	g, err := graph.FromEdges(0, nil, false, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	layout, err := partition.NewLayout(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Build(g, layout, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestBuildParallelMatchesSerial(t *testing.T) {
	g, err := gen.ErdosRenyi(1000, 8000, 5, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	layout, err := partition.NewLayout(1000, 64)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Build(g, layout, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(g, layout, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.EdgesCompressed != b.EdgesCompressed {
		t.Fatal("parallel build changed |E'|")
	}
	for q := 0; q < a.K; q++ {
		aIDs, aSrcs := a.DecodeBin(q)
		bIDs, bSrcs := b.DecodeBin(q)
		if !slices.Equal(aIDs, bIDs) {
			t.Fatalf("bin %d destination stream differs", q)
		}
		if !slices.Equal(aSrcs, bSrcs) {
			t.Fatalf("bin %d update sources differ", q)
		}
	}
}

// bruteForceCompressed counts distinct (node, destination-partition) pairs.
func bruteForceCompressed(g *graph.Graph, layout partition.Layout) int64 {
	var total int64
	for v := 0; v < g.NumNodes(); v++ {
		seen := make(map[int]bool)
		for _, u := range g.OutNeighbors(graph.NodeID(v)) {
			seen[layout.PartitionOf(u)] = true
		}
		total += int64(len(seen))
	}
	return total
}

func TestPropertyCompressionMatchesBruteForce(t *testing.T) {
	f := func(seed uint64, nRaw uint8, mRaw uint16, sizeLog uint8) bool {
		n := int(nRaw)%400 + 1
		m := int64(mRaw) % 4000
		size := 1 << (sizeLog%8 + 1)
		rng := rand.New(rand.NewPCG(seed, 77))
		edges := make([]graph.Edge, m)
		for i := range edges {
			edges[i] = graph.Edge{Src: graph.NodeID(rng.IntN(n)), Dst: graph.NodeID(rng.IntN(n))}
		}
		g, err := graph.FromEdges(n, edges, false, graph.BuildOptions{})
		if err != nil {
			return false
		}
		layout, err := partition.NewLayout(n, size)
		if err != nil {
			return false
		}
		p, err := Build(g, layout, 2)
		if err != nil {
			return false
		}
		if p.Validate(g) != nil {
			return false
		}
		return p.EdgesCompressed == bruteForceCompressed(g, layout)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyUpdateOffsetsDisjoint(t *testing.T) {
	f := func(seed uint64, nRaw uint8, mRaw uint16) bool {
		n := int(nRaw)%300 + 2
		m := int64(mRaw) % 3000
		rng := rand.New(rand.NewPCG(seed, 99))
		edges := make([]graph.Edge, m)
		for i := range edges {
			edges[i] = graph.Edge{Src: graph.NodeID(rng.IntN(n)), Dst: graph.NodeID(rng.IntN(n))}
		}
		g, err := graph.FromEdges(n, edges, false, graph.BuildOptions{})
		if err != nil {
			return false
		}
		layout, err := partition.NewLayout(n, 16)
		if err != nil {
			return false
		}
		p, err := Build(g, layout, 2)
		if err != nil {
			return false
		}
		// For every bin q, the write ranges of successive source partitions
		// must tile [0, UpdateCount[q]) exactly.
		for q := 0; q < p.K; q++ {
			var expect int32
			for pi := 0; pi < p.K; pi++ {
				if p.UpdateWriteOff[pi*p.K+q] != expect {
					return false
				}
				off := p.SubOff[pi]
				expect += off[q+1] - off[q]
			}
			if int64(expect) != p.UpdateCount[q] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCompressionImprovesWithPartitionSize(t *testing.T) {
	// Fig. 11's driving property: r is non-decreasing in partition size.
	g, err := gen.RMAT(gen.Graph500RMAT(12, 16, 7), graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, size := range []int{64, 256, 1024, 4096} {
		layout, err := partition.NewLayout(g.NumNodes(), size)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Build(g, layout, 2)
		if err != nil {
			t.Fatal(err)
		}
		r := p.CompressionRatio(g)
		if r < prev-1e-9 {
			t.Fatalf("compression ratio decreased: %v after %v at size %d", r, prev, size)
		}
		prev = r
	}
	if prev < 1.5 {
		t.Fatalf("large partitions should compress an RMAT graph; r = %v", prev)
	}
}

// TestBuildCSRRectangularWeighted covers the §3.5 form no graph input
// reaches: rows and columns partitioned separately, a weight beside each
// destination ID.
func TestBuildCSRRectangularWeighted(t *testing.T) {
	// 5 sources × 11 rows; weights encode (source, row) so pairing is checkable.
	adj := [][]graph.NodeID{{0, 1, 9}, {}, {4, 5, 6, 10}, {3}, {2, 8}}
	in := flatCSR{Off: []int64{0}}
	for c, rows := range adj {
		for _, r := range rows {
			in.Adj = append(in.Adj, r)
			in.W = append(in.W, float32(100*c+int(r)))
		}
		in.Off = append(in.Off, int64(len(in.Adj)))
	}
	cols, err := partition.NewLayout(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := partition.NewLayout(11, 4)
	if err != nil {
		t.Fatal(err)
	}
	p, err := BuildCSR(in.csr(t), cols, rows, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.K != 3 || p.KRows != 3 || p.OffsetCells() != 9 {
		t.Fatalf("grid = %d×%d (%d cells), want 3×3", p.K, p.KRows, p.OffsetCells())
	}
	if err := p.ValidateEdges(int64(len(in.Adj))); err != nil {
		t.Fatal(err)
	}
	// Replaying scatter order recovers every (source, row, weight) triple.
	for q := 0; q < p.KRows; q++ {
		ids, srcs := p.DecodeBin(q)
		u := -1
		for j, id := range ids {
			u += int(id >> 31)
			if want := float32(100*int(srcs[u]) + int(id&graph.IDMask)); p.DestWs[q][j] != want {
				t.Fatalf("bin %d entry %d: weight %v, want %v", q, j, p.DestWs[q][j], want)
			}
		}
	}
	p.DestWs[1] = p.DestWs[1][:len(p.DestWs[1])-1]
	if err := p.ValidateEdges(int64(len(in.Adj))); err == nil {
		t.Fatal("Validate accepted a weight stream shorter than its ID stream")
	}
}

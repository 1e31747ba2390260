package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/png"
)

// logicalStreamRanks iterates eq. 1 the way Algorithms 3 and 4 prescribe, but
// over the decoded logical streams of pn — MSB-tagged global destination IDs
// and global update sources — with none of the kernel's loops: the reference
// the 16-bit layout is held to.
func logicalStreamRanks(g *graph.Graph, pn *png.PNG, damping float64, iters int) []float32 {
	n := g.NumNodes()
	pr, spr, sums := make([]float32, n), make([]float32, n), make([]float32, n)
	for v := range pr {
		pr[v] = float32(1.0 / float64(n))
		if d := g.OutDegree(graph.NodeID(v)); d > 0 {
			spr[v] = pr[v] / float32(d)
		}
	}
	base, d := float32((1-damping)/float64(n)), float32(damping)
	for it := 0; it < iters; it++ {
		clear(sums)
		for q := 0; q < pn.KRows; q++ {
			ids, srcs := pn.DecodeBin(q)
			u := -1
			for _, id := range ids {
				u += int(id >> 31)
				sums[id&graph.IDMask] += spr[srcs[u]]
			}
		}
		for v := range pr {
			pr[v] = base + d*sums[v]
			if deg := g.OutDegree(graph.NodeID(v)); deg > 0 {
				spr[v] = pr[v] / float32(deg)
			}
		}
	}
	return pr
}

// TestCompactIDsBitwiseIdentical: the engine over 16-bit partition-local
// streams, with either gather, produces the bits of the paper's algorithm
// walked over the logical 32-bit streams.
func TestCompactIDsBitwiseIdentical(t *testing.T) {
	g, err := gen.RMAT(gen.Graph500RMAT(11, 10, 31), graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, gather := range []GatherKind{GatherBranchAvoiding, GatherBranching} {
		e, err := NewPCPM(g, Config{PartitionBytes: 2048, Workers: 2, Gather: gather})
		if err != nil {
			t.Fatal(err)
		}
		if e.kern.PNG.DestOff == nil || e.kern.PNG.SubSrc16 == nil {
			t.Fatal("512-node partitions are not stored as 16-bit streams")
		}
		RunIterations(e, 6)
		want := logicalStreamRanks(g, e.kern.PNG, DefaultDamping, 6)
		for i, r := range e.Ranks() {
			if r != want[i] {
				t.Fatalf("gather=%v: rank[%d] = %v, logical-stream reference has %v", gather, i, r, want[i])
			}
		}
	}
}

// TestOversizedPartitionsUseWideStream: partitions past 64K nodes are not an
// error; they keep the 32-bit MSB-tagged stream and the same arithmetic.
func TestOversizedPartitionsUseWideStream(t *testing.T) {
	g, err := gen.ErdosRenyi(300_000, 100_000, 2, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewPCPM(g, Config{PartitionBytes: 512 << 10, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if e.kern.PNG.DestIDs == nil || e.kern.PNG.DestOff != nil {
		t.Fatal("128K-node partitions are not stored as a 32-bit stream")
	}
	RunIterations(e, 3)
	want := logicalStreamRanks(g, e.kern.PNG, DefaultDamping, 3)
	for i, r := range e.Ranks() {
		if r != want[i] {
			t.Fatalf("rank[%d] = %v, logical-stream reference has %v", i, r, want[i])
		}
	}
}

// countBuilds replaces the layout builder with one that counts its calls.
func countBuilds(t *testing.T) *atomic.Int64 {
	t.Helper()
	var builds atomic.Int64
	orig := buildLayout
	buildLayout = func(g *graph.Graph, l partition.Layout, workers int) (*png.PNG, error) {
		builds.Add(1)
		return orig(g, l, workers)
	}
	t.Cleanup(func() { buildLayout = orig })
	return &builds
}

// TestLayoutBuiltOncePerGraph: a graph keeps the layout of the last
// partition size asked for. Engines on the same graph share it; another size
// replaces it; a graph derived by Patch starts without one.
func TestLayoutBuiltOncePerGraph(t *testing.T) {
	builds := countBuilds(t)
	g, err := gen.ErdosRenyi(3000, 20_000, 8, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	newEngine := func(g *graph.Graph, partBytes int, ctor func(*graph.Graph, Config) (*PCPM, error)) *PCPM {
		t.Helper()
		e, err := ctor(g, Config{PartitionBytes: partBytes, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	a := newEngine(g, 1024, NewPCPM)
	if got := builds.Load(); got != 1 {
		t.Fatalf("first engine: %d builds, want 1", got)
	}
	b := newEngine(g, 1024, NewPCPM)
	c := newEngine(g, 1024, NewPCPMCSR)
	if got := builds.Load(); got != 1 {
		t.Fatalf("second and third engine on the graph: %d builds, want still 1", got)
	}
	if a.kern.PNG != b.kern.PNG || a.kern.PNG != c.kern.PNG {
		t.Fatal("engines on one graph do not share the layout")
	}
	if &a.kern.Updates[0][0] == &b.kern.Updates[0][0] || a.state == b.state {
		t.Fatal("engines on one graph share bins or rank state")
	}
	// Sharing the layout shares nothing that moves: stepping one engine
	// leaves the other's result what a lone engine computes.
	RunIterations(a, 4)
	RunIterations(b, 2)
	RunIterations(a, 1)
	RunIterations(b, 3)
	ra, rb := a.Ranks(), b.Ranks()
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("interleaved engines disagree at rank[%d]: %v vs %v", i, ra[i], rb[i])
		}
	}

	wide := newEngine(g, 2048, NewPCPM)
	if got := builds.Load(); got != 2 {
		t.Fatalf("another partition size: %d builds, want 2", got)
	}
	if wide.kern.PNG == a.kern.PNG {
		t.Fatal("a 2 KB engine was handed the 1 KB layout")
	}
	newEngine(g, 1024, NewPCPM)
	if got := builds.Load(); got != 3 {
		t.Fatalf("back to the first size: %d builds, want 3 (one slot, not a map)", got)
	}

	patched, err := graph.Patch(g, []graph.Edge{{Src: 1, Dst: 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := newEngine(patched, 1024, NewPCPM)
	if got := builds.Load(); got != 4 {
		t.Fatalf("patched graph: %d builds, want 4 (it must not inherit)", got)
	}
	if err := p.kern.PNG.Validate(patched); err != nil {
		t.Fatalf("patched graph's layout: %v", err)
	}
}

// TestLayoutBuiltOnceUnderConcurrency: engines constructed at the same time
// on one graph wait for one build and share it (run with -race).
func TestLayoutBuiltOnceUnderConcurrency(t *testing.T) {
	builds := countBuilds(t)
	g, err := gen.RMAT(gen.Graph500RMAT(12, 8, 3), graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const runs = 8
	ranks := make([][]float32, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, err := NewPCPM(g, Config{PartitionBytes: 4096, Workers: 2})
			if err != nil {
				t.Error(err)
				return
			}
			RunIterations(e, 5)
			ranks[i] = e.Ranks()
		}()
	}
	wg.Wait()
	if got := builds.Load(); got != 1 {
		t.Fatalf("%d concurrent engines: %d builds, want 1", runs, got)
	}
	for i := 1; i < runs; i++ {
		for v := range ranks[0] {
			if ranks[i][v] != ranks[0][v] {
				t.Fatalf("concurrent run %d differs from run 0 at rank[%d]", i, v)
			}
		}
	}
}

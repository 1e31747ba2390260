package core

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

// paperExample is the 9-node graph of the paper's Fig. 3a.
func paperExample(t testing.TB) *graph.Graph {
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
	return g
}

// refPageRank is the double-precision ground truth for eq. 1, with optional
// dangling redistribution.
func refPageRank(g *graph.Graph, damping float64, iters int, policy DanglingPolicy) []float64 {
	n := g.NumNodes()
	if n == 0 {
		return nil
	}
	pr := make([]float64, n)
	for v := range pr {
		pr[v] = 1 / float64(n)
	}
	for it := 0; it < iters; it++ {
		var dang float64
		if policy == DanglingRedistribute {
			for v := 0; v < n; v++ {
				if g.OutDegree(graph.NodeID(v)) == 0 {
					dang += pr[v]
				}
			}
		}
		next := make([]float64, n)
		for v := 0; v < n; v++ {
			var sum float64
			for _, u := range g.InNeighbors(graph.NodeID(v)) {
				sum += pr[u] / float64(g.OutDegree(u))
			}
			next[v] = (1-damping)/float64(n) + damping*(sum+dang/float64(n))
		}
		pr = next
	}
	return pr
}

// allEngines constructs one of each engine over g.
func allEngines(t testing.TB, g *graph.Graph, cfg Config) []Engine {
	t.Helper()
	pdpr, err := NewPDPR(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bvgas, err := NewBVGAS(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pcpmCSR, err := NewPCPMCSR(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pcpm, err := NewPCPM(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return []Engine{pdpr, bvgas, pcpmCSR, pcpm}
}

func maxDiffVsRef(ranks []float32, ref []float64) float64 {
	var mx float64
	for i := range ranks {
		d := math.Abs(float64(ranks[i]) - ref[i])
		if d > mx {
			mx = d
		}
	}
	return mx
}

// smallCfg keeps partitions tiny so small test graphs still span several
// partitions/bins.
var smallCfg = Config{PartitionBytes: 16, Workers: 2}

func TestEnginesMatchReferenceOnPaperExample(t *testing.T) {
	g := paperExample(t)
	const iters = 15
	for _, policy := range []DanglingPolicy{DanglingLeak, DanglingRedistribute} {
		cfg := smallCfg
		cfg.Dangling = policy
		ref := refPageRank(g, DefaultDamping, iters, policy)
		for _, e := range allEngines(t, g, cfg) {
			RunIterations(e, iters)
			if d := maxDiffVsRef(e.Ranks(), ref); d > 1e-5 {
				t.Errorf("%s (%v): max diff vs reference = %g", e.Name(), policy, d)
			}
		}
	}
}

func TestDeterministicEnginesBitwiseIdentical(t *testing.T) {
	// PDPR, BVGAS, PCPM-CSR and PCPM all accumulate each vertex's in-sum in
	// ascending source order, so with the leak policy their float32 results
	// are bitwise identical — a strong cross-implementation check.
	g, err := gen.RMAT(gen.Graph500RMAT(9, 8, 3), graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{PartitionBytes: 128, Workers: 3}
	engines := allEngines(t, g, cfg)
	var baseline []float32
	for _, e := range engines {
		RunIterations(e, 8)
		r := e.Ranks()
		if baseline == nil {
			baseline = r
			continue
		}
		for i := range r {
			if r[i] != baseline[i] {
				t.Fatalf("%s: rank[%d] = %v, baseline %v", e.Name(), i, r[i], baseline[i])
			}
		}
	}
}

func TestRedistributeSumsToOne(t *testing.T) {
	g := paperExample(t) // has 3 dangling nodes
	cfg := smallCfg
	cfg.Dangling = DanglingRedistribute
	e, err := NewPCPM(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	RunIterations(e, 30)
	var sum float64
	for _, r := range e.Ranks() {
		sum += float64(r)
	}
	if math.Abs(sum-1) > 1e-4 {
		t.Fatalf("rank sum = %v, want 1", sum)
	}
}

func TestLeakLosesMassWithDanglingNodes(t *testing.T) {
	g := paperExample(t)
	e, err := NewPDPR(g, smallCfg)
	if err != nil {
		t.Fatal(err)
	}
	RunIterations(e, 30)
	var sum float64
	for _, r := range e.Ranks() {
		sum += float64(r)
	}
	if sum >= 0.999 {
		t.Fatalf("rank sum = %v; the paper's formulation should leak dangling mass", sum)
	}
}

func TestGatherKindsBitwiseIdentical(t *testing.T) {
	g, err := gen.ErdosRenyi(300, 2500, 9, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewPCPM(g, Config{PartitionBytes: 64, Gather: GatherBranchAvoiding, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPCPM(g, Config{PartitionBytes: 64, Gather: GatherBranching, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	RunIterations(a, 6)
	RunIterations(b, 6)
	ra, rb := a.Ranks(), b.Ranks()
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("gather kinds differ at node %d: %v vs %v", i, ra[i], rb[i])
		}
	}
}

func TestWorkerCountDoesNotChangeResults(t *testing.T) {
	g, err := gen.RMAT(gen.Graph500RMAT(8, 6, 11), graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var baseline []float32
	for _, workers := range []int{1, 2, 5} {
		e, err := NewPCPM(g, Config{PartitionBytes: 64, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		RunIterations(e, 5)
		r := e.Ranks()
		if baseline == nil {
			baseline = r
			continue
		}
		for i := range r {
			if r[i] != baseline[i] {
				t.Fatalf("workers=%d changed rank[%d]", workers, i)
			}
		}
	}
}

func TestConvergence(t *testing.T) {
	g, err := gen.ErdosRenyi(200, 1500, 13, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewPCPM(g, Config{PartitionBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	iters, delta, _ := RunToConvergence(e, 1e-7, 200)
	if iters >= 200 {
		t.Fatalf("did not converge: delta = %g after %d iterations", delta, iters)
	}
	if delta >= 1e-7 {
		t.Fatalf("converged flag but delta = %g", delta)
	}
	// Deltas shrink geometrically (contraction with factor ~d).
	e.Reset()
	d1 := e.Step()
	var d10 float64
	for i := 0; i < 9; i++ {
		d10 = e.Step()
	}
	if d10 >= d1 {
		t.Fatalf("delta did not shrink: first %g, tenth %g", d1, d10)
	}
}

func TestStatsAccumulate(t *testing.T) {
	g := paperExample(t)
	e, err := NewPCPM(g, smallCfg)
	if err != nil {
		t.Fatal(err)
	}
	RunIterations(e, 4)
	s := e.Stats()
	if s.Iterations != 4 {
		t.Fatalf("Iterations = %d, want 4", s.Iterations)
	}
	if s.Total < s.Scatter || s.Total < s.Gather {
		t.Fatalf("Total %v < phase times %v/%v", s.Total, s.Scatter, s.Gather)
	}
	per := s.PerIteration()
	if per.Iterations != 1 {
		t.Fatalf("PerIteration.Iterations = %d", per.Iterations)
	}
	if per.Total > s.Total {
		t.Fatal("per-iteration total exceeds cumulative")
	}
}

func TestResetRestoresInitialState(t *testing.T) {
	g := paperExample(t)
	e, err := NewBVGAS(g, smallCfg)
	if err != nil {
		t.Fatal(err)
	}
	first := RunIterations(e, 3)
	ranks1 := e.Ranks()
	e.Reset()
	if e.Stats().Iterations != 0 {
		t.Fatal("Reset did not clear stats")
	}
	second := RunIterations(e, 3)
	ranks2 := e.Ranks()
	if first.Iterations != second.Iterations {
		t.Fatal("iteration counts differ after reset")
	}
	for i := range ranks1 {
		if ranks1[i] != ranks2[i] {
			t.Fatalf("rank[%d] not reproducible after Reset", i)
		}
	}
}

func TestEmptyAndTinyGraphs(t *testing.T) {
	empty, err := graph.FromEdges(0, nil, false, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	single, err := graph.FromEdges(1, []graph.Edge{{Src: 0, Dst: 0}}, false, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*graph.Graph{empty, single} {
		for _, e := range allEngines(t, g, smallCfg) {
			delta := e.Step()
			if math.IsNaN(delta) || math.IsInf(delta, 0) {
				t.Fatalf("%s on %d-node graph: delta = %v", e.Name(), g.NumNodes(), delta)
			}
		}
	}
	// A single self-loop node with redistribute keeps rank exactly 1.
	cfg := smallCfg
	cfg.Dangling = DanglingRedistribute
	e, err := NewPDPR(single, cfg)
	if err != nil {
		t.Fatal(err)
	}
	RunIterations(e, 5)
	if r := e.Ranks(); math.Abs(float64(r[0])-1) > 1e-6 {
		t.Fatalf("self-loop rank = %v, want 1", r[0])
	}
}

func TestConfigValidation(t *testing.T) {
	g := paperExample(t)
	bad := []Config{
		{Damping: -0.1},
		{Damping: 1.0},
		{PartitionBytes: 3},
		{PartitionBytes: 48}, // not a power of two
	}
	for i, cfg := range bad {
		if _, err := NewPCPM(g, cfg); err == nil {
			t.Errorf("case %d: NewPCPM accepted %+v", i, cfg)
		}
		if _, err := NewBVGAS(g, cfg); err == nil {
			t.Errorf("case %d: NewBVGAS accepted %+v", i, cfg)
		}
		if _, err := NewPDPR(g, cfg); err == nil {
			t.Errorf("case %d: NewPDPR accepted %+v", i, cfg)
		}
	}
}

func TestTopK(t *testing.T) {
	ranks := []float32{0.1, 0.5, 0.3, 0.5, 0.05}
	top := TopK(ranks, 3)
	if len(top) != 3 {
		t.Fatalf("len = %d", len(top))
	}
	if top[0].Node != 1 || top[1].Node != 3 || top[2].Node != 2 {
		t.Fatalf("order = %v", top)
	}
	if got := TopK(ranks, 99); len(got) != len(ranks) {
		t.Fatalf("TopK clamped wrong: %d", len(got))
	}
}

func TestPreprocessTimes(t *testing.T) {
	g, err := gen.ErdosRenyi(2000, 20000, 5, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pdpr, _ := NewPDPR(g, Config{})
	if pdpr.PreprocessTime() != 0 {
		t.Fatal("PDPR should report zero preprocessing")
	}
	pcpm, err := NewPCPM(g, Config{PartitionBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if pcpm.PreprocessTime() <= 0 {
		t.Fatal("PCPM should report positive preprocessing time")
	}
}

func TestPropertyEnginesAgreeOnRandomGraphs(t *testing.T) {
	f := func(seed uint64, nRaw uint8, mRaw uint16, pb uint8) bool {
		n := int(nRaw)%200 + 2
		m := int64(mRaw) % 2000
		partBytes := 1 << (pb%8 + 4) // 16B .. 2KB
		rng := rand.New(rand.NewPCG(seed, 1))
		edges := make([]graph.Edge, m)
		for i := range edges {
			edges[i] = graph.Edge{Src: graph.NodeID(rng.IntN(n)), Dst: graph.NodeID(rng.IntN(n))}
		}
		g, err := graph.FromEdges(n, edges, false, graph.BuildOptions{})
		if err != nil {
			return false
		}
		cfg := Config{PartitionBytes: partBytes, Workers: 2}
		ref := refPageRank(g, DefaultDamping, 6, DanglingLeak)
		// The engines keep float32 ranks while the reference is float64,
		// so summing k in-edge contributions accumulates up to ~k ulps of
		// rounding. The generator can draw thousands of parallel edges
		// onto a handful of vertices (m up to 2000 on n as small as 2),
		// where a flat 1e-5 has no headroom — widen with max in-degree.
		maxInDeg := 0
		for v := 0; v < n; v++ {
			if d := len(g.InNeighbors(graph.NodeID(v))); d > maxInDeg {
				maxInDeg = d
			}
		}
		tol := 1e-5 + float64(maxInDeg)*5e-8
		for _, mk := range []func(*graph.Graph, Config) (Engine, error){
			func(g *graph.Graph, c Config) (Engine, error) { return NewPDPR(g, c) },
			func(g *graph.Graph, c Config) (Engine, error) { return NewBVGAS(g, c) },
			func(g *graph.Graph, c Config) (Engine, error) { return NewPCPM(g, c) },
			func(g *graph.Graph, c Config) (Engine, error) { return NewPCPMCSR(g, c) },
		} {
			e, err := mk(g, cfg)
			if err != nil {
				return false
			}
			RunIterations(e, 6)
			if maxDiffVsRef(e.Ranks(), ref) > tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestGTEPSSanity(t *testing.T) {
	// Step must do real work: ranks move away from uniform on a star graph.
	edges := []graph.Edge{{Src: 1, Dst: 0}, {Src: 2, Dst: 0}, {Src: 3, Dst: 0}, {Src: 0, Dst: 1}}
	g, err := graph.FromEdges(4, edges, false, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewPCPM(g, smallCfg)
	if err != nil {
		t.Fatal(err)
	}
	RunIterations(e, 10)
	r := e.Ranks()
	if r[0] <= r[2] {
		t.Fatalf("hub rank %v should exceed leaf rank %v", r[0], r[2])
	}
}

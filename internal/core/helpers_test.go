package core

import (
	"math"
	"testing"
	"time"

	"repro/internal/graph"
)

func TestL1AndMaxDiffHelpers(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{1, 2.5, 2}
	if got := L1Diff(a, b); math.Abs(got-1.5) > 1e-9 {
		t.Fatalf("L1Diff = %v, want 1.5", got)
	}
	if got := MaxAbsDiff(a, b); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("MaxAbsDiff = %v, want 1", got)
	}
	if !math.IsInf(L1Diff(a, b[:2]), 1) || !math.IsInf(MaxAbsDiff(a, b[:2]), 1) {
		t.Fatal("length mismatch should report +Inf")
	}
}

func TestPerIterationZeroIterations(t *testing.T) {
	s := PhaseStats{Total: time.Second}
	if got := s.PerIteration(); got.Total != time.Second {
		t.Fatal("PerIteration with zero iterations should be identity")
	}
}

func TestRunToConvergenceHitsCap(t *testing.T) {
	g := paperExample(t)
	e, err := NewPDPR(g, smallCfg)
	if err != nil {
		t.Fatal(err)
	}
	iters, delta := RunToConvergence(e, 0, 7) // tol 0: can never converge
	if iters != 7 {
		t.Fatalf("iterations = %d, want cap 7", iters)
	}
	if delta < 0 {
		t.Fatalf("delta = %v", delta)
	}
}

func TestStringers(t *testing.T) {
	if DanglingLeak.String() != "leak" || DanglingRedistribute.String() != "redistribute" {
		t.Fatal("dangling policy strings wrong")
	}
	if GatherBranching.String() != "branching" || GatherBranchAvoiding.String() != "branch-avoiding" {
		t.Fatal("gather kind strings wrong")
	}
	if DanglingPolicy(42).String() == "" {
		t.Fatal("unknown policy should render")
	}
}

func TestEngineNames(t *testing.T) {
	g := paperExample(t)
	names := map[string]bool{}
	for _, e := range allEngines(t, g, smallCfg) {
		names[e.Name()] = true
	}
	for _, want := range []string{"pdpr", "bvgas", "pcpm-csr", "pcpm"} {
		if !names[want] {
			t.Fatalf("missing engine %q (have %v)", want, names)
		}
	}
}

func TestDampingZeroGivesUniformRanks(t *testing.T) {
	// With d -> 0 every node's rank is exactly (1-d)/n after one step.
	// Config.Damping == 0 means "default", so use a tiny epsilon.
	g := paperExample(t)
	cfg := smallCfg
	cfg.Damping = 1e-9
	e, err := NewPCPM(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Step()
	want := float32((1 - 1e-9) / 9)
	for v, r := range e.Ranks() {
		if math.Abs(float64(r-want)) > 1e-7 {
			t.Fatalf("rank[%d] = %v, want %v", v, r, want)
		}
	}
}

func TestGraphAccessor(t *testing.T) {
	g := paperExample(t)
	for _, e := range allEngines(t, g, smallCfg) {
		if e.Graph() != g {
			t.Fatalf("%s: Graph() does not return the input graph", e.Name())
		}
	}
}

func TestHighDampingStillStable(t *testing.T) {
	g, err := graph.FromEdges(3, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}}, false, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallCfg
	cfg.Damping = 0.999
	e, err := NewBVGAS(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	RunIterations(e, 100)
	for _, r := range e.Ranks() {
		if math.IsNaN(float64(r)) || r <= 0 {
			t.Fatalf("unstable rank %v at d=0.999", r)
		}
	}
}

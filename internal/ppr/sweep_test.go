package ppr

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/graph"
)

// starIntoChain builds a graph whose frontier saturates and then drains: the
// hub (vertex 0) fans out to leaves, every leaf points at the head of a chain
// and the chain runs towards LOWER IDs, so an ascending sweep cannot carry
// mass down it within one pass. The chain's tail is dangling, which sends the
// mass back to a hub seed and starts the cycle again.
func starIntoChain(t testing.TB, leaves, chain int) *graph.Graph {
	t.Helper()
	n := 1 + chain + leaves
	head := graph.NodeID(chain) // chain occupies IDs chain, chain-1, …, 1
	var edges []graph.Edge
	for i := 0; i < leaves; i++ {
		leaf := graph.NodeID(1 + chain + i)
		edges = append(edges, graph.Edge{Src: 0, Dst: leaf}, graph.Edge{Src: leaf, Dst: head})
	}
	for v := head; v > 1; v-- {
		edges = append(edges, graph.Edge{Src: v, Dst: v - 1})
	}
	g, err := graph.FromEdges(n, edges, false, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSweepDrainsChainAgainstItsOrder is the sweep's worst case: the frontier
// saturates (hub, then every leaf) and then drains down a chain that runs
// against the sweep order, so each sweep carries the chain's mass one vertex
// further, and the dangling tail restarts the cycle at the hub. The run must
// still converge to the power iteration's fixed point.
func TestSweepDrainsChainAgainstItsOrder(t *testing.T) {
	g := starIntoChain(t, 64, 8)
	seeds := []graph.NodeID{0}
	opts := RunOptions{Epsilon: 1e-9}
	full, err := Run(g, seeds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if full.Truncated || full.ResidualL1 > opts.Epsilon {
		t.Fatalf("full run: truncated %v, residual %g", full.Truncated, full.ResidualL1)
	}
	want, err := PowerIteration(g, seeds, 0, 1e-13, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if d := l1(full.Scores, want); d > 1e-6 {
		t.Fatalf("push vs power L1 = %g", d)
	}
}

// TestTruncatedMeansResidualAboveEpsilon is the termination property: over
// families × seeds × epsilons, capped and uncapped, Truncated says exactly
// that the residual is above epsilon, and only a run that used up its rounds
// can say it — a sweep that pushes nothing leaves the bound within epsilon.
func TestTruncatedMeansResidualAboveEpsilon(t *testing.T) {
	for name, g := range testGraphs(t) {
		r := rand.New(rand.NewPCG(5, uint64(g.NumNodes())))
		for trial := 0; trial < 4; trial++ {
			seeds := []graph.NodeID{graph.NodeID(r.IntN(g.NumNodes())), graph.NodeID(r.IntN(g.NumNodes()))}
			for _, eps := range []float64{1e-4, 1e-7, 1e-9} {
				for _, maxRounds := range []int{0, 3, 40} {
					res, err := Run(g, seeds, RunOptions{Epsilon: eps, MaxRounds: maxRounds})
					if err != nil {
						t.Fatal(err)
					}
					if maxRounds == 0 {
						maxRounds = DefaultMaxRounds
					}
					if res.Truncated != (res.ResidualL1 > eps) {
						t.Fatalf("%s seeds %v eps %g: truncated %v with residual %g", name, seeds, eps, res.Truncated, res.ResidualL1)
					}
					if res.Truncated && res.Rounds < maxRounds {
						t.Fatalf("%s seeds %v eps %g: truncated after %d of %d rounds", name, seeds, eps, res.Rounds, maxRounds)
					}
				}
			}
		}
	}
}

// TestDanglingHeavySweepMatchesPowerIteration: half the vertices have no
// out-edges, so every sweep leaks a large dangling mass, and the estimate
// normalised once at the end still lands on the power iteration's fixed point.
func TestDanglingHeavySweepMatchesPowerIteration(t *testing.T) {
	const n = 600
	r := rand.New(rand.NewPCG(31, 7))
	edges := make([]graph.Edge, 0, 4*n)
	for i := 0; i < 4*n; i++ {
		edges = append(edges, graph.Edge{Src: graph.NodeID(r.IntN(n / 2)), Dst: graph.NodeID(r.IntN(n))})
	}
	g, err := graph.FromEdges(n, edges, false, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seeds := []graph.NodeID{3, 250, 599} // 599 is itself dangling
	want, err := PowerIteration(g, seeds, 0, 1e-13, 5000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, seeds, RunOptions{Epsilon: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if d := l1(res.Scores, want); d > 1e-6 {
		t.Fatalf("push vs power L1 = %g", d)
	}
}

// leakySolve is the from-scratch reference for Repair: the response of the
// leaky (dangling mass vanishes) PageRank system to a signed seeding,
// π(r) = α · Σ_k ((1−α)·M)^k · r, summed until the tail is below 1e-15.
func leakySolve(g *graph.Graph, seeds []ResidualSeed, damping float64) []float64 {
	n := g.NumNodes()
	alpha := 1 - damping
	cur, next, x := make([]float64, n), make([]float64, n), make([]float64, n)
	for _, s := range seeds {
		cur[s.Node] += s.Mass
	}
	for {
		var mass float64
		clear(next)
		for v := 0; v < n; v++ {
			x[v] += alpha * cur[v]
			mass += math.Abs(cur[v])
			out := g.OutNeighbors(graph.NodeID(v))
			for _, u := range out {
				next[u] += (1 - alpha) * cur[v] / float64(len(out))
			}
		}
		if mass < 1e-15 {
			return x
		}
		cur, next = next, cur
	}
}

// TestRepairCancellingSeeds seeds what an insert and a delete of the same
// mass leave behind — equal and opposite residuals that partly cancel as they
// spread — on top of a non-zero estimate. The repaired vector must sit within
// the reported residual of estimate + π(r). The counts pinned for er, rmat
// and dag-communities are those of plain ascending sweeps that re-sum |r|
// after every pass: an Aitken step must never cost a repair a pass. pa and
// copying sweep descending, the way most of their edges point, and their
// pins are the drain's own (10 and 32 ascending).
func TestRepairCancellingSeeds(t *testing.T) {
	sweepRounds := map[string]int{"er": 42, "rmat": 49, "pa": 1, "copying": 24, "dag-communities": 43}
	for name, g := range testGraphs(t) {
		n := g.NumNodes()
		estimate := make([]float32, n)
		for i := range estimate {
			estimate[i] = 1 / float32(n)
		}
		seeds := []ResidualSeed{
			{Node: graph.NodeID(n - 1), Mass: 0.05}, {Node: graph.NodeID(n - 2), Mass: -0.05},
			{Node: graph.NodeID(n / 2), Mass: 0.02}, {Node: graph.NodeID(n / 3), Mass: -0.02},
		}
		e, err := New(g, EngineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		res, p := repair64(t, e, estimate, seeds, RunOptions{Epsilon: 1e-9})
		if res.Truncated || res.ResidualL1 > 1e-9 {
			t.Fatalf("%s: truncated %v, residual %g", name, res.Truncated, res.ResidualL1)
		}
		want := leakySolve(g, seeds, DefaultDamping)
		for i := range want {
			want[i] += float64(estimate[i])
		}
		if d := l1(p, want); d > res.ResidualL1+1e-12 {
			t.Fatalf("%s: repair vs from-scratch L1 = %g, above its residual %g", name, d, res.ResidualL1)
		}
		if res.Rounds > sweepRounds[name] {
			t.Fatalf("%s: %d rounds, the sweep engine took %d", name, res.Rounds, sweepRounds[name])
		}
	}
}

// repair64 runs a repair as Repair does, without the float32 narrowing: it
// returns the drain's Result and its float64 estimate, for tests that hold
// the drain to bounds tighter than float32 rounding. It also checks that
// Repair's own answer is that estimate, clamped at 0 and narrowed.
func repair64(t *testing.T, e *Engine, estimate []float32, seeds []ResidualSeed, ro RunOptions) (*Result, []float64) {
	t.Helper()
	ro = ro.withDefaults()
	q, err := e.repairQuery(estimate, seeds, ro)
	if err != nil {
		t.Fatal(err)
	}
	defer scratchPool.Put(q.scratch)
	res := q.drain(ro)
	p := slices.Clone(q.p)
	rep, err := e.Repair(estimate, seeds, ro)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scores != nil || len(rep.Ranks) != len(p) || rep.Rounds != res.Rounds || rep.ResidualL1 != res.ResidualL1 {
		t.Fatalf("Repair answered differently from its drain: %d ranks, %d vs %d rounds", len(rep.Ranks), rep.Rounds, res.Rounds)
	}
	for i, s := range p {
		want := float32(s)
		if s < 0 {
			want = 0
		}
		if math.Float32bits(rep.Ranks[i]) != math.Float32bits(want) {
			t.Fatalf("Ranks[%d] = %v, want %v narrowed from %v", i, rep.Ranks[i], want, s)
		}
	}
	return res, p
}

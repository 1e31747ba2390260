package ppr

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// testGraphs builds one graph per generator family (the stand-ins for the
// paper's datasets), small enough for the dense reference to be cheap.
func testGraphs(t testing.TB) map[string]*graph.Graph {
	t.Helper()
	graphs := map[string]*graph.Graph{}
	er, err := gen.ErdosRenyi(500, 4000, 7, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	graphs["er"] = er
	rm, err := gen.RMAT(gen.Graph500RMAT(9, 8, 3), graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	graphs["rmat"] = rm
	pa, err := gen.PreferentialAttachment(400, 6, 11, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	graphs["pa"] = pa
	cp, err := gen.Copying(gen.CopyingConfig{
		N: 600, OutDegree: 5, CopyProb: 0.4, Locality: 0.6, Seed: 13,
	}, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	graphs["copying"] = cp
	dc, err := gen.DAGCommunities(gen.DAGCommunitiesConfig{
		Clusters: 8, ClusterSize: 60, IntraDegree: 3, BridgeDegree: 5, Seed: 19,
	}, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	graphs["dag-communities"] = dc
	return graphs
}

func l1(a, b []float64) float64 {
	var total float64
	for i := range a {
		total += math.Abs(a[i] - b[i])
	}
	return total
}

// TestGoldenPushMatchesPowerIteration is the acceptance golden: on every
// generator family, Run and Repair agree with the dense personalized power
// iteration within 1e-6 L1. Repair (and Run, inside) leaks dangling mass
// where the reference sends it back to the seeds, which only rescales the
// vector — p = c·s + (1−α)·M·p for a scalar c either way — so a Repair of the
// seed distribution from a zero estimate, normalised to sum 1, is the same
// fixed point.
func TestGoldenPushMatchesPowerIteration(t *testing.T) {
	seedSets := [][]graph.NodeID{
		{0},
		{3, 17, 42},
		{1, 1, 2, 250}, // duplicate seeds must canonicalize
	}
	ro := RunOptions{Epsilon: 1e-8}
	for name, g := range testGraphs(t) {
		e, err := New(g, EngineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, seeds := range seedSets {
			want, err := PowerIteration(g, seeds, 0, 1e-12, 5000)
			if err != nil {
				t.Fatalf("%s: power iteration: %v", name, err)
			}
			canon, _ := CanonicalSeeds(g.NumNodes(), seeds)
			repairSeeds := make([]ResidualSeed, len(canon))
			for i, s := range canon {
				repairSeeds[i] = ResidualSeed{Node: s, Mass: 1 / float64(len(canon))}
			}
			res, err := e.Run(seeds, ro)
			if err != nil {
				t.Fatalf("%s: push: %v", name, err)
			}
			if d := l1(res.Scores, want); d > 1e-6 {
				t.Fatalf("%s seeds %v: push vs power L1 = %g, want <= 1e-6", name, seeds, d)
			}
			if res.ResidualL1 > 1e-6 {
				t.Fatalf("%s: residual %g exceeds 1e-6", name, res.ResidualL1)
			}
			_, rep := repair64(t, e, make([]float32, g.NumNodes()), repairSeeds, ro)
			var sum float64
			for _, v := range rep {
				sum += v
			}
			for i := range rep {
				rep[i] /= sum
			}
			if d := l1(rep, want); d > 1e-6 {
				t.Fatalf("%s seeds %v: normalised repair vs power L1 = %g, want <= 1e-6", name, seeds, d)
			}
		}
	}
}

// TestGoldenRunWithinItsCertificate is the normalised drain's oracle on
// every generator family at three dampings and the golden seed sets: Run's
// scores sum to 1, and their L1 distance to the dense power iteration is
// within the reported ResidualL1 (plus 1e-12 of rounding, as a drain that
// delivers all its mass certifies 0), which is within epsilon. The reference
// is converged far below epsilon, so the certificate must hold on its own.
func TestGoldenRunWithinItsCertificate(t *testing.T) {
	seedSets := [][]graph.NodeID{{0}, {3, 17, 42}, {1, 1, 2, 250}}
	const eps = 1e-8
	for name, g := range testGraphs(t) {
		for _, d := range []float64{0.5, 0.85, 0.99} {
			for _, seeds := range seedSets {
				want, err := PowerIteration(g, seeds, d, 1e-14, 20000)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(g, seeds, RunOptions{Damping: d, Epsilon: eps})
				if err != nil {
					t.Fatal(err)
				}
				var sum float64
				for _, s := range res.Scores {
					sum += s
				}
				if math.Abs(sum-1) > 1e-12 {
					t.Fatalf("%s d=%g seeds %v: scores sum to %.15g", name, d, seeds, sum)
				}
				if dist := l1(res.Scores, want); dist > res.ResidualL1+1e-12 || res.ResidualL1 > eps {
					t.Fatalf("%s d=%g seeds %v: L1 to power iteration %g, certificate %g, epsilon %g",
						name, d, seeds, dist, res.ResidualL1, eps)
				}
			}
		}
	}
}

// TestRunPassCounts pins Run's passes at the default options on every
// family, so that losing the Aitken step fails here: the counts are the
// accelerated drain's own. Plain sweeps of the same leaky system take 54, 49
// and 68 passes on er, rmat and copying; pa drains its seeds' acyclic
// ancestry in 5 either way, and dag-communities never settles into one mode.
func TestRunPassCounts(t *testing.T) {
	passes := map[string]int{"er": 16, "rmat": 21, "pa": 5, "copying": 35, "dag-communities": 42}
	for name, g := range testGraphs(t) {
		res, err := Run(g, []graph.NodeID{3, 17, 42}, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Truncated {
			t.Fatalf("%s: truncated, residual %g", name, res.ResidualL1)
		}
		if res.Rounds > passes[name] {
			t.Fatalf("%s: %d passes, the accelerated drain takes %d", name, res.Rounds, passes[name])
		}
	}
}

func TestTopKKnob(t *testing.T) {
	g := testGraphs(t)["pa"]
	res, err := Run(g, []graph.NodeID{2}, RunOptions{TopK: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Top) != 7 {
		t.Fatalf("len(Top) = %d, want 7", len(res.Top))
	}
	for i := 1; i < len(res.Top); i++ {
		if res.Top[i].Score > res.Top[i-1].Score {
			t.Fatal("Top not sorted descending")
		}
	}
	if res.Top[0].Node != 2 {
		// The seed dominates its own personalized ranking on these graphs.
		t.Fatalf("top node = %d, want seed 2", res.Top[0].Node)
	}
}

// TestBatchMatchesSingle: a batch is a loop over one engine. After a query
// on a larger graph has left its scratch in the pool, the engine answers
// every seed set of the batch bit-identically to a single Run.
func TestBatchMatchesSingle(t *testing.T) {
	g := testGraphs(t)["er"]
	other, err := gen.ErdosRenyi(2*g.NumNodes(), 6000, 9, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ro := RunOptions{Epsilon: 1e-8}
	if _, err := Run(other, []graph.NodeID{7, 900}, ro); err != nil {
		t.Fatal(err)
	}
	e, err := New(g, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, seeds := range [][]graph.NodeID{{0}, {10, 20}, {499}} {
		got, err := e.Run(seeds, ro)
		if err != nil {
			t.Fatal(err)
		}
		single, err := Run(g, seeds, ro)
		if err != nil {
			t.Fatal(err)
		}
		if d := l1(got.Scores, single.Scores); d != 0 {
			t.Fatalf("batch[%d] diverges from a single run: L1 = %g", i, d)
		}
	}
}

// TestConcurrentScratchAcrossSizes: goroutines interleave Run and Repair on
// two graphs of different node counts, so recycled scratch crosses sizes in
// both directions and one Engine serves several goroutines at once. Every
// answer must be bit-identical to the same call made sequentially
// beforehand. Run with -race (CI does).
func TestConcurrentScratchAcrossSizes(t *testing.T) {
	graphs := testGraphs(t)
	ro := RunOptions{Epsilon: 1e-8}
	type call func() (*Result, error)
	var calls []call
	for _, name := range []string{"pa", "copying"} { // 400 and 600 nodes
		g := graphs[name]
		e, err := New(g, EngineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		n := g.NumNodes()
		estimate := make([]float32, n)
		for i := range estimate {
			estimate[i] = 1 / float32(n)
		}
		repair := []ResidualSeed{{Node: 3, Mass: 0.04}, {Node: graph.NodeID(n - 1), Mass: -0.03}}
		for _, seeds := range [][]graph.NodeID{{0}, {5, graph.NodeID(n - 1)}, {graph.NodeID(n / 2)}} {
			calls = append(calls,
				func() (*Result, error) { return e.Run(seeds, ro) },
				func() (*Result, error) { return Run(g, seeds, ro) })
		}
		calls = append(calls, func() (*Result, error) { return e.Repair(estimate, repair, ro) })
	}
	want := make([]*Result, len(calls))
	for i, c := range calls {
		res, err := c()
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	const goroutines, rounds = 4, 3
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for k := 0; k < rounds*len(calls); k++ {
				i := (gi*5 + k) % len(calls) // each goroutine starts elsewhere
				got, err := calls[i]()
				if err != nil {
					t.Error(err)
					return
				}
				if got.Rounds != want[i].Rounds || got.Pushes != want[i].Pushes ||
					got.ResidualL1 != want[i].ResidualL1 || !slices.Equal(got.Scores, want[i].Scores) ||
					!slices.Equal(got.Ranks, want[i].Ranks) {
					t.Errorf("call %d answered differently under concurrency (rounds %d vs %d, residual %g vs %g)",
						i, got.Rounds, want[i].Rounds, got.ResidualL1, want[i].ResidualL1)
					return
				}
			}
		}(gi)
	}
	wg.Wait()
}

func TestSeedValidation(t *testing.T) {
	g := testGraphs(t)["er"]
	if _, err := Run(g, nil, RunOptions{}); err == nil {
		t.Fatal("empty seed set should fail")
	}
	if _, err := Run(g, []graph.NodeID{500}, RunOptions{}); err == nil {
		t.Fatal("out-of-range seed should fail")
	}
}

func TestOptionValidation(t *testing.T) {
	g := testGraphs(t)["er"]
	for _, opts := range []RunOptions{
		{Damping: 1.5},
		{Damping: -0.1},
		{Epsilon: -1},
		{TopK: -1},
		{MaxRounds: -1},
	} {
		if _, err := Run(g, []graph.NodeID{0}, opts); err == nil {
			t.Fatalf("options %+v should be rejected", opts)
		}
	}
}

func TestEngineReuseAcrossQueries(t *testing.T) {
	g := testGraphs(t)["er"]
	e, err := New(g, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ro := RunOptions{Epsilon: 1e-8}
	a1, err := e.Run([]graph.NodeID{4}, ro)
	if err != nil {
		t.Fatal(err)
	}
	// Interleave a different query, then repeat the first: state must not
	// bleed between runs.
	if _, err := e.Run([]graph.NodeID{400}, ro); err != nil {
		t.Fatal(err)
	}
	a2, err := e.Run([]graph.NodeID{4}, ro)
	if err != nil {
		t.Fatal(err)
	}
	if d := l1(a1.Scores, a2.Scores); d != 0 {
		t.Fatalf("engine reuse changed the answer: L1 = %g", d)
	}
}

// TestPerRunOptionsOnOneEngine: one engine answers queries with entirely different per-call parameters,
// and each answer is bit-identical to a fresh stateless run with the same
// options.
func TestPerRunOptionsOnOneEngine(t *testing.T) {
	g := testGraphs(t)["rmat"]
	e, err := New(g, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []RunOptions{
		{Epsilon: 1e-6, TopK: 3},
		{Epsilon: 1e-9, Damping: 0.6, TopK: 10},
		{Epsilon: 1e-7, MaxRounds: 5},
		{Epsilon: 1e-8, TopK: 5, TopOnly: true},
	}
	seeds := []graph.NodeID{2, 77}
	for i, ro := range cases {
		got, err := e.Run(seeds, ro)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		want, err := Run(g, seeds, ro)
		if err != nil {
			t.Fatalf("case %d reference: %v", i, err)
		}
		if ro.TopOnly {
			if got.Scores != nil {
				t.Fatalf("case %d: TopOnly run materialized Scores", i)
			}
		} else if d := l1(got.Scores, want.Scores); d != 0 {
			t.Fatalf("case %d: one engine's answer diverges from a single Run: L1 = %g", i, d)
		}
		if len(got.Top) != len(want.Top) {
			t.Fatalf("case %d: %d top entries, want %d", i, len(got.Top), len(want.Top))
		}
		for j := range got.Top {
			if got.Top[j] != want.Top[j] {
				t.Fatalf("case %d top[%d]: got %+v, want %+v", i, j, got.Top[j], want.Top[j])
			}
		}
	}
}

// TestTruncatedFlag pins Result.Truncated: a round-capped run that could
// not reach its epsilon reports it, a converged run does not.
func TestTruncatedFlag(t *testing.T) {
	g := testGraphs(t)["er"]
	capped, err := Run(g, []graph.NodeID{0}, RunOptions{Epsilon: 1e-9, MaxRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !capped.Truncated {
		t.Fatalf("1-round run reports converged (residual %g)", capped.ResidualL1)
	}
	if capped.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1", capped.Rounds)
	}
	full, err := Run(g, []graph.NodeID{0}, RunOptions{Epsilon: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if full.Truncated {
		t.Fatalf("converged run (residual %g) reports truncated", full.ResidualL1)
	}
}

// BenchmarkPushSingleSeed runs default-epsilon single-seed queries on the
// serving family at its benchmark size (bench's serve_read graph), where a
// query is a few dozen sweeps: rounds/op and ns/edge are the kernel's
// numbers. Edges traversed are taken as pushes × mean out-degree, which is
// exact to a few percent because almost all pushes happen in sweeps that
// push almost every vertex.
func BenchmarkPushSingleSeed(b *testing.B) {
	g, err := gen.PreferentialAttachmentMix(1<<17, 8, 0.2, 11, graph.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	e, err := New(g, EngineOptions{})
	if err != nil {
		b.Fatal(err)
	}
	var rounds, pushes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Counting down from the newest vertex: the family's oldest few
		// reach nothing, and a -benchtime=1x smoke must push past its seed.
		seed := graph.NodeID(g.NumNodes() - 1 - i*7919%g.NumNodes())
		res, err := e.Run([]graph.NodeID{seed}, RunOptions{TopK: 10})
		if err != nil {
			b.Fatal(err)
		}
		rounds += int64(res.Rounds)
		pushes += res.Pushes
	}
	edges := float64(pushes) * float64(g.NumEdges()) / float64(g.NumNodes())
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/edges, "ns/edge")
}

func TestTopOnlySkipsScores(t *testing.T) {
	g := testGraphs(t)["er"]
	res, err := Run(g, []graph.NodeID{3}, RunOptions{TopK: 5, TopOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scores != nil {
		t.Fatal("TopOnly result still carries Scores")
	}
	full, err := Run(g, []graph.NodeID{3}, RunOptions{TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Top {
		if res.Top[i] != full.Top[i] {
			t.Fatalf("TopOnly Top[%d] = %+v, want %+v", i, res.Top[i], full.Top[i])
		}
	}
	if _, err := Run(g, []graph.NodeID{3}, RunOptions{TopOnly: true}); err == nil {
		t.Fatal("TopOnly without TopK should be rejected")
	}
}

// TestTopKMatchesFullSort pins the heap-based partial selection against a
// plain full sort, including tie-breaking by node ID.
func TestTopKMatchesFullSort(t *testing.T) {
	r := rand.New(rand.NewPCG(99, 7))
	scores := make([]float64, 500)
	for i := range scores {
		scores[i] = float64(r.IntN(40)) / 40 // coarse values force score ties
	}
	for _, k := range []int{0, 1, 7, 499, 500, 600} {
		got := TopK(scores, k)
		want := make([]Entry, len(scores))
		for i, s := range scores {
			want[i] = Entry{Node: graph.NodeID(i), Score: s}
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].Score != want[j].Score {
				return want[i].Score > want[j].Score
			}
			return want[i].Node < want[j].Node
		})
		wk := k
		if wk > len(want) {
			wk = len(want)
		}
		if len(got) != wk {
			t.Fatalf("k=%d: got %d entries, want %d", k, len(got), wk)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("k=%d entry %d: got %+v, want %+v", k, i, got[i], want[i])
			}
		}
	}
}

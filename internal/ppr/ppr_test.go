package ppr

import (
	"math"
	"math/rand/v2"
	"sort"
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
// generator test graph, for single- and multi-seed queries, forward push
// must agree with the dense personalized power iteration within 1e-6 L1.
func TestGoldenPushMatchesPowerIteration(t *testing.T) {
	seedSets := [][]graph.NodeID{
		{0},
		{3, 17, 42},
		{1, 1, 2, 250}, // duplicate seeds must canonicalize
	}
	for name, g := range testGraphs(t) {
		for _, seeds := range seedSets {
			res, err := Run(g, seeds, Options{
				Epsilon:        1e-8,
				PartitionBytes: 1 << 10, // many partitions even on small graphs
				Workers:        4,
			})
			if err != nil {
				t.Fatalf("%s: push: %v", name, err)
			}
			want, err := PowerIteration(g, seeds, 0, 1e-12, 5000)
			if err != nil {
				t.Fatalf("%s: power iteration: %v", name, err)
			}
			if d := l1(res.Scores, want); d > 1e-6 {
				t.Fatalf("%s seeds %v: push vs power L1 = %g, want <= 1e-6", name, seeds, d)
			}
			if res.ResidualL1 > 1e-6 {
				t.Fatalf("%s: residual %g exceeds 1e-6", name, res.ResidualL1)
			}
		}
	}
}

// TestGoldenSparseAndDenseAgree forces each scheduling mode and checks they
// land on the same vector: DenseFraction > 1 can never trigger the dense
// fallback, DenseFraction < 0 makes every round dense.
func TestGoldenSparseAndDenseAgree(t *testing.T) {
	g := testGraphs(t)["rmat"]
	seeds := []graph.NodeID{5, 9}
	sparse, err := Run(g, seeds, Options{Epsilon: 1e-9, DenseFraction: 2, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sparse.DenseRounds != 0 || sparse.SparseRounds == 0 {
		t.Fatalf("forced-sparse rounds: %d dense, %d sparse", sparse.DenseRounds, sparse.SparseRounds)
	}
	dense, err := Run(g, seeds, Options{Epsilon: 1e-9, DenseFraction: -1, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if dense.SparseRounds != 0 || dense.DenseRounds == 0 {
		t.Fatalf("forced-dense rounds: %d dense, %d sparse", dense.DenseRounds, dense.SparseRounds)
	}
	if d := l1(sparse.Scores, dense.Scores); d > 1e-6 {
		t.Fatalf("sparse vs dense L1 = %g", d)
	}
}

// TestScoresSumToOneMinusResidual is the mass invariant of the unsigned
// drain on every generator family, under the default schedule and with every
// round a sweep: pushes and the dangling fold only move mass, so Σp + Σr
// stays 1, and a run that was not round-capped ends with its residual under
// the requested epsilon.
func TestScoresSumToOneMinusResidual(t *testing.T) {
	for name, g := range testGraphs(t) {
		for _, denseFraction := range []float64{0, -1} {
			res, err := Run(g, []graph.NodeID{1}, Options{
				Epsilon: 1e-8, PartitionBytes: 1 << 10, DenseFraction: denseFraction,
			})
			if err != nil {
				t.Fatal(err)
			}
			var sum float64
			for _, s := range res.Scores {
				sum += s
			}
			if math.Abs(sum+res.ResidualL1-1) > 1e-12 {
				t.Fatalf("%s dense %v: scores sum %g + residual %g != 1", name, denseFraction, sum, res.ResidualL1)
			}
			if res.ResidualL1 > 1e-8 {
				t.Fatalf("%s dense %v: residual %g above epsilon after %d rounds", name, denseFraction, res.ResidualL1, res.Rounds)
			}
		}
	}
}

func TestTopKKnob(t *testing.T) {
	g := testGraphs(t)["pa"]
	res, err := Run(g, []graph.NodeID{2}, Options{TopK: 7})
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

func TestBatchMatchesSingle(t *testing.T) {
	g := testGraphs(t)["er"]
	sets := [][]graph.NodeID{{0}, {10, 20}, {499}}
	batch, err := RunBatch(g, sets, Options{Epsilon: 1e-8, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(sets) {
		t.Fatalf("batch returned %d results, want %d", len(batch), len(sets))
	}
	for i, seeds := range sets {
		single, err := Run(g, seeds, Options{Epsilon: 1e-8})
		if err != nil {
			t.Fatal(err)
		}
		if d := l1(batch[i].Scores, single.Scores); d > 1e-7 {
			t.Fatalf("batch[%d] diverges from single run: L1 = %g", i, d)
		}
	}
}

func TestSeedValidation(t *testing.T) {
	g := testGraphs(t)["er"]
	if _, err := Run(g, nil, Options{}); err == nil {
		t.Fatal("empty seed set should fail")
	}
	if _, err := Run(g, []graph.NodeID{500}, Options{}); err == nil {
		t.Fatal("out-of-range seed should fail")
	}
	if _, err := RunBatch(g, [][]graph.NodeID{{1}, {9999}}, Options{}); err == nil {
		t.Fatal("batch with out-of-range seed should fail")
	}
}

func TestOptionValidation(t *testing.T) {
	g := testGraphs(t)["er"]
	for _, opts := range []Options{
		{Damping: 1.5},
		{Damping: -0.1},
		{Epsilon: -1},
		{TopK: -1},
		{PartitionBytes: 3},
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

// TestPerRunOptionsOnOneEngine is the API contract of the pooling redesign:
// one engine answers queries with entirely different per-call parameters,
// and each answer matches a fresh stateless run with the same combined
// options.
func TestPerRunOptionsOnOneEngine(t *testing.T) {
	g := testGraphs(t)["rmat"]
	e, err := New(g, EngineOptions{PartitionBytes: 1 << 10, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	cases := []RunOptions{
		{Epsilon: 1e-6, TopK: 3},
		{Epsilon: 1e-9, Damping: 0.6, TopK: 10},
		{Epsilon: 1e-7, DenseFraction: -1}, // all-dense
		{Epsilon: 1e-7, DenseFraction: 2},  // all-sparse
		{Epsilon: 1e-8, TopK: 5, TopOnly: true},
	}
	seeds := []graph.NodeID{2, 77}
	for i, ro := range cases {
		got, err := e.Run(seeds, ro)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		want, err := Run(g, seeds, Options{
			Damping: ro.Damping, Epsilon: ro.Epsilon, TopK: ro.TopK,
			TopOnly: ro.TopOnly, DenseFraction: ro.DenseFraction,
			PartitionBytes: 1 << 10, Workers: 1,
		})
		if err != nil {
			t.Fatalf("case %d reference: %v", i, err)
		}
		if ro.TopOnly {
			if got.Scores != nil {
				t.Fatalf("case %d: TopOnly run materialized Scores", i)
			}
		} else if d := l1(got.Scores, want.Scores); d != 0 {
			t.Fatalf("case %d: pooled-engine answer diverges from fresh engine: L1 = %g", i, d)
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

// TestRunWorkersClamp pins the per-run parallelism contract: requests above
// the engine's width are clamped, zero means full width, negative is an
// error.
func TestRunWorkersClamp(t *testing.T) {
	g := testGraphs(t)["er"]
	e, err := New(g, EngineOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if e.Width() != 2 {
		t.Fatalf("Width() = %d, want 2", e.Width())
	}
	wide, err := e.Run([]graph.NodeID{1}, RunOptions{Epsilon: 1e-8, Workers: 64})
	if err != nil {
		t.Fatalf("over-wide run: %v", err)
	}
	narrow, err := e.Run([]graph.NodeID{1}, RunOptions{Epsilon: 1e-8, Workers: 1})
	if err != nil {
		t.Fatalf("narrow run: %v", err)
	}
	if d := l1(wide.Scores, narrow.Scores); d > 1e-9 {
		t.Fatalf("worker clamp changed the answer: L1 = %g", d)
	}
	if _, err := e.Run([]graph.NodeID{1}, RunOptions{Workers: -1}); err == nil {
		t.Fatal("negative per-run workers should be rejected")
	}
	if _, err := New(g, EngineOptions{Workers: -1}); err == nil {
		t.Fatal("negative engine workers should be rejected, not coerced to full width")
	}
}

// TestTruncatedFlag pins Result.Truncated: a round-capped run that could
// not reach its epsilon reports it, a converged run does not.
func TestTruncatedFlag(t *testing.T) {
	g := testGraphs(t)["er"]
	capped, err := Run(g, []graph.NodeID{0}, Options{Epsilon: 1e-9, MaxRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !capped.Truncated {
		t.Fatalf("1-round run reports converged (residual %g)", capped.ResidualL1)
	}
	if capped.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1", capped.Rounds)
	}
	full, err := Run(g, []graph.NodeID{0}, Options{Epsilon: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if full.Truncated {
		t.Fatalf("converged run (residual %g) reports truncated", full.ResidualL1)
	}
}

// BenchmarkPushSingleSeed runs default-epsilon single-seed queries on the
// serving family at its benchmark size (bench's serve_read graph), where a
// query is a handful of sparse rounds and then sweeps: rounds/op and ns/edge
// are the kernel's numbers. Edges traversed are taken as pushes × mean
// out-degree, which is exact to a few percent because almost all pushes
// happen in sweeps that push almost every vertex.
func BenchmarkPushSingleSeed(b *testing.B) {
	g, err := gen.PreferentialAttachmentMix(1<<17, 8, 0.2, 11, graph.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	e, err := New(g, EngineOptions{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	var rounds, pushes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Counting down from the newest vertex: the family's oldest few
		// reach nothing, and a -benchtime=1x smoke must run sweeps.
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

func BenchmarkBatch16(b *testing.B) {
	g, err := gen.RMAT(gen.Graph500RMAT(11, 8, 5), graph.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	sets := make([][]graph.NodeID, 16)
	for i := range sets {
		sets[i] = []graph.NodeID{graph.NodeID(i * 37 % g.NumNodes())}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunBatch(g, sets, Options{Epsilon: 1e-6}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestTopOnlySkipsScores(t *testing.T) {
	g := testGraphs(t)["er"]
	res, err := Run(g, []graph.NodeID{3}, Options{TopK: 5, TopOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scores != nil {
		t.Fatal("TopOnly result still carries Scores")
	}
	full, err := Run(g, []graph.NodeID{3}, Options{TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Top {
		if res.Top[i] != full.Top[i] {
			t.Fatalf("TopOnly Top[%d] = %+v, want %+v", i, res.Top[i], full.Top[i])
		}
	}
	if _, err := Run(g, []graph.NodeID{3}, Options{TopOnly: true}); err == nil {
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

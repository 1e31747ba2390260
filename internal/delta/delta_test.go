package delta

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// globalPR is the float64 reference: the paper's eq. 1 fixed point (dangling
// mass leaks) iterated until the L1 change drops below tol. Both the repair
// and the from-scratch side of the goldens are measured against it.
func globalPR(g *graph.Graph, damping, tol float64, maxIters int) []float64 {
	n := g.NumNodes()
	p := make([]float64, n)
	next := make([]float64, n)
	scaled := make([]float64, n)
	for i := range p {
		p[i] = 1 / float64(n)
	}
	base := (1 - damping) / float64(n)
	inOff, inAdj := g.InOffsets(), g.InAdjacency()
	outOff := g.OutOffsets()
	for it := 0; it < maxIters; it++ {
		for v := 0; v < n; v++ {
			if deg := outOff[v+1] - outOff[v]; deg > 0 {
				scaled[v] = p[v] / float64(deg)
			} else {
				scaled[v] = 0
			}
		}
		var delta float64
		for v := 0; v < n; v++ {
			var sum float64
			for _, u := range inAdj[inOff[v]:inOff[v+1]] {
				sum += scaled[u]
			}
			nv := base + damping*sum
			d := nv - p[v]
			if d < 0 {
				d = -d
			}
			delta += d
			next[v] = nv
		}
		p, next = next, p
		if delta < tol {
			break
		}
	}
	return p
}

func toFloat32(p []float64) []float32 {
	out := make([]float32, len(p))
	for i, v := range p {
		out[i] = float32(v)
	}
	return out
}

func l1Diff(a []float32, b []float64) float64 {
	var total float64
	for i := range a {
		d := float64(a[i]) - b[i]
		if d < 0 {
			d = -d
		}
		total += d
	}
	return total
}

// randomDelta draws k deletions from g's existing edges (distinct indices)
// and k insertions between uniformly random endpoints.
func randomDelta(g *graph.Graph, k int, seed uint64) EdgeDelta {
	r := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	edges := g.Edges()
	picked := make(map[int64]bool, k)
	var d EdgeDelta
	for len(d.Delete) < k && int64(len(picked)) < g.NumEdges() {
		i := r.Int64N(g.NumEdges())
		if picked[i] {
			continue
		}
		picked[i] = true
		d.Delete = append(d.Delete, edges[i])
	}
	n := g.NumNodes()
	for i := 0; i < k; i++ {
		d.Insert = append(d.Insert, graph.Edge{
			Src: graph.NodeID(r.IntN(n)),
			Dst: graph.NodeID(r.IntN(n)),
			W:   1,
		})
	}
	return d
}

// goldenFamilies builds one modest instance of each generator family, the
// same coverage discipline as the PPR goldens.
func goldenFamilies(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	families := make(map[string]*graph.Graph)
	var err error
	families["erdos-renyi"], err = gen.ErdosRenyi(2000, 16000, 11, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	families["rmat"], err = gen.RMAT(gen.Graph500RMAT(11, 8, 12), graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	families["preferential"], err = gen.PreferentialAttachmentMix(2000, 8, 0.3, 13, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	families["copying"], err = gen.Copying(gen.CopyingConfig{
		N: 2000, OutDegree: 8, CopyProb: 0.4, Locality: 0.5, PrefGlobal: 0.3, Seed: 14,
	}, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	families["dag-communities"], err = gen.DAGCommunities(gen.DAGCommunitiesConfig{
		Clusters: 16, ClusterSize: 120, IntraDegree: 4, BridgeDegree: 10, Seed: 15,
	}, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return families
}

// TestGoldenIncrementalRepair pins the tentpole contract: after a random
// insert/delete batch of at most 0.1% of the edges, the incrementally
// repaired ranks stay within 1e-6 L1 of a converged from-scratch run on the
// new graph, on every generator family.
func TestGoldenIncrementalRepair(t *testing.T) {
	const damping = 0.85
	for name, g := range goldenFamilies(t) {
		t.Run(name, func(t *testing.T) {
			k := int(g.NumEdges() / 2000) // 0.05% inserts + 0.05% deletes
			if k < 1 {
				k = 1
			}
			base := globalPR(g, damping, 1e-12, 5000)
			d := randomDelta(g, k, 99)
			res, err := Apply(g, toFloat32(base), d, Options{Damping: damping, Epsilon: 1e-9})
			if err != nil {
				t.Fatal(err)
			}
			if res.FellBack {
				t.Fatalf("repair fell back: %s (seed L1 %g)", res.Reason, res.SeedL1)
			}
			wantEdges := g.NumEdges() - int64(len(d.Delete)) + int64(len(d.Insert))
			if res.Graph.NumEdges() != wantEdges {
				t.Fatalf("rebuilt graph has %d edges, want %d", res.Graph.NumEdges(), wantEdges)
			}
			if err := res.Graph.Validate(); err != nil {
				t.Fatalf("rebuilt graph invalid: %v", err)
			}
			ref := globalPR(res.Graph, damping, 1e-12, 5000)
			if diff := l1Diff(res.Ranks, ref); diff > 1e-6 {
				t.Fatalf("repaired ranks diverge from from-scratch run: L1 %g > 1e-6 "+
					"(delta %d+%d edges, seeded %g, %d rounds)",
					diff, len(d.Insert), len(d.Delete), res.SeedL1, res.Rounds)
			}
			t.Logf("%s: %d+%d edges, seeded %.3g, %d rounds, %d pushes, final L1 %.3g",
				name, len(d.Insert), len(d.Delete), res.SeedL1, res.Rounds, res.Pushes,
				l1Diff(res.Ranks, ref))
		})
	}
}

// TestComponentScopeStaysLocal checks the structural bound on a repair's
// reach: residual flows only downstream of the changed vertices, so a delta
// confined to the last community of a DAG-of-communities graph — a sink of the
// condensation — leaves every rank outside that community bit-identical.
func TestComponentScopeStaysLocal(t *testing.T) {
	const damping = 0.85
	cfg := gen.DAGCommunitiesConfig{
		Clusters: 10, ClusterSize: 100, IntraDegree: 4, BridgeDegree: 6, Seed: 77,
	}
	g, err := gen.DAGCommunities(cfg, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	base := toFloat32(globalPR(g, damping, 1e-12, 5000))
	last := graph.NodeID(g.NumNodes() - cfg.ClusterSize)
	d := EdgeDelta{Insert: []graph.Edge{{Src: last, Dst: last + 1, W: 1}}}
	res, err := Apply(g, base, d, Options{Damping: damping, Epsilon: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if res.FellBack {
		t.Fatalf("fell back: %s", res.Reason)
	}
	for v := graph.NodeID(0); v < last; v++ {
		if res.Ranks[v] != base[v] {
			t.Fatalf("rank[%d] outside the sink community moved: %v -> %v", v, base[v], res.Ranks[v])
		}
	}
	ref := globalPR(res.Graph, damping, 1e-12, 5000)
	if diff := l1Diff(res.Ranks, ref); diff > 1e-6 {
		t.Fatalf("sink-community repair L1 %g > 1e-6", diff)
	}
}

// TestGoldenRepairTracksRepeatedDeltas applies several consecutive batches,
// repairing on top of the previous repair each time — the serving pattern —
// and checks drift does not accumulate past tolerance.
func TestGoldenRepairTracksRepeatedDeltas(t *testing.T) {
	const damping = 0.85
	g, err := gen.PreferentialAttachmentMix(1500, 8, 0.3, 21, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ranks := toFloat32(globalPR(g, damping, 1e-12, 5000))
	for round := 0; round < 5; round++ {
		d := randomDelta(g, 6, uint64(1000+round))
		res, err := Apply(g, ranks, d, Options{Damping: damping, Epsilon: 1e-9})
		if err != nil {
			t.Fatal(err)
		}
		if res.FellBack {
			t.Fatalf("round %d fell back: %s", round, res.Reason)
		}
		g, ranks = res.Graph, res.Ranks
		ref := globalPR(g, damping, 1e-12, 5000)
		if diff := l1Diff(ranks, ref); diff > 2e-6 {
			t.Fatalf("round %d: cumulative drift L1 %g > 2e-6", round, diff)
		}
	}
}

func TestRebuildErrors(t *testing.T) {
	g, err := gen.ErdosRenyi(50, 200, 3, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ranks := toFloat32(globalPR(g, 0.85, 1e-10, 1000))

	if _, err := Apply(g, ranks, EdgeDelta{}, Options{}); err == nil {
		t.Fatal("empty delta: want error")
	}
	oob := EdgeDelta{Insert: []graph.Edge{{Src: 0, Dst: 50}}}
	if _, err := Apply(g, ranks, oob, Options{}); err == nil {
		t.Fatal("out-of-range insert: want error (node growth is a re-upload, not a delta)")
	}
	oob = EdgeDelta{Delete: []graph.Edge{{Src: 99, Dst: 0}}}
	if _, err := Apply(g, ranks, oob, Options{}); err == nil {
		t.Fatal("out-of-range delete: want error")
	}
	// An absent (src,dst) pair: find one not in the graph.
	var absent graph.Edge
	found := false
	for s := 0; s < 50 && !found; s++ {
		adj := g.OutNeighbors(graph.NodeID(s))
		next := map[graph.NodeID]bool{}
		for _, v := range adj {
			next[v] = true
		}
		for dst := 0; dst < 50; dst++ {
			if !next[graph.NodeID(dst)] {
				absent = graph.Edge{Src: graph.NodeID(s), Dst: graph.NodeID(dst)}
				found = true
				break
			}
		}
	}
	if !found {
		t.Skip("graph is complete")
	}
	if _, err := Apply(g, ranks, EdgeDelta{Delete: []graph.Edge{absent}}, Options{}); err == nil {
		t.Fatal("deleting an absent edge: want error")
	}
	if _, err := Apply(g, ranks[:10], EdgeDelta{Insert: []graph.Edge{{Src: 0, Dst: 1}}}, Options{}); err == nil {
		t.Fatal("short rank vector: want error")
	}
	if _, err := Apply(g, ranks, EdgeDelta{Insert: []graph.Edge{{Src: 0, Dst: 1}}}, Options{Damping: 1.5}); err == nil {
		t.Fatal("bad damping: want error")
	}
}

func TestFallbackPaths(t *testing.T) {
	g, err := gen.PreferentialAttachmentMix(500, 6, 0.3, 5, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ranks := toFloat32(globalPR(g, 0.85, 1e-10, 2000))
	d := randomDelta(g, 4, 7)

	res, err := Apply(g, ranks, d, Options{FallbackL1: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FellBack || res.Ranks != nil {
		t.Fatalf("tiny FallbackL1: want FellBack with nil ranks, got %+v", res)
	}
	if res.Graph == nil || res.Graph.NumEdges() != g.NumEdges() {
		t.Fatalf("fallback must still return the rebuilt graph")
	}

	res, err = Apply(g, ranks, d, Options{RedistributeDangling: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FellBack {
		t.Fatal("redistribute-dangling formulation: want FellBack")
	}

	// Negative FallbackL1 disables the threshold: even a hub rewiring repairs.
	res, err = Apply(g, ranks, d, Options{FallbackL1: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.FellBack {
		t.Fatalf("FallbackL1 -1 must never fall back on threshold, got %s", res.Reason)
	}
}

func TestWeightedGraphSurvivesDelta(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddWeightedEdge(0, 1, 2.5)
	b.AddWeightedEdge(1, 2, 1.5)
	b.AddWeightedEdge(2, 3, 4.0)
	g, err := b.Build(graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ranks := toFloat32(globalPR(g, 0.85, 1e-10, 1000))
	d := EdgeDelta{
		Insert: []graph.Edge{{Src: 3, Dst: 0}}, // zero weight: defaults to 1
		Delete: []graph.Edge{{Src: 1, Dst: 2}},
	}
	res, err := Apply(g, ranks, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Graph.Weighted() {
		t.Fatal("rebuilt graph lost its weights")
	}
	if w := res.Graph.OutWeights(0); len(w) != 1 || w[0] != 2.5 {
		t.Fatalf("weight of surviving edge (0,1) = %v, want [2.5]", w)
	}
	if w := res.Graph.OutWeights(3); len(w) != 1 || w[0] != 1 {
		t.Fatalf("inserted edge weight = %v, want default [1]", w)
	}
	if res.Graph.OutDegree(1) != 0 {
		t.Fatal("deleted edge (1,2) still present")
	}
}

// TestParallelEdgesAndSelfLoops pins multigraph semantics: one delete
// removes one parallel instance, and self-loops insert like any edge.
func TestParallelEdgesAndSelfLoops(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(0, 1) // parallel
	b.AddEdge(1, 2)
	g, err := b.Build(graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ranks := toFloat32(globalPR(g, 0.85, 1e-10, 1000))
	res, err := Apply(g, ranks, EdgeDelta{
		Insert: []graph.Edge{{Src: 2, Dst: 2}},
		Delete: []graph.Edge{{Src: 0, Dst: 1}},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.OutDegree(0) != 1 {
		t.Fatalf("one parallel instance must survive, out-degree(0) = %d", res.Graph.OutDegree(0))
	}
	if res.Graph.OutDegree(2) != 1 {
		t.Fatalf("self-loop not inserted, out-degree(2) = %d", res.Graph.OutDegree(2))
	}
	ref := globalPR(res.Graph, 0.85, 1e-12, 5000)
	if diff := l1Diff(res.Ranks, ref); diff > 1e-6 {
		t.Fatalf("multigraph repair L1 %g > 1e-6", diff)
	}
}

// TestDanglingTransitions pins the two delicate seeding cases: a vertex
// losing its last out-edge (mass starts leaking) and a dangling vertex
// gaining its first (mass stops leaking).
func TestDanglingTransitions(t *testing.T) {
	g, err := gen.ErdosRenyi(300, 1200, 17, graph.BuildOptions{Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	// Find a vertex with exactly one out-edge and a dangling vertex.
	var single, dangling graph.NodeID
	foundS, foundD := false, false
	for v := 0; v < g.NumNodes(); v++ {
		switch g.OutDegree(graph.NodeID(v)) {
		case 1:
			if !foundS {
				single, foundS = graph.NodeID(v), true
			}
		case 0:
			if !foundD {
				dangling, foundD = graph.NodeID(v), true
			}
		}
	}
	if !foundS || !foundD {
		t.Skip("generator produced no degree-1 or dangling vertex")
	}
	ranks := toFloat32(globalPR(g, 0.85, 1e-12, 5000))
	d := EdgeDelta{
		Delete: []graph.Edge{{Src: single, Dst: g.OutNeighbors(single)[0]}},
		Insert: []graph.Edge{{Src: dangling, Dst: single}},
	}
	res, err := Apply(g, ranks, d, Options{Epsilon: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if res.FellBack {
		t.Fatalf("dangling transition fell back: %s", res.Reason)
	}
	ref := globalPR(res.Graph, 0.85, 1e-12, 5000)
	if diff := l1Diff(res.Ranks, ref); diff > 1e-6 {
		t.Fatalf("dangling-transition repair L1 %g > 1e-6", diff)
	}
}

// TestEngineReuse: consecutive applies recycle the push scratch inside
// internal/ppr, including after a repair on a graph of another node count,
// and every one produces exactly the ranks of the first.
func TestEngineReuse(t *testing.T) {
	g, err := gen.PreferentialAttachmentMix(800, 6, 0.3, 31, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ranks := toFloat32(globalPR(g, 0.85, 1e-12, 5000))
	d := randomDelta(g, 3, 55)
	small, err := gen.ErdosRenyi(100, 400, 2, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	smallRanks := toFloat32(globalPR(small, 0.85, 1e-12, 5000))

	first, err := Apply(g, ranks, d, Options{Epsilon: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		if _, err := Apply(small, smallRanks, randomDelta(small, 2, uint64(round)), Options{Epsilon: 1e-9}); err != nil {
			t.Fatal(err)
		}
		again, err := Apply(g, ranks, d, Options{Epsilon: 1e-9})
		if err != nil {
			t.Fatal(err)
		}
		if again.FellBack {
			t.Fatalf("round %d fell back: %s", round, again.Reason)
		}
		for i := range first.Ranks {
			if first.Ranks[i] != again.Ranks[i] {
				t.Fatalf("round %d rank[%d]: first apply %v, repeat %v", round, i, first.Ranks[i], again.Ranks[i])
			}
		}
	}
}

func TestSizeAndChanged(t *testing.T) {
	d := EdgeDelta{Insert: make([]graph.Edge, 3), Delete: make([]graph.Edge, 2)}
	if d.Size() != 5 {
		t.Fatalf("Size = %d, want 5", d.Size())
	}
	g, err := gen.ErdosRenyi(100, 400, 9, graph.BuildOptions{Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	ranks := toFloat32(globalPR(g, 0.85, 1e-10, 2000))
	// Two inserts from the same source: one changed vertex.
	res, err := Apply(g, ranks, EdgeDelta{
		Insert: []graph.Edge{{Src: 5, Dst: 9}, {Src: 5, Dst: 11}},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Changed != 1 {
		t.Fatalf("Changed = %d, want 1", res.Changed)
	}
}

func ExampleApply() {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	b.AddEdge(3, 0)
	g, _ := b.Build(graph.BuildOptions{})
	ranks := toFloat32(globalPR(g, 0.85, 1e-12, 5000))
	// On a 4-node toy graph even one edge dirties a large share of the rank
	// mass, so raise the fallback threshold; real graphs use the default.
	res, _ := Apply(g, ranks, EdgeDelta{
		Insert: []graph.Edge{{Src: 0, Dst: 3}},
	}, Options{FallbackL1: 10})
	fmt.Println(res.FellBack, res.Graph.NumEdges())
	// Output: false 5
}

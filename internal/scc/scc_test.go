package scc

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// reachLabels is the independent oracle: it labels every vertex with the
// smallest vertex it shares a component with, by brute force — u and v
// share one iff each reaches the other by forward BFS over OutNeighbors.
func reachLabels(g *graph.Graph) []int32 {
	n := g.NumNodes()
	reach := make([][]bool, n)
	for s := range reach {
		reach[s] = make([]bool, n)
		reach[s][s] = true
		queue := []graph.NodeID{graph.NodeID(s)}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, u := range g.OutNeighbors(v) {
				if !reach[s][u] {
					reach[s][u] = true
					queue = append(queue, u)
				}
			}
		}
	}
	label := make([]int32, n)
	for v := range label {
		for u := 0; u <= v; u++ {
			if reach[u][v] && reach[v][u] {
				label[v] = int32(u)
				break
			}
		}
	}
	return label
}

// samePartition reports whether two component maps induce the same
// partition of the vertex set (ids may differ).
func samePartition(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	fwd := map[int32]int32{}
	bwd := map[int32]int32{}
	for v := range a {
		if m, ok := fwd[a[v]]; ok && m != b[v] {
			return false
		}
		if m, ok := bwd[b[v]]; ok && m != a[v] {
			return false
		}
		fwd[a[v]], bwd[b[v]] = b[v], a[v]
	}
	return true
}

// testGraphs builds one instance of every generator family plus the
// component-rich DAG-of-communities family.
func testGraphs(t testing.TB) map[string]*graph.Graph {
	t.Helper()
	graphs := map[string]*graph.Graph{}
	var err error
	graphs["er"], err = gen.ErdosRenyi(800, 4800, 7, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	graphs["rmat"], err = gen.RMAT(gen.Graph500RMAT(9, 8, 3), graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	graphs["pa"], err = gen.PreferentialAttachmentMix(600, 6, 0.3, 11, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	graphs["copying"], err = gen.Copying(gen.CopyingConfig{
		N: 700, OutDegree: 5, CopyProb: 0.4, Locality: 0.6, Seed: 13,
	}, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	graphs["dag-communities"], err = gen.DAGCommunities(gen.DAGCommunitiesConfig{
		Clusters: 12, ClusterSize: 40, IntraDegree: 2, BridgeDegree: 5, Seed: 17,
	}, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return graphs
}

// checkDecompose asserts what every decomposition must satisfy: Comp is
// dense in [0, NumComps), induces the oracle's partition, and numbers
// components in emission order — every cross-component edge u→v has
// Comp[u] > Comp[v].
func checkDecompose(t *testing.T, g *graph.Graph, r *Result) {
	t.Helper()
	n := g.NumNodes()
	if len(r.Comp) != n {
		t.Fatalf("Comp has %d entries for %d nodes", len(r.Comp), n)
	}
	used := make([]bool, r.NumComps)
	for v, c := range r.Comp {
		if c < 0 || int(c) >= r.NumComps {
			t.Fatalf("vertex %d in component %d outside [0, %d)", v, c, r.NumComps)
		}
		used[c] = true
	}
	for c, ok := range used {
		if !ok {
			t.Fatalf("component id %d has no members", c)
		}
	}
	if !samePartition(r.Comp, reachLabels(g)) {
		t.Fatal("partition differs from mutual reachability")
	}
	for v := 0; v < n; v++ {
		for _, u := range g.OutNeighbors(graph.NodeID(v)) {
			if cu, cv := r.Comp[v], r.Comp[u]; cu < cv {
				t.Fatalf("edge %d->%d violates emission order (%d -> %d)", v, u, cu, cv)
			}
		}
	}
}

func TestDecomposeMatchesReachabilityOnAllFamilies(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			checkDecompose(t, g, Decompose(g, 0))
		})
	}
}

func TestDecomposeAdversarialCases(t *testing.T) {
	mk := func(n int, edges []graph.Edge) *graph.Graph {
		g, err := graph.FromEdges(n, edges, false, graph.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	t.Run("empty graph", func(t *testing.T) {
		g := mk(0, nil)
		r := Decompose(g, 0)
		checkDecompose(t, g, r)
		if r.NumComps != 0 || r.LargestComponent() != 0 {
			t.Fatalf("empty graph: %d comps, largest %d", r.NumComps, r.LargestComponent())
		}
	})
	t.Run("fully disconnected", func(t *testing.T) {
		g := mk(100, nil)
		r := Decompose(g, 0)
		checkDecompose(t, g, r)
		if r.NumComps != 100 || r.LargestComponent() != 1 {
			t.Fatalf("disconnected: comps=%d largest=%d", r.NumComps, r.LargestComponent())
		}
	})
	t.Run("self-loops only", func(t *testing.T) {
		edges := []graph.Edge{{Src: 0, Dst: 0}, {Src: 1, Dst: 1}, {Src: 2, Dst: 2}}
		g := mk(3, edges)
		r := Decompose(g, 0)
		checkDecompose(t, g, r)
		if r.NumComps != 3 {
			t.Fatalf("self-loops merged: %d comps", r.NumComps)
		}
	})
	t.Run("self-loops and parallel edges", func(t *testing.T) {
		// 0⇉1 twice, 1→2 three times, 2→1 and self-loops on 0 and 2:
		// components {0} and {1, 2}.
		edges := []graph.Edge{{Src: 0, Dst: 0}, {Src: 0, Dst: 1}, {Src: 0, Dst: 1},
			{Src: 1, Dst: 2}, {Src: 1, Dst: 2}, {Src: 1, Dst: 2}, {Src: 2, Dst: 1}, {Src: 2, Dst: 2}}
		g := mk(3, edges)
		r := Decompose(g, 0)
		checkDecompose(t, g, r)
		if r.NumComps != 2 || r.LargestComponent() != 2 {
			t.Fatalf("comps=%d largest=%d, want 2/2", r.NumComps, r.LargestComponent())
		}
	})
	t.Run("one giant SCC", func(t *testing.T) {
		var edges []graph.Edge
		n := 2000
		for v := 0; v < n; v++ {
			edges = append(edges, graph.Edge{Src: graph.NodeID(v), Dst: graph.NodeID((v + 1) % n)})
			edges = append(edges, graph.Edge{Src: graph.NodeID(v), Dst: graph.NodeID((v * 7) % n)})
		}
		g := mk(n, edges)
		r := Decompose(g, 0)
		checkDecompose(t, g, r)
		if r.NumComps != 1 || r.LargestComponent() != n {
			t.Fatalf("giant SCC split: %d comps, largest %d", r.NumComps, r.LargestComponent())
		}
	})
	t.Run("chain of 2-cycles", func(t *testing.T) {
		// A linearly deep condensation: the DFS frame stack reaches the
		// whole chain before the first component is emitted.
		var edges []graph.Edge
		pairs := 400
		for p := 0; p < pairs; p++ {
			a, b := graph.NodeID(2*p), graph.NodeID(2*p+1)
			edges = append(edges, graph.Edge{Src: a, Dst: b}, graph.Edge{Src: b, Dst: a})
			if p+1 < pairs {
				edges = append(edges, graph.Edge{Src: b, Dst: graph.NodeID(2 * (p + 1))})
			}
		}
		g := mk(2*pairs, edges)
		r := Decompose(g, 0)
		checkDecompose(t, g, r)
		if r.NumComps != pairs || r.LargestComponent() != 2 {
			t.Fatalf("chain: comps=%d largest=%d, want %d/2", r.NumComps, r.LargestComponent(), pairs)
		}
	})
}

func TestComputeStats(t *testing.T) {
	g, err := gen.DAGCommunities(gen.DAGCommunitiesConfig{
		Clusters: 5, ClusterSize: 20, IntraDegree: 1, BridgeDegree: 3, Seed: 2,
	}, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := ComputeStats(g)
	if s.Components != 5 || s.LargestComponent != 20 {
		t.Fatalf("stats: components=%d largest=%d, want 5/20", s.Components, s.LargestComponent)
	}
	if s.Nodes != 100 {
		t.Fatalf("base stats missing: nodes=%d", s.Nodes)
	}
}

// TestComputeStatsMatchesDecompose holds the count-only form to the full
// one: same stats as StatsFor over a Decompose, on every family and the
// degenerate shapes.
func TestComputeStatsMatchesDecompose(t *testing.T) {
	graphs := testGraphs(t)
	mk := func(n int, edges []graph.Edge) *graph.Graph {
		g, err := graph.FromEdges(n, edges, false, graph.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	graphs["empty"] = mk(0, nil)
	graphs["all-singletons"] = mk(100, nil)
	cycle := make([]graph.Edge, 3000)
	for v := range cycle {
		cycle[v] = graph.Edge{Src: graph.NodeID(v), Dst: graph.NodeID((v + 1) % len(cycle))}
	}
	graphs["giant-cycle"] = mk(len(cycle), cycle)
	for name, g := range graphs {
		if got, want := ComputeStats(g), StatsFor(g, Decompose(g, 0)); got != want {
			t.Errorf("%s: ComputeStats = %+v, StatsFor(Decompose) = %+v", name, got, want)
		}
	}
	if s := ComputeStats(graphs["giant-cycle"]); s.Components != 1 || s.LargestComponent != len(cycle) {
		t.Errorf("giant cycle: %d components, largest %d", s.Components, s.LargestComponent)
	}
	if s := ComputeStats(graphs["all-singletons"]); s.Components != 100 || s.LargestComponent != 1 {
		t.Errorf("singletons: %d components, largest %d", s.Components, s.LargestComponent)
	}
}

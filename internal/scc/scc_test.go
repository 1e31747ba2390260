package scc

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// tarjanRef is the sequential reference decomposition: iterative Tarjan
// with an explicit stack, returning a vertex -> component map (ids
// arbitrary). The parallel FW-BW result must induce the same partition.
func tarjanRef(g *graph.Graph) []int32 {
	n := g.NumNodes()
	const undef = int32(-1)
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	comp := make([]int32, n)
	for i := range index {
		index[i], comp[i] = undef, undef
	}
	var stack []graph.NodeID
	var next, nextComp int32

	type frame struct {
		v  graph.NodeID
		ei int64
	}
	for root := 0; root < n; root++ {
		if index[root] != undef {
			continue
		}
		call := []frame{{v: graph.NodeID(root)}}
		index[root], low[root] = next, next
		next++
		stack = append(stack, graph.NodeID(root))
		onStack[root] = true
		for len(call) > 0 {
			f := &call[len(call)-1]
			adj := g.OutNeighbors(f.v)
			if f.ei < int64(len(adj)) {
				u := adj[f.ei]
				f.ei++
				if index[u] == undef {
					index[u], low[u] = next, next
					next++
					stack = append(stack, u)
					onStack[u] = true
					call = append(call, frame{v: u})
				} else if onStack[u] && index[u] < low[f.v] {
					low[f.v] = index[u]
				}
				continue
			}
			v := f.v
			call = call[:len(call)-1]
			if len(call) > 0 {
				p := call[len(call)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = nextComp
					if w == v {
						break
					}
				}
				nextComp++
			}
		}
	}
	return comp
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

// checkInvariants asserts the structural properties every decomposition
// must satisfy: a true partition, component-internal strong connectivity
// implied by the Tarjan cross-check elsewhere, topological numbering, and
// levels that respect edge direction.
func checkInvariants(t *testing.T, g *graph.Graph, r *Result) {
	t.Helper()
	n := g.NumNodes()
	if len(r.Comp) != n {
		t.Fatalf("Comp has %d entries for %d nodes", len(r.Comp), n)
	}
	// Every vertex is in exactly one component: Comp in range and the
	// member lists partition the vertex set.
	seen := make([]bool, n)
	if int(r.CompOff[r.NumComps]) != n {
		t.Fatalf("member lists cover %d of %d vertices", r.CompOff[r.NumComps], n)
	}
	for c := int32(0); c < int32(r.NumComps); c++ {
		prev := -1
		for _, v := range r.Members(c) {
			if seen[v] {
				t.Fatalf("vertex %d in two components", v)
			}
			seen[v] = true
			if r.Comp[v] != c {
				t.Fatalf("member list / comp map disagree at vertex %d", v)
			}
			if int(v) <= prev {
				t.Fatalf("component %d member list not ascending", c)
			}
			prev = int(v)
		}
	}
	// Levels respect edge direction, and numbering is topological.
	for v := 0; v < n; v++ {
		cu := r.Comp[v]
		for _, u := range g.OutNeighbors(graph.NodeID(v)) {
			cv := r.Comp[u]
			if cu == cv {
				continue
			}
			if cu > cv {
				t.Fatalf("edge %d->%d violates topological numbering (%d -> %d)", v, u, cu, cv)
			}
			if r.Level[cu] >= r.Level[cv] {
				t.Fatalf("edge %d->%d violates levels (%d -> %d)", v, u, r.Level[cu], r.Level[cv])
			}
		}
	}
	// Levels group exactly the components, acyclicity follows from the
	// strictly increasing level along every condensation edge.
	total := 0
	for l, comps := range r.Levels {
		total += len(comps)
		for _, c := range comps {
			if int(r.Level[c]) != l {
				t.Fatalf("component %d listed at level %d but Level says %d", c, l, r.Level[c])
			}
		}
	}
	if total != r.NumComps {
		t.Fatalf("levels hold %d components, want %d", total, r.NumComps)
	}
	// Condensation adjacency matches the comp map and is deduplicated.
	for c := int32(0); c < int32(r.NumComps); c++ {
		succ := r.Succ(c)
		for i, s := range succ {
			if i > 0 && succ[i-1] >= s {
				t.Fatalf("component %d successors not strictly ascending: %v", c, succ)
			}
			if s <= c {
				t.Fatalf("condensation edge %d->%d not forward", c, s)
			}
		}
	}
}

func TestDecomposeMatchesTarjanOnAllFamilies(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			r := Decompose(g, 4)
			checkInvariants(t, g, r)
			if !samePartition(r.Comp, tarjanRef(g)) {
				t.Fatal("FW-BW partition differs from Tarjan reference")
			}
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
		r := Decompose(mk(0, nil), 4)
		if r.NumComps != 0 || len(r.Levels) != 0 {
			t.Fatalf("empty graph: %d comps, %d levels", r.NumComps, len(r.Levels))
		}
	})
	t.Run("fully disconnected", func(t *testing.T) {
		g := mk(100, nil)
		r := Decompose(g, 4)
		checkInvariants(t, g, r)
		if r.NumComps != 100 || r.LargestComponent() != 1 || len(r.Levels) != 1 {
			t.Fatalf("disconnected: comps=%d largest=%d levels=%d",
				r.NumComps, r.LargestComponent(), len(r.Levels))
		}
	})
	t.Run("self-loops only", func(t *testing.T) {
		edges := []graph.Edge{{Src: 0, Dst: 0}, {Src: 1, Dst: 1}, {Src: 2, Dst: 2}}
		g := mk(3, edges)
		r := Decompose(g, 4)
		checkInvariants(t, g, r)
		if r.NumComps != 3 {
			t.Fatalf("self-loops merged: %d comps", r.NumComps)
		}
	})
	t.Run("one giant SCC", func(t *testing.T) {
		var edges []graph.Edge
		n := 5000
		for v := 0; v < n; v++ {
			edges = append(edges, graph.Edge{Src: graph.NodeID(v), Dst: graph.NodeID((v + 1) % n)})
			edges = append(edges, graph.Edge{Src: graph.NodeID(v), Dst: graph.NodeID((v * 7) % n)})
		}
		g := mk(n, edges)
		r := Decompose(g, 8)
		checkInvariants(t, g, r)
		if r.NumComps != 1 || r.LargestComponent() != n {
			t.Fatalf("giant SCC split: %d comps, largest %d", r.NumComps, r.LargestComponent())
		}
	})
	t.Run("chain of 2-cycles", func(t *testing.T) {
		// No trimming possible and linearly deep condensation: the
		// worst case for the FW-BW recursion's explicit stack.
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
		r := Decompose(g, 4)
		checkInvariants(t, g, r)
		if r.NumComps != pairs || len(r.Levels) != pairs {
			t.Fatalf("chain: comps=%d levels=%d, want %d/%d", r.NumComps, len(r.Levels), pairs, pairs)
		}
		if !samePartition(r.Comp, tarjanRef(g)) {
			t.Fatal("chain partition differs from Tarjan")
		}
	})
}

// TestDecomposeDeterministicAcrossWorkerCounts pins the renumbering
// contract: the result is identical regardless of scheduling.
func TestDecomposeDeterministicAcrossWorkerCounts(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			base := Decompose(g, 1)
			for _, workers := range []int{2, 4, 8} {
				r := Decompose(g, workers)
				if r.NumComps != base.NumComps {
					t.Fatalf("workers=%d: %d comps vs %d", workers, r.NumComps, base.NumComps)
				}
				for v := range r.Comp {
					if r.Comp[v] != base.Comp[v] {
						t.Fatalf("workers=%d: comp[%d] = %d vs %d", workers, v, r.Comp[v], base.Comp[v])
					}
				}
			}
		})
	}
}

// TestDecomposeParallelRace drives the worker pool hard; run under -race
// (CI does) to certify the disjoint-ownership argument.
func TestDecomposeParallelRace(t *testing.T) {
	g, err := gen.DAGCommunities(gen.DAGCommunitiesConfig{
		Clusters: 32, ClusterSize: 64, IntraDegree: 3, BridgeDegree: 8, Seed: 23,
	}, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		r := Decompose(g, 8)
		if r.NumComps != 32 {
			t.Fatalf("run %d: %d comps, want 32", i, r.NumComps)
		}
	}
}

func TestComputeStats(t *testing.T) {
	g, err := gen.DAGCommunities(gen.DAGCommunitiesConfig{
		Clusters: 5, ClusterSize: 20, IntraDegree: 1, BridgeDegree: 3, Seed: 2,
	}, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := ComputeStats(g, 2)
	if s.Components != 5 || s.LargestComponent != 20 {
		t.Fatalf("stats: components=%d largest=%d, want 5/20", s.Components, s.LargestComponent)
	}
	if s.Nodes != 100 {
		t.Fatalf("base stats missing: nodes=%d", s.Nodes)
	}
}

// TestComputeStatsMatchesDecompose holds the count-only finish to the full
// one: same stats as StatsFor over a Decompose, on every family and the
// degenerate shapes, through both partition paths (Tarjan at one worker,
// FW-BW at two).
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
		for _, workers := range []int{1, 2} {
			want := StatsFor(g, Decompose(g, workers))
			if got := ComputeStats(g, workers); got != want {
				t.Errorf("%s, %d workers: ComputeStats = %+v, StatsFor(Decompose) = %+v", name, workers, got, want)
			}
		}
	}
	if s := ComputeStats(graphs["giant-cycle"], 1); s.Components != 1 || s.LargestComponent != len(cycle) {
		t.Errorf("giant cycle: %d components, largest %d", s.Components, s.LargestComponent)
	}
	if s := ComputeStats(graphs["all-singletons"], 2); s.Components != 100 || s.LargestComponent != 1 {
		t.Errorf("singletons: %d components, largest %d", s.Components, s.LargestComponent)
	}
}

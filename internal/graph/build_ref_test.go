package graph_test

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// refBuild is the sequential reference for the builder: check ranges in
// input order, drop loops if asked, stable-sort by (source, destination) so
// parallel edges keep their input order, collapse duplicates summing their
// weights in input order if asked, then count offsets.
func refBuild(n int, edges []graph.Edge, weighted bool, opts graph.BuildOptions) (*graph.Graph, error) {
	var kept []graph.Edge
	for _, e := range edges {
		if int(e.Src) >= n || int(e.Dst) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range for %d nodes", e.Src, e.Dst, n)
		}
		if !opts.DropSelfLoops || e.Src != e.Dst {
			kept = append(kept, e)
		}
	}
	slices.SortStableFunc(kept, func(a, b graph.Edge) int {
		return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst))
	})
	if opts.Dedup {
		out := kept[:0]
		for _, e := range kept {
			if k := len(out); k > 0 && out[k-1].Src == e.Src && out[k-1].Dst == e.Dst {
				out[k-1].W += e.W
				continue
			}
			out = append(out, e)
		}
		kept = out
	}
	off := make([]int64, n+1)
	adj := make([]graph.NodeID, len(kept))
	var w []float32
	if weighted {
		w = make([]float32, len(kept))
	}
	for i, e := range kept {
		off[e.Src+1]++
		adj[i] = e.Dst
		if weighted {
			w[i] = e.W
		}
	}
	for v := range n {
		off[v+1] += off[v]
	}
	return graph.NewCSRForTest(n, off, adj, w), nil
}

// refTranspose is the sequential reference for the in-adjacency: every
// source appended to its destinations' lists in source order.
func refTranspose(g *graph.Graph) (off []int64, adj []graph.NodeID) {
	n := g.NumNodes()
	in := make([][]graph.NodeID, n)
	for v := range n {
		for _, u := range g.OutNeighbors(graph.NodeID(v)) {
			in[u] = append(in[u], graph.NodeID(v))
		}
	}
	off = make([]int64, n+1)
	for v, l := range in {
		off[v+1] = off[v] + int64(len(l))
		adj = append(adj, l...)
	}
	return off, adj
}

// sameGraph fails unless got is Equal to want with bit-identical weights:
// Equal alone forgives a 1e-6 weight difference, and the order in which
// parallel edges' weights land or are summed is part of the contract.
func sameGraph(t *testing.T, name string, got, want *graph.Graph) {
	t.Helper()
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !got.Equal(want) {
		t.Fatalf("%s: build differs from the reference (n %d/%d, m %d/%d)", name,
			got.NumNodes(), want.NumNodes(), got.NumEdges(), want.NumEdges())
	}
	for v := range got.NumNodes() {
		gw, ww := got.OutWeights(graph.NodeID(v)), want.OutWeights(graph.NodeID(v))
		for i := range gw {
			if math.Float32bits(gw[i]) != math.Float32bits(ww[i]) {
				t.Fatalf("%s: weight %d of node %d is %v, reference %v", name, i, v, gw[i], ww[i])
			}
		}
	}
}

// forEachProcs runs fn at GOMAXPROCS 1, 2, 3 and 8: the build's chunks and
// workers follow it, and its output must not.
func forEachProcs(t *testing.T, fn func(t *testing.T)) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, p := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(p)
		t.Run(fmt.Sprintf("procs%d", p), fn)
	}
}

// refFamilies are the five generator families and the benchmark's three
// graph families (web, its scattered relabelling, social), at a size that
// spans several key blocks of the build.
func refFamilies(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	n := 20_000
	if testing.Short() {
		n = 6_000
	}
	var opts graph.BuildOptions
	fams := map[string]func() (*graph.Graph, error){
		"erdos-renyi": func() (*graph.Graph, error) { return gen.ErdosRenyi(n, int64(5*n), 11, opts) },
		"rmat":        func() (*graph.Graph, error) { return gen.RMAT(gen.Graph500RMAT(bits.Len(uint(n)), 4, 12), opts) },
		"preferential": func() (*graph.Graph, error) {
			return gen.PreferentialAttachmentMix(n, 4, 0.3, 13, opts)
		},
		"copying": func() (*graph.Graph, error) {
			return gen.Copying(gen.CopyingConfig{N: n, OutDegree: 4, CopyProb: 0.4, Locality: 0.5, PrefGlobal: 0.3, Seed: 14}, opts)
		},
		"dag-communities": func() (*graph.Graph, error) {
			return gen.DAGCommunities(gen.DAGCommunitiesConfig{
				Clusters: n / 100, ClusterSize: 100, IntraDegree: 3, BridgeDegree: 10, Seed: 15,
			}, opts)
		},
		"bench-web": func() (*graph.Graph, error) {
			return gen.Copying(gen.CopyingConfig{N: n, OutDegree: 8, CopyProb: 0.5, Locality: 0.99, Window: 64, Seed: 42}, opts)
		},
		"bench-social": func() (*graph.Graph, error) { return gen.PreferentialAttachmentMix(n, 8, 0.2, 42, opts) },
	}
	out := make(map[string]*graph.Graph, len(fams)+1)
	for name, build := range fams {
		g, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = g
	}
	web := out["bench-web"]
	perm := gen.RandomPermutation(web.NumNodes(), 42)
	edges := web.Edges()
	for i := range edges {
		edges[i].Src, edges[i].Dst = perm[edges[i].Src], perm[edges[i].Dst]
	}
	scattered, err := graph.FromEdges(web.NumNodes(), edges, false, opts)
	if err != nil {
		t.Fatal(err)
	}
	out["bench-scattered"] = scattered
	return out
}

// shuffled returns g's edges in a seeded random order, so every build below
// sees sources out of order and duplicates split across chunks.
func shuffled(g *graph.Graph, seed uint64) []graph.Edge {
	edges := g.Edges()
	rand.New(rand.NewPCG(seed, 3)).Shuffle(len(edges), func(i, j int) {
		edges[i], edges[j] = edges[j], edges[i]
	})
	return edges
}

var allBuildOptions = []graph.BuildOptions{
	{}, {DropSelfLoops: true}, {Dedup: true}, {DropSelfLoops: true, Dedup: true},
}

// TestBuildMatchesReference holds FromEdges and Builder.Build to refBuild on
// every family under every option combination, at every worker count.
func TestBuildMatchesReference(t *testing.T) {
	type build struct {
		label string
		n     int
		edges []graph.Edge
		opts  graph.BuildOptions
		want  *graph.Graph
	}
	var builds []build
	for name, g := range refFamilies(t) {
		edges := shuffled(g, 1)
		for _, opts := range allBuildOptions {
			want, _ := refBuild(g.NumNodes(), edges, false, opts)
			builds = append(builds, build{fmt.Sprintf("%s %+v", name, opts), g.NumNodes(), edges, opts, want})
		}
	}
	forEachProcs(t, func(t *testing.T) {
		for _, c := range builds {
			got, err := graph.FromEdges(c.n, c.edges, false, c.opts)
			if err != nil {
				t.Fatalf("%s: %v", c.label, err)
			}
			sameGraph(t, c.label, got, c.want)
			if c.opts != (graph.BuildOptions{}) {
				continue // Build is FromEdges on the builder's buffer; once per family will do
			}
			b := graph.NewBuilder(c.n)
			b.AddEdges(c.edges, false)
			built, err := b.Build(c.opts)
			if err != nil {
				t.Fatalf("%s: Builder: %v", c.label, err)
			}
			sameGraph(t, c.label+" Builder", built, c.want)
		}
	})
}

// TestBuildWeightedReference gives parallel edges distinct weights of
// mixed magnitude: without Dedup they must keep their input order, with it
// their sum must be taken in input order, bit for bit. Self-loops are
// common, so DropSelfLoops is exercised too.
func TestBuildWeightedReference(t *testing.T) {
	const n, m = 10_000, 60_000
	rng := rand.New(rand.NewPCG(7, 7))
	edges := make([]graph.Edge, m)
	for i := range edges {
		src := graph.NodeID(rng.IntN(n))
		dst := src + graph.NodeID(rng.IntN(3)) // every third edge a loop, many duplicates
		if int(dst) >= n {
			dst = 0
		}
		edges[i] = graph.Edge{Src: src, Dst: dst, W: float32(math.Ldexp(rng.Float64()+0.5, rng.IntN(40)-20))}
	}
	input := slices.Clone(edges)
	wants := make([]*graph.Graph, len(allBuildOptions))
	for i, opts := range allBuildOptions {
		wants[i], _ = refBuild(n, edges, true, opts)
	}
	forEachProcs(t, func(t *testing.T) {
		for i, opts := range allBuildOptions {
			got, err := graph.FromEdges(n, edges, true, opts)
			if err != nil {
				t.Fatal(err)
			}
			sameGraph(t, fmt.Sprintf("weighted %+v", opts), got, wants[i])
		}
	})
	if !slices.Equal(edges, input) {
		t.Fatal("FromEdges wrote to its input")
	}
}

// TestBuildEdgeCasesReference covers the shapes with nothing or little in
// them, and the error for an out-of-range edge: the first one in input
// order is reported, whichever chunk holds it.
func TestBuildEdgeCasesReference(t *testing.T) {
	type tc struct {
		name  string
		n     int
		edges []graph.Edge
	}
	cases := []tc{
		{"n=0", 0, nil},
		{"m=0", 5000, nil},
		{"trailing isolated", 12_000, []graph.Edge{{Src: 3, Dst: 1}, {Src: 0, Dst: 3}, {Src: 3, Dst: 0}, {Src: 1, Dst: 1}}},
		{"last node only", 8193, []graph.Edge{{Src: 8192, Dst: 8192}, {Src: 8192, Dst: 0}}},
	}
	var bad []graph.Edge
	for i := range 9000 {
		bad = append(bad, graph.Edge{Src: graph.NodeID(i % 100), Dst: graph.NodeID(i % 97), W: 1})
	}
	bad[5000] = graph.Edge{Src: 7, Dst: 100}
	bad[8000] = graph.Edge{Src: 100, Dst: 7}
	cases = append(cases, tc{"out of range", 100, bad}, tc{"edge on empty graph", 0, []graph.Edge{{}}})
	forEachProcs(t, func(t *testing.T) {
		for _, c := range cases {
			for _, opts := range allBuildOptions {
				label := fmt.Sprintf("%s %+v", c.name, opts)
				want, wantErr := refBuild(c.n, c.edges, false, opts)
				got, err := graph.FromEdges(c.n, c.edges, false, opts)
				if wantErr != nil {
					if err == nil || err.Error() != wantErr.Error() {
						t.Fatalf("%s: error %v, want %v", label, err, wantErr)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				sameGraph(t, label, got, want)
			}
		}
	})
}

// TestTransposeMatchesReference holds the lazily built in-adjacency to
// refTranspose on every family at every worker count; each count gets a
// fresh graph, since a graph builds its transpose once.
func TestTransposeMatchesReference(t *testing.T) {
	fams := refFamilies(t)
	type ref struct {
		off []int64
		adj []graph.NodeID
	}
	refs := make(map[string]ref, len(fams))
	for name, g := range fams {
		off, adj := refTranspose(g)
		refs[name] = ref{off, adj}
	}
	forEachProcs(t, func(t *testing.T) {
		for name, g := range fams {
			fresh, err := g.RowBlock(0, graph.NodeID(g.NumNodes()))
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(fresh.InOffsets(), refs[name].off) || !slices.Equal(fresh.InAdjacency(), refs[name].adj) {
				t.Fatalf("%s: transpose differs from the reference", name)
			}
		}
	})
}

// TestEdgesReference checks Edges, which fills by offset in parallel,
// against a sequential walk of the out-lists at every worker count.
func TestEdgesReference(t *testing.T) {
	g, err := gen.WithUniformWeights(refFamilies(t)["rmat"], 0.5, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	var want []graph.Edge
	for v := range g.NumNodes() {
		ws := g.OutWeights(graph.NodeID(v))
		for i, u := range g.OutNeighbors(graph.NodeID(v)) {
			want = append(want, graph.Edge{Src: graph.NodeID(v), Dst: u, W: ws[i]})
		}
	}
	forEachProcs(t, func(t *testing.T) {
		if !slices.Equal(g.Edges(), want) {
			t.Fatal("Edges differs from a sequential walk of the out-lists")
		}
	})
}

package graph

import (
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"
	"unsafe"
)

// randomGraphForPatch builds a small random multigraph (parallel edges and
// self-loops allowed, like real ingest).
func randomGraphForPatch(t *testing.T, n, m int, seed uint64) (*Graph, []Edge) {
	t.Helper()
	r := rand.New(rand.NewPCG(seed, 99))
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{Src: NodeID(r.IntN(n)), Dst: NodeID(r.IntN(n)), W: 1}
	}
	g, err := FromEdges(n, edges, false, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return g, g.Edges()
}

// TestPatchMatchesRebuild pins Patch against the builder path: splicing the
// changed ranges must produce exactly the graph a from-scratch rebuild of
// the edited edge list produces.
func TestPatchMatchesRebuild(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 13))
	for trial := 0; trial < 20; trial++ {
		n := 20 + r.IntN(200)
		g, edges := randomGraphForPatch(t, n, 4*n, uint64(trial))

		// Sample deletions from existing edges, insertions at random.
		var ins, del []Edge
		picked := map[int]bool{}
		for len(del) < 5 {
			i := r.IntN(len(edges))
			if picked[i] {
				continue
			}
			picked[i] = true
			del = append(del, edges[i])
		}
		for i := 0; i < 7; i++ {
			ins = append(ins, Edge{Src: NodeID(r.IntN(n)), Dst: NodeID(r.IntN(n)), W: 1})
		}

		got, err := Patch(g, ins, del)
		if err != nil {
			t.Fatal(err)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("patched graph invalid: %v", err)
		}

		kept := make([]Edge, 0, len(edges))
		remove := map[uint64]int{}
		for _, e := range del {
			remove[uint64(e.Src)<<32|uint64(e.Dst)]++
		}
		for _, e := range edges {
			if k := uint64(e.Src)<<32 | uint64(e.Dst); remove[k] > 0 {
				remove[k]--
				continue
			}
			kept = append(kept, e)
		}
		kept = append(kept, ins...)
		want, err := FromEdges(n, kept, false, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("trial %d: patched graph differs from rebuilt graph", trial)
		}
	}
}

func TestPatchErrors(t *testing.T) {
	g, _ := randomGraphForPatch(t, 10, 30, 1)
	if _, err := Patch(g, nil, nil); err == nil {
		t.Fatal("empty patch: want error")
	}
	if _, err := Patch(g, []Edge{{Src: 10, Dst: 0}}, nil); err == nil {
		t.Fatal("out-of-range insert: want error")
	}
	if _, err := Patch(g, nil, []Edge{{Src: 0, Dst: 10}}); err == nil {
		t.Fatal("out-of-range delete: want error")
	}
	// Find an absent pair.
	for s := 0; s < 10; s++ {
		present := map[NodeID]bool{}
		for _, d := range g.OutNeighbors(NodeID(s)) {
			present[d] = true
		}
		for d := 0; d < 10; d++ {
			if !present[NodeID(d)] {
				if _, err := Patch(g, nil, []Edge{{Src: NodeID(s), Dst: NodeID(d)}}); err == nil {
					t.Fatal("absent-edge delete: want error")
				}
				return
			}
		}
	}
}

func TestPatchWeighted(t *testing.T) {
	b := NewBuilder(4)
	b.AddWeightedEdge(0, 1, 2.0)
	b.AddWeightedEdge(0, 1, 3.0) // parallel, different weight
	b.AddWeightedEdge(1, 2, 5.0)
	g, err := b.Build(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ng, err := Patch(g,
		[]Edge{{Src: 2, Dst: 3}}, // zero weight defaults to 1
		[]Edge{{Src: 0, Dst: 1}}) // removes one parallel instance
	if err != nil {
		t.Fatal(err)
	}
	if err := ng.Validate(); err != nil {
		t.Fatalf("patched weighted graph invalid: %v", err)
	}
	if ng.OutDegree(0) != 1 {
		t.Fatalf("out-degree(0) = %d, want 1 surviving parallel instance", ng.OutDegree(0))
	}
	// The surviving instance keeps a weight from the original pair.
	if w := ng.OutWeights(0)[0]; w != 2.0 && w != 3.0 {
		t.Fatalf("surviving weight = %v, want 2.0 or 3.0", w)
	}
	if w := ng.OutWeights(2); len(w) != 1 || w[0] != 1.0 {
		t.Fatalf("inserted edge weights = %v, want [1] (zero weight defaults to 1)", w)
	}
	if w := ng.OutWeights(1); len(w) != 1 || w[0] != 5.0 {
		t.Fatalf("untouched out-weights(1) = %v, want [5]", w)
	}
}

// checkPatchAgainstRebuild patches g and holds the result to FromEdges over
// the edited edge list: offsets, adjacency and, on a weighted graph,
// weights.
func checkPatchAgainstRebuild(t *testing.T, g *Graph, weighted bool, ins, del []Edge) *Graph {
	t.Helper()
	got, err := Patch(g, ins, del)
	if err != nil {
		t.Fatalf("Patch(ins %v, del %v): %v", ins, del, err)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("patched graph invalid: %v", err)
	}
	remove := map[uint64]int{}
	for _, e := range del {
		remove[uint64(e.Src)<<32|uint64(e.Dst)]++
	}
	var kept []Edge
	for _, e := range g.Edges() {
		if k := uint64(e.Src)<<32 | uint64(e.Dst); remove[k] > 0 {
			remove[k]--
			continue
		}
		kept = append(kept, e)
	}
	want, err := FromEdges(g.NumNodes(), append(kept, ins...), weighted, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("Patch(ins %v, del %v) differs from the rebuilt graph", ins, del)
	}
	return got
}

// TestPatchSpans aims at the seams of the span copy in Patch: changed
// vertices next to each other and at both ends of the ID range, lists that
// become or stop being empty, parallel edges, then random batches, each on
// an unweighted and a weighted graph.
func TestPatchSpans(t *testing.T) {
	const n = 48
	for _, weighted := range []bool{false, true} {
		// A weight is a function of the pair, so parallel instances are
		// interchangeable and instance order cannot make two graphs differ.
		edge := func(src, dst int) Edge {
			e := Edge{Src: NodeID(src), Dst: NodeID(dst), W: 1}
			if weighted {
				e.W = float32(1 + (src*31+dst)%7)
			}
			return e
		}
		r := rand.New(rand.NewPCG(24, 1))
		var edges []Edge
		for v := 0; v < n; v++ {
			if v == 5 || v == 6 || v == 20 { // 5, 6 and 20 start with empty out-lists
				continue
			}
			for range 1 + r.IntN(5) {
				dst := r.IntN(n)
				for dst == 9 { // nothing points at 9: an empty in-list
					dst = r.IntN(n)
				}
				edges = append(edges, edge(v, dst))
			}
		}
		edges = append(edges, edge(30, 31), edge(30, 31)) // a parallel pair
		g, err := FromEdges(n, edges, weighted, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		outOf := func(g *Graph, v int) []Edge {
			var es []Edge
			for _, e := range g.Edges() {
				if int(e.Src) == v {
					es = append(es, e)
				}
			}
			return es
		}
		cases := []struct {
			name     string
			ins, del []Edge
		}{
			{"adjacent changed vertices", []Edge{edge(11, 3), edge(12, 3), edge(13, 40)}, outOf(g, 12)[:1]},
			{"vertex 0 and n-1", []Edge{edge(0, n-1), edge(n-1, 0)}, append(outOf(g, 0)[:1], outOf(g, n-1)[:1]...)},
			{"list becomes empty", nil, outOf(g, 17)},
			{"adjacent lists become empty", []Edge{edge(20, 20)}, append(outOf(g, 18), outOf(g, 19)...)},
			{"previously empty lists", []Edge{edge(5, 9), edge(6, 9), edge(6, 9)}, nil},
			{"parallel edges", []Edge{edge(30, 31), edge(2, 2)}, []Edge{edge(30, 31)}},
			{"every out-list of a run", []Edge{edge(40, 1), edge(41, 1), edge(42, 1), edge(43, 1)}, nil},
		}
		for _, c := range cases {
			checkPatchAgainstRebuild(t, g, weighted, c.ins, c.del)
		}
		// Random batches, chained so later ones patch a patched graph.
		cur := g
		for trial := 0; trial < 60; trial++ {
			var ins, del []Edge
			have := cur.Edges()
			for _, i := range r.Perm(len(have))[:r.IntN(4)] {
				del = append(del, have[i])
			}
			for range r.IntN(4) {
				ins = append(ins, edge(r.IntN(n), r.IntN(n)))
			}
			if len(ins)+len(del) == 0 {
				ins = append(ins, edge(trial%n, (trial+1)%n))
			}
			cur = checkPatchAgainstRebuild(t, cur, weighted, ins, del)
		}
	}
}

// TestPatchSharesUntouchedChunks is the sharing itself. After a one-edge
// Patch on a graph of nine chunks, every chunk but the one holding the
// edge's source is the parent's own (same offset, adjacency and weight
// arrays), the parent is unchanged, and the bytes Patch allocates are those
// of the rebuilt chunk and the chunk table, plus a little per batch.
func TestPatchSharesUntouchedChunks(t *testing.T) {
	const n = 8*ChunkSize + 100
	for _, weighted := range []bool{false, true} {
		r := rand.New(rand.NewPCG(5, 8))
		edges := make([]Edge, 6*n)
		for i := range edges {
			edges[i] = Edge{Src: NodeID(r.IntN(n)), Dst: NodeID(r.IntN(n)), W: float32(1 + r.IntN(4))}
		}
		g, err := FromEdges(n, edges, weighted, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		before := g.Edges()
		const src = 3*ChunkSize + 17
		ins := []Edge{{Src: src, Dst: 5, W: 2}}
		ng, err := Patch(g, ins, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(ng.out) != 9 {
			t.Fatalf("%d chunks, want 9", len(ng.out))
		}
		for c := range ng.out {
			a, b := &ng.out[c], &g.out[c]
			shared := unsafe.SliceData(a.Off) == unsafe.SliceData(b.Off) &&
				unsafe.SliceData(a.Adj) == unsafe.SliceData(b.Adj) &&
				unsafe.SliceData(a.W) == unsafe.SliceData(b.W)
			if shared != (c != src>>ChunkShift) {
				t.Fatalf("weighted %v: chunk %d shared %v", weighted, c, shared)
			}
		}
		if !slices.Equal(g.Edges(), before) || g.NumEdges() != int64(len(before)) {
			t.Fatalf("weighted %v: Patch changed its parent", weighted)
		}
		if ng.NumEdges() != g.NumEdges()+1 || !slices.Contains(ng.OutNeighbors(src), 5) {
			t.Fatalf("weighted %v: the edge did not land", weighted)
		}

		// The rebuilt chunk, each array rounded up to the 8 KiB pages the
		// runtime allocates a large object in.
		page := func(b int) int { return (b + 8191) &^ 8191 }
		touched := &g.out[src>>ChunkShift]
		bound := page(8*len(touched.Off)) + page(4*(len(touched.Adj)+1))
		if weighted {
			bound += page(4 * (len(touched.Adj) + 1))
		}
		bound += int(unsafe.Sizeof(Chunk{})) * len(g.out) // the chunk table
		bound += 1024                                     // the Graph and the batch's copies
		const runs = 20
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for range runs {
			if _, err := Patch(g, ins, nil); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&m1)
		if per := int(m1.TotalAlloc-m0.TotalAlloc) / runs; per > bound {
			t.Fatalf("weighted %v: Patch allocated %d bytes, bound %d", weighted, per, bound)
		}
	}
}

package graph_test

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// checkTranspose holds every In* accessor of g to a brute-force transpose of
// g.Edges(): per destination, the sources sorted, parallel edges kept.
func checkTranspose(t *testing.T, name string, g *graph.Graph) {
	t.Helper()
	n := g.NumNodes()
	want := make([][]graph.NodeID, n)
	for _, e := range g.Edges() {
		want[e.Dst] = append(want[e.Dst], e.Src)
	}
	in := g.InChunks()
	var m int64
	for _, ch := range in {
		m += int64(len(ch.Adj))
	}
	if len(in) != (n+graph.ChunkSize-1)/graph.ChunkSize || m != g.NumEdges() {
		t.Fatalf("%s: transpose has %d chunks, %d edges; want %d, %d", name, len(in), m, (n+graph.ChunkSize-1)/graph.ChunkSize, g.NumEdges())
	}
	for v := range n {
		slices.Sort(want[v])
		got := g.InNeighbors(graph.NodeID(v))
		if !slices.Equal(got, want[v]) || g.InDegree(graph.NodeID(v)) != int64(len(want[v])) {
			t.Fatalf("%s: in-neighbors of %d = %v, want %v", name, v, got, want[v])
		}
		ch, i := in[v/graph.ChunkSize], v%graph.ChunkSize
		if !slices.Equal(ch.Adj[ch.Off[i]:ch.Off[i+1]], got) {
			t.Fatalf("%s: transpose chunks disagree with InNeighbors at %d", name, v)
		}
	}
	var mx int64
	for v := range n {
		mx = max(mx, int64(len(want[v])))
	}
	if g.MaxInDegree() != mx {
		t.Fatalf("%s: MaxInDegree = %d, want %d", name, g.MaxInDegree(), mx)
	}
}

// TestTransposeMatchesEdges covers the five generator families (parallel
// edges and self-loops kept) and the graphs Patch, RowBlock and ReadBinary
// produce from them.
func TestTransposeMatchesEdges(t *testing.T) {
	raw := graph.BuildOptions{}
	families := []struct {
		name  string
		build func() (*graph.Graph, error)
	}{
		{"erdos-renyi", func() (*graph.Graph, error) { return gen.ErdosRenyi(300, 2400, 1, raw) }},
		{"rmat", func() (*graph.Graph, error) { return gen.RMAT(gen.Graph500RMAT(8, 8, 2), raw) }},
		{"pref-attach", func() (*graph.Graph, error) { return gen.PreferentialAttachment(300, 6, 3, raw) }},
		{"copying", func() (*graph.Graph, error) {
			return gen.Copying(gen.CopyingConfig{N: 300, OutDegree: 6, CopyProb: 0.5, Locality: 0.5, Seed: 4}, raw)
		}},
		{"dag-communities", func() (*graph.Graph, error) {
			return gen.DAGCommunities(gen.DAGCommunitiesConfig{
				Clusters: 6, ClusterSize: 50, IntraDegree: 4, BridgeDegree: 6, Seed: 5,
			}, raw)
		}},
	}
	for _, f := range families {
		g, err := f.build()
		if err != nil {
			t.Fatal(err)
		}
		checkTranspose(t, f.name, g)

		edges := g.Edges()
		n := graph.NodeID(g.NumNodes())
		patched, err := graph.Patch(g,
			[]graph.Edge{{Src: 0, Dst: n - 1}, {Src: n - 1, Dst: 0}, edges[1]},
			[]graph.Edge{edges[0], edges[len(edges)-1]})
		if err != nil {
			t.Fatal(err)
		}
		checkTranspose(t, f.name+"/Patch", patched)

		block, err := g.RowBlock(n/4, n/2)
		if err != nil {
			t.Fatal(err)
		}
		checkTranspose(t, f.name+"/RowBlock", block)

		var buf bytes.Buffer
		if err := graph.WriteBinary(&buf, g); err != nil {
			t.Fatal(err)
		}
		read, err := graph.ReadBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		checkTranspose(t, f.name+"/ReadBinary", read)
	}
}

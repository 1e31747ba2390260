package graph_test

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// scatteredEdges is the benchmark's scattered family at n nodes: a
// web-like copying graph (8 out-edges per node, local labels) with its
// labels permuted at random, as an edge list in source-major order of the
// original labels — so the build sees sources in no particular order.
func scatteredEdges(b *testing.B, n int) []graph.Edge {
	b.Helper()
	g, err := gen.Copying(gen.CopyingConfig{
		N: n, OutDegree: 8, CopyProb: 0.5, Locality: 0.99, Window: max(n/16384, 64), Seed: 42,
	}, graph.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	perm := gen.RandomPermutation(n, 42)
	edges := g.Edges()
	for i := range edges {
		edges[i].Src, edges[i].Dst = perm[edges[i].Src], perm[edges[i].Dst]
	}
	return edges
}

// BenchmarkFromEdges builds the 2^20-node scattered graph from its edge list.
func BenchmarkFromEdges(b *testing.B) {
	const n = 1 << 20
	edges := scatteredEdges(b, n)
	b.ResetTimer()
	for b.Loop() {
		if _, err := graph.FromEdges(n, edges, false, graph.BuildOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(edges))*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}

// BenchmarkTranspose builds the in-adjacency of the 2^20-node scattered
// graph; each iteration starts from a fresh copy of the CSR, since a graph
// builds its transpose once.
func BenchmarkTranspose(b *testing.B) {
	const n = 1 << 20
	g, err := graph.FromEdges(n, scatteredEdges(b, n), false, graph.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		h, err := g.RowBlock(0, n)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		h.InOffsets()
	}
	b.ReportMetric(float64(g.NumEdges())*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}

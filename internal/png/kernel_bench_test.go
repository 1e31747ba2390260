package png

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
)

// benchFixtures are a web-like graph with crawl-order labels (PNG compresses
// well, gather dominates) and the same edges relabelled at random
// (compression near 1, scatter and bin writes grow) — the benchmark's
// solve_local / solve_scattered pair at an eighth of the size.
func benchFixtures(b *testing.B) map[string]*graph.Graph {
	b.Helper()
	const n = 1 << 18
	local, err := gen.Copying(gen.CopyingConfig{
		N: n, OutDegree: 8, CopyProb: 0.5, Locality: 0.99, Window: 64, Seed: 5,
	}, graph.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	perm := gen.RandomPermutation(n, 5)
	edges := local.Edges()
	for i := range edges {
		edges[i].Src, edges[i].Dst = perm[edges[i].Src], perm[edges[i].Dst]
	}
	permuted, err := graph.FromEdges(n, edges, false, graph.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	return map[string]*graph.Graph{"local": local, "permuted": permuted}
}

// benchKernels runs fn on a scattered kernel for every fixture at the
// 256 KB default (16-bit streams) and at 512 KB (32-bit streams).
func benchKernels(b *testing.B, fn func(b *testing.B, k *Kernel, x []float32)) {
	for name, g := range benchFixtures(b) {
		for _, partBytes := range []int{256 << 10, 512 << 10} {
			layout, err := partition.FromBytes(g.NumNodes(), partBytes)
			if err != nil {
				b.Fatal(err)
			}
			p, err := Build(g, layout, 0)
			if err != nil {
				b.Fatal(err)
			}
			bits := 32
			if p.DestOff != nil {
				bits = 16
			}
			k := NewKernel(p, 0)
			x := make([]float32, g.NumNodes())
			for v := range x {
				x[v] = 1 / float32(len(x))
			}
			k.Scatter(x)
			b.Run(fmt.Sprintf("%s/%dbit", name, bits), func(b *testing.B) {
				b.SetBytes(g.NumEdges()) // MB/s reads as millions of edges per second
				fn(b, k, x)
			})
		}
	}
}

func BenchmarkKernelScatter(b *testing.B) {
	benchKernels(b, func(b *testing.B, k *Kernel, x []float32) {
		for b.Loop() {
			k.Scatter(x)
		}
	})
}

func BenchmarkKernelGather(b *testing.B) {
	discard := func(_, _ graph.NodeID, _ []float32) (float64, float64) { return 0, 0 }
	for _, branching := range []bool{false, true} {
		b.Run(fmt.Sprintf("branching=%v", branching), func(b *testing.B) {
			benchKernels(b, func(b *testing.B, k *Kernel, _ []float32) {
				for b.Loop() {
					k.Gather(branching, discard)
				}
			})
		})
	}
}

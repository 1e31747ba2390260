package comp

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// benchGraph is the DAG-of-communities instance built for the componentwise
// solver: a deep condensation (64 strongly connected communities chained by
// forward bridges) where the monolithic engine pays whole-graph iterations
// to push rank down the DAG one level per iteration, while the
// componentwise solver solves each community locally.
func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	g, err := gen.DAGCommunities(gen.DAGCommunitiesConfig{
		Clusters: 64, ClusterSize: 512, IntraDegree: 7, BridgeDegree: 24, Seed: 42,
	}, graph.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkComponentwiseVsMonolithic times both solvers at matched
// tolerance (1e-8 aggregate L1). It asserts nothing: measured, the
// componentwise solver does not beat monolithic PCPM even on this family
// (mono/compwise 0.25–0.94 across sizes; the table is in
// docs/PAPER_MAPPING.md), which is why it is a checked reference and not a
// serving method.
func BenchmarkComponentwiseVsMonolithic(b *testing.B) {
	g := benchGraph(b)
	const tol = 1e-8

	b.Run("monolithic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e, err := core.NewPCPM(g, core.Config{})
			if err != nil {
				b.Fatal(err)
			}
			core.RunToConvergence(e, tol, 100000)
		}
	})
	b.Run("componentwise", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Run(g, Options{Tolerance: tol}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

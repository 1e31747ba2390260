// Package comp is a shim kept only for the benchmark's scc probe, which
// calls comp.Run with a decomposition it has just timed. The componentwise
// solver that once lived here (PageRank scheduled over the SCC condensation)
// never beat the monolithic engine and is retired; Run now solves with the
// monolithic PCPM engine and ignores Options.SCC, so the benchmark's
// comp.solve_s times a monolithic solve. Nothing else may import this package.
package comp

import (
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/scc"
)

// maxIterations caps a solve that never reaches Tolerance.
const maxIterations = 2000

// Options configure Run. SCC is accepted and ignored.
type Options struct {
	Tolerance float64
	SCC       *scc.Result
}

// Result is one completed solve.
type Result struct {
	Ranks      []float32
	Iterations int
	Delta      float64
}

// Run solves PageRank on g with the default PCPM engine to o.Tolerance.
func Run(g *graph.Graph, o Options) (*Result, error) {
	e, err := core.NewPCPM(g, core.Config{})
	if err != nil {
		return nil, err
	}
	iters, delta, _ := core.RunToConvergence(e, o.Tolerance, maxIterations)
	return &Result{Ranks: e.Ranks(), Iterations: iters, Delta: delta}, nil
}

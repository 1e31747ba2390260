package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/graph"
	"repro/internal/scc"
)

// The traced pass. It repeats the workload with spans around every call,
// measures what the spans cost, and then probes each layer on the
// workload's own graph through the layer's public constructor and one
// method (the "probed surface" listed in README.md). Probe files are named
// after the module they call: layer_core.go, layer_shard.go, ...
//
// Graph-shaped layers (graph, partition, png, core, model, scc, comp, spmv,
// shard) are probed on the workload's graph. Serving-shaped layers (serve,
// ppr, topk, delta, wal, repl) are probed on the workload's graph when the
// workload serves it, and otherwise on a graph of the same family at
// 1/64 of the nodes (probeEnv.small), because a default-epsilon personalized
// query or an edge delta on a 2M-node graph takes seconds.

const smallShift = 6

// probeEnv is what a layer probe gets.
type probeEnv struct {
	cfg runConfig
	res *result
	tr  *tracer
	// g is the workload's graph; small is the graph the serving-shaped
	// layers and the memory simulator use (== g on serving workloads).
	g, small *graph.Graph
	root     int         // span of the whole traced pass
	scc      *scc.Result // of g, left by probeSCC for probeShard
	workDir  string
}

// timed runs fn inside a span named name and returns its wall seconds.
func (e *probeEnv) timed(name string, parent int, fn func() error) (float64, error) {
	sp := e.tr.begin(name, parent, 0)
	t0 := time.Now()
	err := fn()
	secs := time.Since(t0).Seconds()
	e.tr.end(sp)
	if err != nil {
		err = fmt.Errorf("%s: %w", name, err)
	}
	return secs, err
}

// repeat calls fn n times, each inside a span, and returns the wall
// seconds of each call.
func (e *probeEnv) repeat(name string, parent, n int, fn func(i int) error) ([]float64, error) {
	secs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		s, err := e.timed(name, parent, func() error { return fn(i) })
		if err != nil {
			return nil, err
		}
		secs = append(secs, s)
	}
	return secs, nil
}

func scale(xs []float64, by float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * by
	}
	return out
}

// runTraced is the traced pass of any workload.
func runTraced(cfg runConfig, res *result) (err error) {
	tr := newTracer(cfg.W.Name)
	workDir, err := os.MkdirTemp(cfg.OutDir, cfg.W.Name+".trace-work-")
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, os.RemoveAll(workDir)) }()
	env := &probeEnv{cfg: cfg, res: res, tr: tr, workDir: workDir}
	env.root = tr.begin("traced_pass", -1, 0)

	bg, err := probeGraph(env)
	if err != nil {
		return err
	}
	env.g, env.small = bg.G, bg.G
	res.Graph["nodes"], res.Graph["edges"] = float64(bg.G.NumNodes()), float64(bg.G.NumEdges())
	if !cfg.W.Serve {
		if err := solveOverhead(env); err != nil {
			return err
		}
		if !cfg.Smoke {
			sb, err := buildGraph(cfg.W.Family, cfg.W.LogN-smallShift, cfg.Seed)
			if err != nil {
				return err
			}
			env.small = sb.G
		}
		res.Graph["small_nodes"] = float64(env.small.NumNodes())
	}
	for _, probe := range []func(*probeEnv) error{
		probePNG, probeCore, probeModel, probeSCC, probeSPMV, probeShard, // on env.g
		probeServe, probePPR, // on env.small
	} {
		if err := probe(env); err != nil {
			return err
		}
	}
	tr.end(env.root)
	return tr.writeFile(filepath.Join(cfg.OutDir, cfg.W.Name+".trace.json"))
}

// solveOverhead repeats the solve workload's operation for half of the
// run's seconds, about every other solve inside a span.
func solveOverhead(env *probeEnv) error {
	out := timedSolves(env.g, env.cfg.Seconds/2, 6, env.tr)
	env.res.Attempted = int64(len(out.Millis)+len(out.Traced)) + out.Failed
	env.res.Failed = out.Failed
	env.res.check("solves_converge", out.FirstErr)
	if len(out.Millis) == 0 || len(out.Traced) == 0 {
		return fmt.Errorf("no solve succeeded: %w", out.FirstErr)
	}
	env.res.put("trace.overhead_ratio", summarize(out.Traced).Median/summarize(out.Millis).Median)
	return nil
}

package main

import (
	"fmt"
	"runtime"
	"time"

	pcpm "repro"
	"repro/internal/graph"
)

const (
	solveTolerance = 1e-6
	// rankErrLimit is the absolute ceiling on the L1 distance between any
	// produced rank vector and the oracle.
	rankErrLimit = 1e-5
	// permutedRankLimit bounds the L1 distance between the scattered
	// graph's ranks, mapped back through the permutation, and the local
	// graph's: two runs to the same tolerance on the same structure.
	permutedRankLimit = 1e-6
	oracleTolerance   = 1e-9
	oracleMaxSweeps   = 400
	minTimedOps       = 5
)

var solveOptions = pcpm.Options{Method: pcpm.MethodPCPM, Tolerance: solveTolerance}

// solveOutcome is what a batch of timed solves produced.
type solveOutcome struct {
	Millis   []float64 // wall time of each pcpm.Run without spans
	Traced   []float64 // ... and of those run inside a span
	Iters    []float64
	Last     *pcpm.Result
	Failed   int64
	FirstErr error
}

// timedSolves calls pcpm.Run on g until seconds have passed and at least
// minOps solves are done. A solve fails when it errors or stops at the
// iteration cap without reaching the tolerance. Given a tracer, half of the
// solves (see spansFor) run inside a span and are timed separately.
func timedSolves(g *graph.Graph, seconds float64, minOps int, tr *tracer) solveOutcome {
	var out solveOutcome
	start := time.Now()
	for i := 0; i < minOps || time.Since(start).Seconds() < seconds; i++ {
		spans := tr.spansFor(int64(i))
		sp := spans.begin("pcpm.Run", -1, int64(i))
		t0 := time.Now()
		res, err := pcpm.Run(g, solveOptions)
		wall := time.Since(t0)
		spans.end(sp)
		if err == nil && res.Delta >= solveTolerance {
			err = fmt.Errorf("solve %d stopped after %d iterations at delta %.3g", i, res.Iterations, res.Delta)
		}
		if err != nil {
			out.Failed++
			if out.FirstErr == nil {
				out.FirstErr = err
			}
			continue
		}
		if ms := float64(wall) / float64(time.Millisecond); spans == nil {
			out.Millis = append(out.Millis, ms)
		} else {
			out.Traced = append(out.Traced, ms)
		}
		out.Iters = append(out.Iters, float64(res.Iterations))
		out.Last = res
		tr.count("core.iterations", int64(res.Iterations))
	}
	return out
}

// repeatSetup runs build the given number of times, returns the wall time of each
// and the last product. Earlier products are dropped and collected first so
// the resident set holds one graph at a time.
func repeatSetup[T any](times int, build func() (T, error), drop func(T)) (T, []float64, error) {
	var last T
	var secs []float64
	for i := 0; i < times; i++ {
		if i > 0 {
			drop(last)
			var zero T
			last = zero
			runtime.GC()
		}
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return last, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		last = v
	}
	return last, secs, nil
}

// runSolve is the untraced pass of a solve workload: set up, warm up, time
// pcpm.Run for cfg.Seconds, then check the ranks.
func runSolve(cfg runConfig, res *result) error {
	bg, setups, err := repeatSetup(setupReps,
		func() (*builtGraph, error) { return buildGraph(cfg.W.Family, cfg.logN(), cfg.Seed) },
		func(*builtGraph) {})
	if err != nil {
		return fmt.Errorf("building graph: %w", err)
	}
	res.putMedian("setup_s", setups)
	res.Graph["nodes"], res.Graph["edges"] = float64(bg.G.NumNodes()), float64(bg.G.NumEdges())

	rss := startRSSSampler(rssSlice)
	if _, err := pcpm.Run(bg.G, solveOptions); err != nil { // warm-up
		rss.finish()
		return fmt.Errorf("warm-up solve: %w", err)
	}
	out := timedSolves(bg.G, cfg.Seconds, minTimedOps, nil)
	res.putMedian("peak_rss_mb", rss.finish())
	res.Attempted = int64(len(out.Millis)) + out.Failed
	res.Failed = out.Failed
	res.check("solves_converge", out.FirstErr)
	if out.Last == nil {
		return fmt.Errorf("no solve succeeded: %w", out.FirstErr)
	}
	var total float64
	for _, ms := range out.Millis {
		total += ms
	}
	res.putMedian("op_p50_ms", out.Millis)
	res.put("ops_per_s", float64(len(out.Millis))/(total/1000))
	res.putMedian("solve_s", scale(out.Millis, 1.0/1000))
	res.putMedian("solve_iters", out.Iters)
	res.Graph["compression_ratio"] = out.Last.CompressionRatio

	checkSolveRanks(bg, out.Last, res)
	return nil
}

// checkSolveRanks compares the last solve's ranks with the oracle. On the
// scattered workload the oracle runs on the local labelling (the same
// structure, cheaper to sweep) and the ranks are mapped through the
// permutation; the local graph is also solved once, and must take the same
// number of iterations and give the same ranks under the permutation.
func checkSolveRanks(bg *builtGraph, last *pcpm.Result, res *result) {
	ref, ranks := bg.G, last.Ranks
	if bg.Local != nil {
		ref = bg.Local
		ranks = make([]float32, len(last.Ranks))
		for v := range ranks {
			ranks[v] = last.Ranks[bg.Perm[v]]
		}
	}
	want, _, residual := oraclePageRank(ref, ranks, oracleTolerance, oracleMaxSweeps)
	if residual >= oracleTolerance {
		res.check("oracle_converged", fmt.Errorf("oracle residual %.3g after %d sweeps", residual, oracleMaxSweeps))
		return
	}
	errL1 := l1Error(ranks, want)
	res.put("rank_l1_err", errL1)
	res.check("rank_l1_err", limitErr("L1 distance to the oracle", errL1, rankErrLimit))

	if bg.Local == nil {
		return
	}
	local, err := pcpm.Run(bg.Local, solveOptions)
	if err != nil {
		res.check("permuted_matches_local", err)
		return
	}
	res.check("permuted_matches_local", limitErr("L1 distance between permuted and local ranks",
		l1ErrorPermuted(last.Ranks, widen(local.Ranks), bg.Perm), permutedRankLimit))
	if local.Iterations != last.Iterations {
		res.check("permuted_iterations", fmt.Errorf("local graph took %d iterations, scattered %d", local.Iterations, last.Iterations))
	}
}

func limitErr(what string, got, limit float64) error {
	if got <= limit { // false for NaN
		return nil
	}
	return fmt.Errorf("%s is %.3g, limit %.3g", what, got, limit)
}

func widen(x []float32) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = float64(v)
	}
	return out
}

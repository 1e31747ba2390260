package main

import (
	"time"

	"repro/internal/graph"
	"repro/internal/ppr"
	"repro/internal/topk"
)

// probePPR calls the personalized-PageRank layer on the seed sets the
// serving probe sent over HTTP: engine construction, Engine.Run with the
// serving layer's options, and the top-k selection underneath.
func probePPR(env *probeEnv) error {
	g := env.small
	n := g.NumNodes()
	var eng *ppr.Engine
	secs, err := env.timed("ppr.New", env.root, func() (err error) {
		eng, err = ppr.New(g, ppr.EngineOptions{})
		return err
	})
	if err != nil {
		return err
	}
	env.res.put("ppr.new_engine_s", secs)

	sets := probeQueries(env, n)
	var pushes, rounds float64
	var scores []float64
	runs, err := env.repeat("ppr.Engine.Run", env.root, len(sets), func(i int) error {
		seeds := make([]graph.NodeID, len(sets[i]))
		for j, s := range sets[i] {
			seeds[j] = graph.NodeID(s)
		}
		r, rerr := eng.Run(seeds, ppr.RunOptions{TopK: 10})
		if rerr != nil {
			return rerr
		}
		pushes, rounds, scores = pushes+float64(r.Pushes), rounds+float64(r.Rounds), r.Scores
		return nil
	})
	if err != nil {
		return err
	}
	env.res.putMedian("ppr.run.p50_ms", scale(runs, 1000))
	env.res.put("ppr.run.pushes_per_query", pushes/float64(len(sets)))
	env.res.put("ppr.run.rounds", rounds/float64(len(sets)))
	env.tr.count("ppr.rounds", int64(rounds))

	reps := env.cfg.reps(20)
	t0 := time.Now()
	sp := env.tr.begin("topk.Select", env.root, 0)
	for i := 0; i < reps; i++ {
		topk.Select(n, 10,
			func(v int) ppr.Entry { return ppr.Entry{Node: graph.NodeID(v), Score: scores[v]} },
			func(a, b ppr.Entry) bool { return a.Score < b.Score || a.Score == b.Score && a.Node > b.Node })
	}
	env.tr.end(sp)
	env.res.put("topk.select_s", time.Since(t0).Seconds()/float64(reps))
	return nil
}

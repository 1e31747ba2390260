package main

import (
	"repro/internal/comp"
	"repro/internal/scc"
)

// probeSCC times the strongly-connected-component decomposition every
// ingest and edge delta pays, and the componentwise solver built on it, run
// to the same tolerance as the workload's solves.
func probeSCC(env *probeEnv) error {
	var dec *scc.Result
	secs, err := env.timed("scc.Decompose", env.root, func() error {
		dec = scc.Decompose(env.g, 0)
		return nil
	})
	if err != nil {
		return err
	}
	env.scc = dec
	env.res.put("scc.decompose_s", secs)
	env.res.put("scc.components", float64(dec.NumComps))
	solve, err := env.timed("comp.Run", env.root, func() (err error) {
		_, err = comp.Run(env.g, comp.Options{Tolerance: solveTolerance, SCC: dec})
		return err
	})
	if err != nil {
		return err
	}
	env.res.put("comp.solve_s", solve)
	return nil
}

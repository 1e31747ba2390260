package main

import (
	"runtime"

	"repro/internal/core"
)

const coreIters = 5

// stepped builds an engine, warms it with one iteration, resets it and
// times coreIters iterations; it returns the per-iteration phase times.
func stepped(env *probeEnv, name string, build func() (core.Engine, error)) (core.PhaseStats, error) {
	var stats core.PhaseStats
	_, err := env.timed("core."+name, env.root, func() error {
		e, err := build()
		if err != nil {
			return err
		}
		e.Step()
		e.Reset()
		stats = core.RunIterations(e, coreIters).PerIteration()
		env.tr.count("core.iterations", coreIters+1)
		return nil
	})
	return stats, err
}

// probeCore times one iteration of every engine on the workload's graph:
// PCPM at full width, on one worker, and with the branching gather; then
// the CSR-scatter variant, BVGAS and single-threaded PDPR for comparison.
func probeCore(env *probeEnv) error {
	g := env.g
	engine := func(name string, build func() (core.Engine, error)) (float64, core.PhaseStats, error) {
		st, err := stepped(env, name, build)
		return st.Total.Seconds(), st, err
	}
	pcpm, st, err := engine("pcpm", func() (core.Engine, error) { return core.NewPCPM(g, core.Config{}) })
	if err != nil {
		return err
	}
	env.res.put("core.pcpm.iter_s", pcpm)
	env.res.put("core.pcpm.scatter_s_per_iter", st.Scatter.Seconds())
	env.res.put("core.pcpm.gather_s_per_iter", st.Gather.Seconds())
	env.res.put("core.pcpm.gteps", float64(g.NumEdges())/pcpm/1e9)

	w1, _, err := engine("pcpm_w1", func() (core.Engine, error) { return core.NewPCPM(g, core.Config{Workers: 1}) })
	if err != nil {
		return err
	}
	env.res.put("core.pcpm.iter_s_w1", w1)
	env.res.put("core.pcpm.scaling_eff", w1/(float64(runtime.GOMAXPROCS(0))*pcpm))

	_, st, err = engine("pcpm_branching", func() (core.Engine, error) {
		return core.NewPCPM(g, core.Config{Gather: core.GatherBranching})
	})
	if err != nil {
		return err
	}
	env.res.put("core.pcpm.gather_branching_s_per_iter", st.Gather.Seconds())

	csr, _, err := engine("pcpm_csr", func() (core.Engine, error) { return core.NewPCPMCSR(g, core.Config{}) })
	if err != nil {
		return err
	}
	bvgas, _, err := engine("bvgas", func() (core.Engine, error) { return core.NewBVGAS(g, core.Config{}) })
	if err != nil {
		return err
	}
	// PDPR on one worker is the plain single-threaded baseline.
	pdpr, _, err := engine("pdpr_w1", func() (core.Engine, error) { return core.NewPDPR(g, core.Config{Workers: 1}) })
	if err != nil {
		return err
	}
	env.res.put("core.pcpm_csr.iter_s", csr)
	env.res.put("core.bvgas.iter_s", bvgas)
	env.res.put("core.pdpr.iter_s", pdpr)
	env.res.put("core.pcpm.speedup_vs_bvgas", bvgas/pcpm)
	env.res.put("core.pcpm.speedup_vs_pdpr", pdpr/pcpm)
	return nil
}

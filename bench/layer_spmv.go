package main

import "repro/internal/spmv"

// probeSPMV times one y = A·x on the workload's graph with the
// partition-centric engine and the CSR baseline: the third copy of the
// scatter/gather kernel.
func probeSPMV(env *probeEnv) error {
	m, err := spmv.FromGraph(env.g)
	if err != nil {
		return err
	}
	x, y := make([]float32, m.Cols()), make([]float32, m.Rows())
	for i := range x {
		x[i] = 1 / float32(len(x))
	}
	pe, err := spmv.NewPCPMEngine(m, partitionBytes, 0)
	if err != nil {
		return err
	}
	for _, eng := range []spmv.Engine{pe, spmv.NewCSREngine(m, 0)} {
		if err := eng.Mul(x, y); err != nil { // warm-up
			return err
		}
		secs, err := env.repeat("spmv."+eng.Name()+".Mul", env.root, env.cfg.reps(5), func(int) error { return eng.Mul(x, y) })
		if err != nil {
			return err
		}
		env.res.putMedian("spmv."+eng.Name()+".mul_s", secs)
	}
	return nil
}

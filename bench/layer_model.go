package main

import (
	"sync"

	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/png"
)

// paperWebNodes is the node count of the paper's "web" dataset, whose
// 25 MB LLC and 256 KB partitions the memory simulation scales down from.
const paperWebNodes = 50.6e6

// probeModel puts the measured kernel next to its predictions: the paper's
// analytic bytes per edge (computed), the cache simulator's bytes per edge
// on env.small (computed, scaled), the machine's copy bandwidth (measured
// here), and the bandwidth the kernel would be using if it moved exactly
// the model's bytes. No roofline ratio is given: the vertex arrays of these
// graphs are far smaller than four times the last-level cache.
func probeModel(env *probeEnv) error {
	g := env.g
	m := float64(g.NumEdges())
	params := model.Params{
		N: float64(g.NumNodes()), M: m,
		K: env.res.Metrics["partition.k"].Value,
		R: env.res.Metrics["png.compression_ratio"].Value,
	}
	pcpmBytes := model.PCPMComm(params) / m
	env.res.put("model.pcpm.bytes_per_edge", pcpmBytes)
	env.res.put("model.bvgas.bytes_per_edge", model.BVGASComm(params)/m)
	env.res.put("core.pcpm.effective_gbps", pcpmBytes*m/env.res.Metrics["core.pcpm.iter_s"].Value/1e9)

	simBytes, err := simulatedBytesPerEdge(env)
	if err != nil {
		return err
	}
	env.res.put("memsim.pcpm.bytes_per_edge", simBytes)

	// STREAM-style copy between two arrays of four times the last-level
	// cache each (at most 1 GiB, at least 64 MiB; 8 MiB for smoke runs).
	size := min(max(4*llcBytes(), 64<<20), 1<<30)
	if env.cfg.Smoke {
		size = 8 << 20
	}
	env.res.Graph["mem_copy_array_bytes"] = float64(size)
	src, dst := make([]byte, size), make([]byte, size)
	for i := int64(0); i < size; i += 4096 { // fault every page in before timing
		src[i], dst[i] = byte(i), 1
	}
	secs, err := env.repeat("mem.copy", env.root, 3, func(int) error {
		workers := env.res.Machine.GOMAXPROCS
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo, hi := int64(w)*size/int64(workers), int64(w+1)*size/int64(workers)
			wg.Add(1)
			go func() {
				defer wg.Done()
				copy(dst[lo:hi], src[lo:hi])
			}()
		}
		wg.Wait()
		return nil
	})
	if err != nil {
		return err
	}
	best := secs[0]
	for _, s := range secs {
		best = min(best, s)
	}
	env.res.put("mem.copy_gbps", 2*float64(size)/best/1e9) // read + write
	return nil
}

// simulatedBytesPerEdge replays one steady-state PCPM iteration of
// env.small through the cache simulator, with the paper's cache and
// partition sizes scaled by the same factor as the graph.
func simulatedBytesPerEdge(env *probeEnv) (float64, error) {
	g := env.small
	divisor := paperWebNodes / float64(g.NumNodes())
	cfg := memsim.DefaultConfig()
	cfg.CacheBytes = max(int(float64(cfg.CacheBytes)/divisor), 16<<10)
	part := 256
	for float64(part*2) <= float64(partitionBytes)/divisor {
		part *= 2
	}
	layout, err := partition.FromBytes(g.NumNodes(), part)
	if err != nil {
		return 0, err
	}
	pn, err := png.Build(g, layout, 0)
	if err != nil {
		return 0, err
	}
	sim, err := memsim.New(cfg)
	if err != nil {
		return 0, err
	}
	sp := env.tr.begin("memsim.MeasureSteadyState", env.root, 0)
	traffic := memsim.MeasureSteadyState(memsim.NewPCPMReplay(g, pn, sim), sim)
	env.tr.end(sp)
	env.tr.count("memsim.bytes", int64(traffic.TotalBytes()))
	return float64(traffic.TotalBytes()) / float64(g.NumEdges()), nil
}

package main

import (
	"bytes"
	"math"

	"repro/internal/graph"
)

// probeGraph builds the workload's graph (the gen and graph layers) and
// times the graph layer's own pieces on it: the CSR/CSC build from an edge
// list and the binary format both ways.
func probeGraph(env *probeEnv) (*builtGraph, error) {
	var bg *builtGraph
	total, err := env.timed("gen+graph.build", env.root, func() (err error) {
		bg, err = buildGraph(env.cfg.W.Family, env.cfg.logN(), env.cfg.Seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	g := bg.G
	edges := g.Edges()
	build, err := env.timed("graph.FromEdges", env.root, func() (err error) {
		_, err = graph.FromEdges(g.NumNodes(), edges, false, graph.BuildOptions{})
		return err
	})
	if err != nil {
		return nil, err
	}
	builds := 1.0
	if bg.Local != nil {
		builds = 2 // the permuted family builds the local graph, then the relabelled one
	}
	env.res.put("graph.build_s", build)
	env.res.put("graph.build_edges_per_s", float64(g.NumEdges())/build)
	// Generators hand their edge list straight to graph.FromEdges, so their
	// own time is what the call took beyond the builds it contains.
	env.res.put("gen.generate_s", math.Max(total-builds*build, 0))

	var buf bytes.Buffer
	write, err := env.timed("graph.WriteBinary", env.root, func() error { return graph.WriteBinary(&buf, g) })
	if err != nil {
		return nil, err
	}
	mb := float64(buf.Len()) / 1e6
	env.tr.count("graph.binary_bytes", int64(buf.Len()))
	read, err := env.timed("graph.ReadBinary", env.root, func() (err error) {
		_, err = graph.ReadBinary(bytes.NewReader(buf.Bytes()))
		return err
	})
	if err != nil {
		return nil, err
	}
	env.res.put("graph.write_binary_mbps", mb/write)
	env.res.put("graph.read_binary_mbps", mb/read)
	return bg, nil
}

package main

import (
	"fmt"

	"repro/internal/gen"
	"repro/internal/graph"
)

// Seeds. Every number in BENCHMARK-related claims is taken at defaultSeed
// while a change is written; heldOutSeed is for confirming the claim.
const (
	defaultSeed = 42
	heldOutSeed = 7
)

// family names a graph generator configuration.
type family int

const (
	// famWeb is gen.Copying with high label locality: the "web" analog,
	// generator labels kept.
	famWeb family = iota
	// famWebPermuted is the same edge set relabelled by a random permutation.
	famWebPermuted
	// famSocial is gen.PreferentialAttachmentMix, the serving graph.
	famSocial
)

// workload is one named set of inputs.
type workload struct {
	Name   string
	Why    string
	Family family
	LogN   int  // nodes = 1 << LogN
	Serve  bool // drives the HTTP API; otherwise times pcpm.Run
	Writer bool // a durable server and a writer client beside the reader
}

const (
	outDegree = 8
	setupReps = 3 // set-up is repeated; setup_s is the median
)

// workloads is the fixed list; names are cited by later changes.
var workloads = []workload{
	{
		Name:   "solve_local",
		Why:    "web-like graph with local labels: PNG compresses ~7x and gather is most of an iteration, so gather layout or accumulation work shows here",
		Family: famWeb, LogN: 21,
	},
	{
		Name:   "solve_scattered",
		Why:    "the same edges relabelled at random: compression ~1.2, scatter and bin writes grow, so a gather-only gain should not move it and a fatter scatter stream shows as a loss",
		Family: famWebPermuted, LogN: 21,
	},
	{
		Name:   "serve_read",
		Why:    "read-only HTTP mix (topk/rank/ppr/ppr_batch) on an idle solver: time goes to HTTP, JSON, snapshot reads, the ppr kernel and its cache at a mixed hit rate",
		Family: famSocial, LogN: 17, Serve: true,
	},
	{
		Name:   "serve_mutate",
		Why:    "edge-delta writer beside a reader on a durable server: patch, repair, scc, wal and publish dominate, and every write empties the ppr cache so reads always miss",
		Family: famSocial, LogN: 17, Serve: true, Writer: true,
	},
}

// smokeLogN is the graph size of -smoke runs and the unit tests.
const smokeLogN = 12

// defaultSeconds is run_seconds of BENCHMARK.json.
const defaultSeconds = 15

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// builtGraph is a workload's graph plus what the checks need to relate it
// to the local labelling.
type builtGraph struct {
	G *graph.Graph
	// Local and Perm are set for famWebPermuted only: the graph before
	// relabelling and the permutation (Perm[old] = new) that produced G.
	Local *graph.Graph
	Perm  []graph.NodeID
}

// buildGraph generates the family's graph at 1<<logN nodes from seed, using
// only gen.* and graph.FromEdges.
func buildGraph(fam family, logN int, seed uint64) (*builtGraph, error) {
	n := 1 << logN
	switch fam {
	case famWeb, famWebPermuted:
		g, err := gen.Copying(gen.CopyingConfig{
			N: n, OutDegree: outDegree, CopyProb: 0.5, Locality: 0.99,
			Window: max(n/16384, 64), Seed: seed,
		}, graph.BuildOptions{})
		if err != nil || fam == famWeb {
			return &builtGraph{G: g}, err
		}
		perm := gen.RandomPermutation(n, seed)
		edges := g.Edges()
		for i := range edges {
			edges[i].Src, edges[i].Dst = perm[edges[i].Src], perm[edges[i].Dst]
		}
		pg, err := graph.FromEdges(n, edges, false, graph.BuildOptions{})
		return &builtGraph{G: pg, Local: g, Perm: perm}, err
	case famSocial:
		g, err := gen.PreferentialAttachmentMix(n, outDegree, 0.2, seed, graph.BuildOptions{})
		return &builtGraph{G: g}, err
	}
	return nil, fmt.Errorf("unknown graph family %d", fam)
}

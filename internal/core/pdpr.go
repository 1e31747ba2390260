package core

import (
	"time"

	"repro/internal/graph"
	"repro/internal/par"
)

// PDPR is the Pull Direction PageRank baseline (Algorithm 1): each vertex
// scans its in-neighbors (a column of A) and accumulates their scaled
// ranks. Parallelized over vertices with static, edge-balanced ranges, as
// in the paper's hand-coded baseline ("static load balancing on the number
// of edges traversed"). No partial-sum storage or synchronization is
// needed because each vertex owns its output exclusively.
type PDPR struct {
	state   *rankState
	cfg     Config
	bounds  []int // static edge-balanced vertex ranges, one per worker
	stats   PhaseStats
	scratch [][]float32 // per-worker apply buffers
}

// NewPDPR builds the pull-direction engine. Its edge-balancing pass reads
// in-degrees, which builds the graph's transpose if nothing has yet, so Step
// never pays for it.
func NewPDPR(g *graph.Graph, cfg Config) (*PDPR, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	cost := make([]int64, n)
	for v := 0; v < n; v++ {
		// Pull cost per vertex is its in-degree (edges scanned) plus one.
		cost[v] = g.InDegree(graph.NodeID(v)) + 1
	}
	bounds := par.BalancedRanges(cost, cfg.Workers)
	workers := len(bounds) - 1
	scratch := make([][]float32, workers)
	for w := 0; w < workers; w++ {
		scratch[w] = make([]float32, bounds[w+1]-bounds[w])
	}
	return &PDPR{
		state:   newRankState(g, cfg.Damping, cfg.Dangling, workers),
		cfg:     cfg,
		bounds:  bounds,
		scratch: scratch,
	}, nil
}

// Name implements Engine.
func (e *PDPR) Name() string { return "pdpr" }

// Graph implements Engine.
func (e *PDPR) Graph() *graph.Graph { return e.state.g }

// PreprocessTime implements Engine. It is zero: like the paper, which takes
// CSR and CSC as given, PDPR counts the transpose as a property of the
// graph (built on first use, see graph.Graph.InNeighbors), not as the
// engine's preprocessing.
func (e *PDPR) PreprocessTime() time.Duration { return 0 }

// Step implements Engine: one pull iteration.
func (e *PDPR) Step() float64 {
	start := time.Now()
	st := e.state
	g := st.g
	base := st.baseTerm()
	dterm := st.danglingTerm()
	inOff := g.InOffsets()
	inAdj := g.InAdjacency()
	spr := st.spr

	workers := len(e.bounds) - 1
	deltas := make([]float64, workers)
	danglings := make([]float64, workers)
	par.ForRanges(e.bounds, func(w, lo, hi int) {
		sums := e.scratch[w][:hi-lo]
		for v := lo; v < hi; v++ {
			var acc float32
			for _, u := range inAdj[inOff[v]:inOff[v+1]] {
				acc += spr[u]
			}
			sums[v-lo] = acc
		}
	})
	// Ranks are finalized only after every worker finished pulling, so no
	// pull observes an iteration-(i+1) value.
	par.ForRanges(e.bounds, func(w, lo, hi int) {
		d, dang := st.applyRange(w, lo, hi, e.scratch[w][:hi-lo], base, dterm)
		deltas[w] = d
		danglings[w] = dang
	})
	var delta, dangling float64
	for w := 0; w < workers; w++ {
		delta += deltas[w]
		dangling += danglings[w]
	}
	st.dangling = dangling
	e.stats.Total += time.Since(start)
	e.stats.Iterations++
	return delta
}

func (e *PDPR) vertexState() *rankState { return e.state }

// Ranks implements Engine.
func (e *PDPR) Ranks() []float32 { return e.state.ranksCopy() }

// Stats implements Engine.
func (e *PDPR) Stats() PhaseStats { return e.stats }

// Reset implements Engine.
func (e *PDPR) Reset() {
	e.state.reset()
	e.stats = PhaseStats{}
}

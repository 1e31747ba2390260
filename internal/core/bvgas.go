package core

import (
	"time"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/partition"
)

// BVGAS is Binning with Vertex-centric GAS (Algorithm 5), the
// state-of-the-art shared-memory baseline (Beamer et al., Buono et al.).
// The scatter phase traverses vertices and writes an (update, destID) pair
// on *every* out-edge into the destination's bin; the gather phase streams
// each bin, accumulating into cached partial sums.
//
// As in the paper's optimized implementation (§3.6):
//   - destination IDs are written only on the first iteration and reused;
//   - each thread owns a statically precomputed, disjoint write range in
//     every bin, so scatter needs no locks or atomics;
//   - gather is dynamically load balanced over bins.
type BVGAS struct {
	state  *rankState
	cfg    Config
	layout partition.Layout // bins over destination node IDs
	bounds []int            // per-thread source ranges, edge balanced

	updates  [][]float32 // per bin: one update per in-edge
	destIDs  [][]uint32  // parallel to updates; written once
	writeOff [][]int32   // writeOff[t][b] = thread t's start index in bin b
	wroteIDs bool

	workerSums [][]float32
	preprocess time.Duration
	stats      PhaseStats
}

// NewBVGAS builds the engine; bin sizing and per-thread write offsets are
// the preprocessing cost reported by Table 8.
func NewBVGAS(g *graph.Graph, cfg Config) (*BVGAS, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	layout, err := partition.FromBytes(g.NumNodes(), cfg.PartitionBytes)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	n := g.NumNodes()
	b := layout.K()
	cost := make([]int64, n)
	for v := 0; v < n; v++ {
		cost[v] = g.OutDegree(graph.NodeID(v)) + 1
	}
	bounds := par.BalancedRanges(cost, cfg.Workers)
	workers := len(bounds) - 1

	// Count, per (thread, bin), the edges the thread will scatter into the
	// bin; the column prefix sums yield disjoint write ranges.
	cnt := make([][]int32, workers)
	par.ForRanges(bounds, func(t, lo, hi int) {
		c := make([]int32, b)
		outOff := g.OutOffsets()
		outAdj := g.OutAdjacency()
		shift := layout.Shift()
		for v := lo; v < hi; v++ {
			for _, u := range outAdj[outOff[v]:outOff[v+1]] {
				c[u>>shift]++
			}
		}
		cnt[t] = c
	})
	writeOff := make([][]int32, workers)
	for t := 0; t < workers; t++ {
		writeOff[t] = make([]int32, b)
	}
	e := &BVGAS{
		state:    newRankState(g, cfg.Damping, cfg.Dangling, b),
		cfg:      cfg,
		layout:   layout,
		bounds:   bounds,
		updates:  make([][]float32, b),
		destIDs:  make([][]uint32, b),
		writeOff: writeOff,
	}
	for bin := 0; bin < b; bin++ {
		var acc int32
		for t := 0; t < workers; t++ {
			writeOff[t][bin] = acc
			acc += cnt[t][bin]
		}
		e.updates[bin] = make([]float32, acc)
		e.destIDs[bin] = make([]uint32, acc)
	}
	e.workerSums = make([][]float32, workers)
	for w := 0; w < workers; w++ {
		e.workerSums[w] = make([]float32, layout.Size())
	}
	e.preprocess = time.Since(start)
	return e, nil
}

// Name implements Engine.
func (e *BVGAS) Name() string { return "bvgas" }

// Graph implements Engine.
func (e *BVGAS) Graph() *graph.Graph { return e.state.g }

// PreprocessTime implements Engine.
func (e *BVGAS) PreprocessTime() time.Duration { return e.preprocess }

// Layout exposes the bin layout (used by the traffic replayers).
func (e *BVGAS) Layout() partition.Layout { return e.layout }

// Step implements Engine: scatter all edges into bins, then gather bins.
func (e *BVGAS) Step() float64 {
	st := e.state
	g := st.g
	shift := e.layout.Shift()
	outOff := g.OutOffsets()
	outAdj := g.OutAdjacency()
	spr := st.spr
	nbins := e.layout.K()

	scatterStart := time.Now()
	firstIter := !e.wroteIDs
	par.ForRanges(e.bounds, func(t, lo, hi int) {
		cur := make([]int32, nbins)
		off := e.writeOff[t]
		for v := lo; v < hi; v++ {
			sv := spr[v]
			for _, u := range outAdj[outOff[v]:outOff[v+1]] {
				b := int(u >> shift)
				pos := off[b] + cur[b]
				cur[b]++
				e.updates[b][pos] = sv
				if firstIter {
					e.destIDs[b][pos] = u
				}
			}
		}
	})
	e.wroteIDs = true
	scatterDur := time.Since(scatterStart)

	gatherStart := time.Now()
	base := st.baseTerm()
	dterm := st.danglingTerm()
	workers := len(e.workerSums)
	deltas := make([]float64, workers)
	danglings := make([]float64, workers)
	par.ForDynamicWorker(nbins, workers, func(w, b int) {
		lo, hi := e.layout.Bounds(b)
		sums := e.workerSums[w][:int(hi-lo)]
		for i := range sums {
			sums[i] = 0
		}
		ids := e.destIDs[b]
		ups := e.updates[b]
		for j, id := range ids {
			sums[id-lo] += ups[j]
		}
		d, dang := st.applyRange(b, int(lo), int(hi), sums, base, dterm)
		deltas[w] += d
		danglings[w] += dang
	})
	var delta, dangling float64
	for w := 0; w < workers; w++ {
		delta += deltas[w]
		dangling += danglings[w]
	}
	st.dangling = dangling
	gatherDur := time.Since(gatherStart)

	e.stats.Scatter += scatterDur
	e.stats.Gather += gatherDur
	e.stats.Total += scatterDur + gatherDur
	e.stats.Iterations++
	return delta
}

func (e *BVGAS) vertexState() *rankState { return e.state }

// Ranks implements Engine.
func (e *BVGAS) Ranks() []float32 { return e.state.ranksCopy() }

// Stats implements Engine.
func (e *BVGAS) Stats() PhaseStats { return e.stats }

// Reset implements Engine. Destination IDs are structural, so they survive
// the reset (ranks return to uniform, bins are rewritten next Step).
func (e *BVGAS) Reset() {
	e.state.reset()
	e.stats = PhaseStats{}
}

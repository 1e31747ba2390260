package core

import (
	"time"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/png"
)

// PCPM is the paper's Partition-Centric Processing Methodology engine.
//
// It is an adapter over png.Kernel, which owns both loops: scatter
// (Algorithm 3) streams the scaled ranks through the PNG layout, one update
// per (node, destination-partition) pair, and gather (Algorithm 4) walks the
// MSB-tagged destination-ID stream into a cache-resident partial-sum buffer.
// What stays here is PageRank's own: the rank state and its per-partition
// apply, and the two ablations below.
//
// The CSRScatter variant (NewPCPMCSR) is Algorithm 2 — partition-centric
// update deduplication over the raw CSR, without the PNG layout. It scans
// every out-edge, carries the data-dependent prev-bin branch, and
// interleaves bin writes; the paper introduces PNG precisely to remove
// those costs, and the ablation benchmark measures the difference.
type PCPM struct {
	state *rankState
	kern  *png.Kernel

	csrScatter bool
	branching  bool

	updates   [][]float32 // the kernel's bins, which the CSR scatter fills itself
	workerCur [][]int32   // per-worker bin cursors for the CSR scatter

	preprocess time.Duration
	stats      PhaseStats
}

// NewPCPM builds the full PCPM engine (PNG scatter + configured gather).
// PNG construction is the preprocessing cost reported in Table 8; it is paid
// by the first engine on a graph at a given partition size (see newPCPM).
func NewPCPM(g *graph.Graph, cfg Config) (*PCPM, error) {
	return newPCPM(g, cfg, false)
}

// NewPCPMCSR builds the Algorithm 2 ablation: partition-centric scatter
// directly over CSR, no PNG. Its gather honors cfg.Gather like NewPCPM.
func NewPCPMCSR(g *graph.Graph, cfg Config) (*PCPM, error) {
	return newPCPM(g, cfg, true)
}

// buildLayout is png.Build; tests replace it to count builds.
var buildLayout = png.Build

func newPCPM(g *graph.Graph, cfg Config, csrScatter bool) (*PCPM, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	layout, err := partition.FromBytes(g.NumNodes(), cfg.PartitionBytes)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	// The layout is a function of the immutable graph and the partition
	// size only, so it is built once per graph and shared, read-only, by
	// every engine on it; bins and rank state below stay per engine.
	v, err := g.Derived(cfg.PartitionBytes, func() (any, error) { return buildLayout(g, layout, cfg.Workers) })
	if err != nil {
		return nil, err
	}
	pn := v.(*png.PNG)
	kern := png.NewKernel(pn, cfg.Workers)
	e := &PCPM{
		state:      newRankState(g, cfg.Damping, cfg.Dangling, pn.KRows),
		kern:       kern,
		csrScatter: csrScatter,
		branching:  cfg.Gather == GatherBranching,
		updates:    kern.Updates,
	}
	if csrScatter {
		e.workerCur = make([][]int32, par.Workers(cfg.Workers))
		for w := range e.workerCur {
			e.workerCur[w] = make([]int32, pn.K)
		}
	}
	e.preprocess = time.Since(start)
	return e, nil
}

// Name implements Engine.
func (e *PCPM) Name() string {
	if e.csrScatter {
		return "pcpm-csr"
	}
	return "pcpm"
}

// Graph implements Engine.
func (e *PCPM) Graph() *graph.Graph { return e.state.g }

// PreprocessTime implements Engine.
func (e *PCPM) PreprocessTime() time.Duration { return e.preprocess }

// CompressionRatio returns r = |E| / |E'| for this engine's layout.
func (e *PCPM) CompressionRatio() float64 { return e.kern.PNG.CompressionRatio(e.state.g) }

// Step implements Engine: one scatter+gather iteration.
func (e *PCPM) Step() float64 {
	scatterStart := time.Now()
	if e.csrScatter {
		e.scatterCSR()
	} else {
		e.scatterPNG()
	}
	scatterDur := time.Since(scatterStart)

	gatherStart := time.Now()
	delta := e.gather()
	gatherDur := time.Since(gatherStart)

	e.stats.Scatter += scatterDur
	e.stats.Gather += gatherDur
	e.stats.Total += scatterDur + gatherDur
	e.stats.Iterations++
	return delta
}

// scatterPNG is Algorithm 3, run by the shared kernel.
func (e *PCPM) scatterPNG() { e.kern.Scatter(e.state.spr) }

// scatterCSR is Algorithm 2's scatter: scan every out-edge of the
// partition's nodes, inserting one update per destination-partition run.
// The bu/qc != prev_bin check is the data-dependent branch PNG eliminates.
func (e *PCPM) scatterCSR() {
	pn := e.kern.PNG
	g := e.state.g
	spr := e.state.spr
	k := pn.K
	shift := pn.Layout.Shift()
	outOff := g.OutOffsets()
	outAdj := g.OutAdjacency()
	e.kern.Schedule(k, func(w, p int) {
		cur := e.workerCur[w]
		for q := range cur {
			cur[q] = 0
		}
		row := p * k
		lo, hi := pn.Layout.Bounds(p)
		for v := lo; v < hi; v++ {
			sv := spr[v]
			prev := -1
			for _, u := range outAdj[outOff[v]:outOff[v+1]] {
				q := int(u >> shift)
				if q != prev {
					e.updates[q][pn.UpdateWriteOff[row+q]+cur[q]] = sv
					cur[q]++
					prev = q
				}
			}
		}
	})
}

// gather is Algorithm 4, run by the shared kernel, with the PageRank update
// applied once per partition.
func (e *PCPM) gather() float64 {
	st := e.state
	base := st.baseTerm()
	dterm := st.danglingTerm()
	shift := e.kern.PNG.RowLayout.Shift()
	delta, dangling := e.kern.Gather(e.branching, func(lo, hi graph.NodeID, sums []float32) (float64, float64) {
		return st.applyRange(int(lo>>shift), int(lo), int(hi), sums, base, dterm)
	})
	st.dangling = dangling
	return delta
}

func (e *PCPM) vertexState() *rankState { return e.state }

// Ranks implements Engine.
func (e *PCPM) Ranks() []float32 { return e.state.ranksCopy() }

// Stats implements Engine.
func (e *PCPM) Stats() PhaseStats { return e.stats }

// Reset implements Engine. The PNG layout and bins are structural and kept.
func (e *PCPM) Reset() {
	e.state.reset()
	e.stats = PhaseStats{}
}

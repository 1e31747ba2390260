// Package core implements the paper's PageRank engines:
//
//   - PDPR — Pull Direction PageRank (Algorithm 1), the conventional
//     baseline: every vertex pulls its in-neighbors' scaled values.
//   - BVGAS — Binning with Vertex-centric GAS (Algorithm 5), the
//     state-of-the-art baseline the paper compares against.
//   - PCPMCSR — Partition-Centric processing over the raw CSR layout
//     (Algorithm 2), the ablation without the PNG data layout.
//   - PCPM — the paper's contribution: PNG-layout scatter (Algorithm 3)
//     plus the branch-avoiding gather (Algorithm 4).
//
// All engines iterate the same recurrence (eq. 1):
//
//	PR_{i+1}(v) = (1-d)/|V| + d * Σ_{u ∈ Ni(v)} PR_i(u)/|No(u)|
//
// and therefore produce identical rank vectors up to floating-point
// summation order — a property the test suite checks.
package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/topk"
)

// DanglingPolicy selects how nodes without out-edges are treated.
type DanglingPolicy int

const (
	// DanglingLeak reproduces the paper's formulation exactly: dangling
	// mass simply disappears (eq. 1 has no correction term).
	DanglingLeak DanglingPolicy = iota
	// DanglingRedistribute adds the standard correction: the aggregate rank
	// of dangling nodes is redistributed uniformly each iteration, so the
	// rank vector sums to 1.
	DanglingRedistribute
)

func (p DanglingPolicy) String() string {
	switch p {
	case DanglingLeak:
		return "leak"
	case DanglingRedistribute:
		return "redistribute"
	default:
		return fmt.Sprintf("DanglingPolicy(%d)", int(p))
	}
}

// GatherKind selects the PCPM gather implementation (§3.4).
type GatherKind int

const (
	// GatherBranchAvoiding adds the destination ID's MSB directly to the
	// update pointer (Algorithm 4) — no data-dependent branch.
	GatherBranchAvoiding GatherKind = iota
	// GatherBranching checks the MSB with a conditional (Algorithm 2's
	// gather); kept as the ablation baseline.
	GatherBranching
)

func (k GatherKind) String() string {
	if k == GatherBranching {
		return "branching"
	}
	return "branch-avoiding"
}

// SchedKind selects how PCPM phases are load balanced across workers.
type SchedKind int

const (
	// SchedDynamic hands partitions to workers from a shared queue (the
	// paper's OpenMP dynamic scheduling; the default).
	SchedDynamic SchedKind = iota
	// SchedStatic splits partitions into contiguous per-worker ranges;
	// kept as an ablation of the paper's load-balancing choice.
	SchedStatic
)

func (k SchedKind) String() string {
	if k == SchedStatic {
		return "static"
	}
	return "dynamic"
}

// DefaultDamping is the PageRank damping factor used throughout the paper.
const DefaultDamping = 0.85

// DefaultPartitionBytes is the paper's empirically chosen partition / bin
// width (256 KB of 4-byte vertex values = 64K nodes).
const DefaultPartitionBytes = partition.DefaultBytes

// Config controls engine construction. The zero value means "paper
// defaults" (damping 0.85, 256 KB partitions, GOMAXPROCS workers,
// dangling mass leaks, branch-avoiding gather).
type Config struct {
	Damping        float64
	Workers        int
	PartitionBytes int
	Dangling       DanglingPolicy
	Gather         GatherKind
	Sched          SchedKind
}

func (c Config) withDefaults() Config {
	if c.Damping == 0 {
		c.Damping = DefaultDamping
	}
	if c.PartitionBytes == 0 {
		c.PartitionBytes = DefaultPartitionBytes
	}
	return c
}

func (c Config) validate() error {
	if c.Damping < 0 || c.Damping >= 1 {
		return fmt.Errorf("core: damping %v outside [0,1)", c.Damping)
	}
	if c.PartitionBytes < 4 {
		return fmt.Errorf("core: partition size %d below one 4-byte value", c.PartitionBytes)
	}
	if c.PartitionBytes&(c.PartitionBytes-1) != 0 {
		return fmt.Errorf("core: partition size %d not a power of two", c.PartitionBytes)
	}
	return nil
}

// PhaseStats accumulates per-phase wall-clock time across iterations.
// For the GAS engines Total ≈ Scatter + Gather (apply is fused into
// gather, as in the paper's Table 5 where the two phases sum to the
// total); for PDPR only Total is populated.
type PhaseStats struct {
	Scatter    time.Duration
	Gather     time.Duration
	Total      time.Duration
	Iterations int
}

// PerIteration returns the stats scaled to a single-iteration average.
func (s PhaseStats) PerIteration() PhaseStats {
	if s.Iterations == 0 {
		return s
	}
	n := time.Duration(s.Iterations)
	return PhaseStats{
		Scatter:    s.Scatter / n,
		Gather:     s.Gather / n,
		Total:      s.Total / n,
		Iterations: 1,
	}
}

// Engine is one PageRank implementation over a fixed graph.
type Engine interface {
	// Name identifies the method ("pdpr", "bvgas", "pcpm", ...).
	Name() string
	// Graph returns the underlying graph.
	Graph() *graph.Graph
	// Step runs one full PageRank iteration and returns the L1 norm of the
	// rank-vector change.
	Step() float64
	// Ranks returns a copy of the current (unscaled) PageRank vector.
	Ranks() []float32
	// Stats returns cumulative phase timings since the last Reset.
	Stats() PhaseStats
	// PreprocessTime reports this engine's setup cost (bin sizing, write
	// offsets, PNG construction) — the quantity of the paper's Table 8. A
	// PCPM engine that found its graph's layout already built reports only
	// the rest.
	PreprocessTime() time.Duration
	// Reset restores the initial uniform rank vector and clears stats.
	Reset()
}

// RunIterations advances the engine a fixed number of iterations (the
// paper's evaluation runs 20) and returns the cumulative stats.
func RunIterations(e Engine, iters int) PhaseStats {
	for i := 0; i < iters; i++ {
		e.Step()
	}
	return e.Stats()
}

// RunToConvergence steps the engine until the L1 change drops below tol or
// maxIters is reached, returning the iteration count and final delta.
func RunToConvergence(e Engine, tol float64, maxIters int) (int, float64) {
	delta := math.Inf(1)
	for i := 1; i <= maxIters; i++ {
		delta = e.Step()
		if delta < tol {
			return i, delta
		}
	}
	return maxIters, delta
}

// rankState is the shared vertex-value state every engine maintains: the
// unscaled ranks, the scaled ranks (SPR(v) = PR(v)/|No(v)|, eq. 2), and the
// dangling correction for the upcoming iteration.
//
// base supports restricted subproblem solves (the componentwise solver's
// frozen-inflow formulation, see NewPCPMRestricted): when set, the per-vertex
// base replaces the uniform (1-d)/|V| teleport term, and deg holds the
// restriction's degrees rather than the subgraph's. Nil for the whole-graph
// engines.
type rankState struct {
	g        *graph.Graph
	damping  float64
	policy   DanglingPolicy
	pr       []float32
	spr      []float32
	deg      []float32 // SPR divisor per vertex: its out-degree, 0 marks dangling
	dangling float64   // Σ PR over dangling nodes, for the next iteration
	base     []float32 // optional per-vertex teleport-inflow term
}

func newRankState(g *graph.Graph, damping float64, policy DanglingPolicy) *rankState {
	n := g.NumNodes()
	s := &rankState{
		g:       g,
		damping: damping,
		policy:  policy,
		pr:      make([]float32, n),
		spr:     make([]float32, n),
		deg:     make([]float32, n),
	}
	off := g.OutOffsets()
	for v := range s.deg {
		s.deg[v] = float32(off[v+1] - off[v])
	}
	s.reset()
	return s
}

// restrict turns the state into a restricted subproblem's: base replaces the
// uniform teleport term and degrees the subgraph's out-degrees.
func (s *rankState) restrict(base []float32, degrees []int64) {
	s.base = base
	for v, d := range degrees {
		s.deg[v] = float32(d)
	}
	s.reset()
}

func (s *rankState) reset() {
	n := s.g.NumNodes()
	if n == 0 {
		return
	}
	uniform := float32(1.0 / float64(n))
	var dangling float64
	for v, d := range s.deg {
		init := uniform
		if s.base != nil {
			// Restricted solves start at the teleport-inflow term — the
			// exact fixed point for vertices with no in-component edges.
			init = s.base[v]
		}
		s.pr[v] = init
		if d > 0 {
			s.spr[v] = init / d
		} else {
			s.spr[v] = 0
			dangling += float64(init)
		}
	}
	s.dangling = dangling
}

// danglingTerm returns the per-node correction added inside the damping
// factor for the current iteration.
func (s *rankState) danglingTerm() float32 {
	if s.policy != DanglingRedistribute || s.g.NumNodes() == 0 {
		return 0
	}
	return float32(s.dangling / float64(s.g.NumNodes()))
}

// applyRange finalizes ranks for nodes [lo, hi) given their accumulated
// in-sums, returning the partial L1 delta and partial dangling mass. sums
// is indexed from lo (sums[0] is node lo's value). The per-vertex work is a
// multiply-add, an absolute difference and one division by the degree table;
// whether the state is restricted is decided once, outside the loop.
func (s *rankState) applyRange(lo, hi int, sums []float32, base, dterm float32) (delta, dangling float64) {
	d := float32(s.damping)
	pr, spr, deg := s.pr[lo:hi], s.spr[lo:hi], s.deg[lo:hi]
	sums = sums[:len(pr)]
	if s.base != nil {
		bases := s.base[lo:hi]
		for i, old := range pr {
			nv := bases[i] + d*(sums[i]+dterm)
			pr[i] = nv
			delta += math.Abs(float64(nv - old))
			if dg := deg[i]; dg > 0 {
				spr[i] = nv / dg
			} else {
				dangling += float64(nv)
			}
		}
		return delta, dangling
	}
	for i, old := range pr {
		nv := base + d*(sums[i]+dterm)
		pr[i] = nv
		delta += math.Abs(float64(nv - old))
		if dg := deg[i]; dg > 0 {
			spr[i] = nv / dg
		} else {
			dangling += float64(nv)
		}
	}
	return delta, dangling
}

// baseTerm is (1-d)/|V|, the teleport contribution.
func (s *rankState) baseTerm() float32 {
	n := s.g.NumNodes()
	if n == 0 {
		return 0
	}
	return float32((1 - s.damping) / float64(n))
}

// ranksCopy returns a defensive copy of the rank vector.
func (s *rankState) ranksCopy() []float32 {
	out := make([]float32, len(s.pr))
	copy(out, s.pr)
	return out
}

// RankEntry pairs a node with its PageRank value, for reporting.
type RankEntry struct {
	Node graph.NodeID
	Rank float32
}

// TopK returns the k highest-ranked nodes in descending rank order (ties
// broken by node ID for determinism). Selection is the shared O(n log k)
// heap pass from internal/topk — this sits on the serving hot path for any
// k past the snapshot's precomputed prefix, where a full O(n log n) sort
// per request does not fly.
func TopK(ranks []float32, k int) []RankEntry {
	return topk.Select(len(ranks), k,
		func(i int) RankEntry { return RankEntry{Node: graph.NodeID(i), Rank: ranks[i]} },
		func(a, b RankEntry) bool {
			if a.Rank != b.Rank {
				return a.Rank < b.Rank
			}
			return a.Node > b.Node
		})
}

// L1Diff returns Σ|a_i - b_i|; helper for cross-engine comparisons.
func L1Diff(a, b []float32) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var total float64
	for i := range a {
		d := float64(a[i] - b[i])
		if d < 0 {
			d = -d
		}
		total += d
	}
	return total
}

// MaxAbsDiff returns max_i |a_i - b_i|.
func MaxAbsDiff(a, b []float32) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var mx float64
	for i := range a {
		d := math.Abs(float64(a[i] - b[i]))
		if d > mx {
			mx = d
		}
	}
	return mx
}

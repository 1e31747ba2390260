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
// maxIters is reached, returning the iteration count, the final delta and
// the number of extrapolated iterations.
//
// The loop runs eq. 1's Jacobi recurrence x ← T(x), T a d-contraction in L1,
// and, for the paper's engines (PDPR, BVGAS and both PCPMs), takes an Aitken step
// whenever the error settles into one mode. After each plain iteration it
// fits the last two rank changes r_k ≈ ρ·r_{k-1} by least squares on every
// sampleStride-th vertex; when the fit leaves at most maxMisfit of r_k and
// 0 < ρ ≤ d, the next iteration's apply writes T(x) + ρ/(1−ρ)·(T(x) − x),
// the limit of the remaining geometric series, in place of T(x). A stepped
// iteration is never the last: the loop ends only on a plain iteration, and
// never steps at maxIters. So the returned delta is always |T(y) − y| for
// the vector y it started from, and the returned ranks x = T(y) are within
// d/(1−d)·delta of the fixed point, exactly the plain loop's certificate.
// The sample's partial sums are reduced in range order, so for PCPM and
// BVGAS, whose ranges are partitions, the decision (and the ranks) do not
// depend on the worker count. Where no fit is ever good enough the ranks
// and iterations are bit-identical to the plain loop's.
func RunToConvergence(e Engine, tol float64, maxIters int) (iters int, delta float64, steps int) {
	var st *rankState
	if x, ok := e.(extrapolator); ok {
		st = x.vertexState()
		st.beginFit()
		defer st.endFit()
	}
	delta = math.Inf(1)
	fitted := false // the sample holds the previous plain iteration's changes
	for i := 1; i <= maxIters; i++ {
		stepped := st != nil && st.step != 0
		delta = e.Step()
		if stepped {
			st.step = 0
			steps++
			fitted = false
			continue
		}
		if delta < tol {
			return i, delta, steps
		}
		if st == nil {
			continue
		}
		if rho, ok := st.fit(); ok && fitted && i+1 < maxIters {
			st.step = float32(rho / (1 - rho))
		}
		fitted = true
	}
	return maxIters, delta, steps
}

// extrapolator is implemented by the engines whose apply can take the step.
type extrapolator interface {
	vertexState() *rankState
}

const (
	// sampleStride spaces the vertices on which tolerance mode fits its
	// geometric ratio: the sample is n/64 floats.
	sampleStride = 64
	// maxMisfit is the largest relative L2 residual of r_k − ρ·r_{k-1} on
	// the sample at which the next iteration extrapolates.
	maxMisfit = 0.01
)

// fitSums are one range's sums over its sampled vertices of r², r·p and p²,
// r this iteration's rank change and p the previous one.
type fitSums struct{ rr, rp, pp float64 }

// rankState is the shared vertex-value state every engine maintains: the
// unscaled ranks, the scaled ranks (SPR(v) = PR(v)/|No(v)|, eq. 2), and the
// dangling correction for the upcoming iteration.
type rankState struct {
	g        *graph.Graph
	damping  float64
	policy   DanglingPolicy
	pr       []float32
	spr      []float32
	deg      []float32 // SPR divisor per vertex: its out-degree, 0 marks dangling
	dangling float64   // Σ PR over dangling nodes, for the next iteration

	// Tolerance mode only (RunToConvergence); nil and 0 otherwise.
	sample []float32 // last plain rank change of every sampleStride-th vertex
	fits   []fitSums // this iteration's sample sums, one per apply range
	ranges int       // apply ranges per iteration: the length of fits
	step   float32   // ρ/(1−ρ) for the next apply, 0 for a plain one
}

func newRankState(g *graph.Graph, damping float64, policy DanglingPolicy, ranges int) *rankState {
	n := g.NumNodes()
	s := &rankState{
		g:       g,
		damping: damping,
		policy:  policy,
		pr:      make([]float32, n),
		spr:     make([]float32, n),
		deg:     make([]float32, n),
		ranges:  ranges,
	}
	for c, ch := range g.Chunks() {
		deg := s.deg[c<<graph.ChunkShift:]
		for i := range len(ch.Off) - 1 {
			deg[i] = float32(ch.Off[i+1] - ch.Off[i])
		}
	}
	s.reset()
	return s
}

func (s *rankState) reset() {
	s.endFit()
	n := s.g.NumNodes()
	if n == 0 {
		return
	}
	uniform := float32(1.0 / float64(n))
	var dangling float64
	for v, d := range s.deg {
		s.pr[v] = uniform
		if d > 0 {
			s.spr[v] = uniform / d
		} else {
			s.spr[v] = 0
			dangling += float64(uniform)
		}
	}
	s.dangling = dangling
}

// beginFit turns on the sampled fit of the following applies.
func (s *rankState) beginFit() {
	s.sample = make([]float32, (s.g.NumNodes()+sampleStride-1)/sampleStride)
	s.fits = make([]fitSums, s.ranges)
	s.step = 0
}

// endFit drops the sample and any pending step: every apply is plain again.
func (s *rankState) endFit() {
	s.sample, s.fits, s.step = nil, nil, 0
}

// fit reduces the last apply's sample sums in range order and returns the
// least-squares ratio ρ of the two latest rank changes, and whether it may
// be extrapolated: 0 < ρ ≤ d with a residual of at most maxMisfit.
func (s *rankState) fit() (rho float64, ok bool) {
	var t fitSums
	for _, f := range s.fits {
		t.rr += f.rr
		t.rp += f.rp
		t.pp += f.pp
	}
	if t.rr == 0 || t.pp == 0 {
		return 0, false
	}
	rho = t.rp / t.pp
	// ‖r − ρp‖² = rr − ρ·rp at the least-squares ρ.
	misfit := (t.rr - rho*t.rp) / t.rr
	return rho, rho > 0 && rho <= s.damping && misfit <= maxMisfit*maxMisfit
}

// danglingTerm returns the per-node correction added inside the damping
// factor for the current iteration.
func (s *rankState) danglingTerm() float32 {
	if s.policy != DanglingRedistribute || s.g.NumNodes() == 0 {
		return 0
	}
	return float32(s.dangling / float64(s.g.NumNodes()))
}

// applyRange finalizes ranks for nodes [lo, hi), the part-th of the
// iteration's apply ranges, given their accumulated in-sums, returning the
// partial L1 delta and partial dangling mass. sums is indexed from lo
// (sums[0] is node lo's value). The per-vertex work is a multiply-add, an
// absolute difference and one division by the degree table. In tolerance
// mode a plain apply first records the range's sampled rank changes, and a
// stepped one extrapolates.
func (s *rankState) applyRange(part, lo, hi int, sums []float32, base, dterm float32) (delta, dangling float64) {
	if s.step != 0 {
		return s.applyStepped(lo, hi, sums, base, dterm)
	}
	if s.sample != nil {
		s.fits[part] = s.fitRange(lo, hi, sums, base, dterm)
	}
	return s.applyPlain(lo, hi, sums, base, dterm)
}

// applyPlain is eq. 1's apply: it writes T(x).
func (s *rankState) applyPlain(lo, hi int, sums []float32, base, dterm float32) (delta, dangling float64) {
	d := float32(s.damping)
	pr, spr, deg := s.pr[lo:hi], s.spr[lo:hi], s.deg[lo:hi]
	sums = sums[:len(pr)]
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

// fitRange computes the rank change of the range's sampled vertices, which
// the apply has not yet written, and returns their fit sums against the
// previous change, which it then replaces in the sample.
func (s *rankState) fitRange(lo, hi int, sums []float32, base, dterm float32) (f fitSums) {
	d := float32(s.damping)
	for v := (lo + sampleStride - 1) / sampleStride * sampleStride; v < hi; v += sampleStride {
		nv := base + d*(sums[v-lo]+dterm)
		r := nv - s.pr[v]
		j := v / sampleStride
		rf, pf := float64(r), float64(s.sample[j])
		s.sample[j] = r
		f.rr += rf * rf
		f.rp += rf * pf
		f.pp += pf * pf
	}
	return f
}

// applyStepped is applyRange's extrapolating iteration: it writes
// T(x) + c·(T(x) − x), c = ρ/(1−ρ), in place of T(x).
func (s *rankState) applyStepped(lo, hi int, sums []float32, base, dterm float32) (delta, dangling float64) {
	d, c := float32(s.damping), s.step
	pr, spr, deg := s.pr[lo:hi], s.spr[lo:hi], s.deg[lo:hi]
	sums = sums[:len(pr)]
	for i, old := range pr {
		t := base + d*(sums[i]+dterm)
		nv := t + c*(t-old)
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

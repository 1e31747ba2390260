// Package ppr implements Personalized PageRank via residual-based forward
// push, the per-user companion of the global PCPM solver of Lakhotia et al.
// (USENIX ATC 2018).
//
// Forward push (Andersen, Chung, Lang 2006; pushed in place as in Zhang et
// al. 2023, "Two Parallel PageRank Algorithms via Improving Forward Push")
// maintains an estimate p and a residual r with the invariant
//
//	ppr(s) = p + Σ_v r[v] · ppr(e_v)
//
// so the L1 error of p is bounded by the remaining residual mass. Each push
// of vertex v moves α·r[v] into p[v] and spreads (1−α)·r[v] across v's
// out-neighbors, where α = 1−damping is the teleport probability. Dangling
// residual mass teleports back to the seed distribution, matching the dense
// power-iteration fixed point
//
//	p = α·s + (1−α)·(Aᵀ D⁻¹ + dangling·sᵀ) p.
//
// A query is sequential and has no shape but the node count. Every round
// is one in-place push sweep over all vertices in ID order (query.sweep):
// each share lands straight in r, so mass pushed at v is pushed on by every
// vertex the same pass reaches later — the asynchrony Zhang et al. take their
// gains from. A sweep reads every residual and pushes only those above the
// threshold. The paper's partition-centric binning lives in the global solver
// (internal/core, internal/png), where random DRAM traffic dominates; a query
// on the serving graph sweeps about 67 times and pushes almost every vertex
// in most of them, so binning the frontier buys nothing here.
//
// Estimates and residuals are accumulated in float64 — unlike the global
// engines, which follow the paper's 4-byte values — because per-query PPR
// scores span many orders of magnitude and the golden tests hold push and
// power iteration to 1e-6 L1 agreement. That estimate-and-residual pair,
// 16 bytes per node, is the only per-query memory, and this package recycles
// it across calls (scratchPool) so that a serving process does not allocate
// it per cache miss or per edge-delta repair.
package ppr

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/topk"
)

// Defaults mirroring the global engines where the concepts coincide.
const (
	// DefaultDamping is the paper-wide damping factor d; the push teleport
	// probability is α = 1 − d.
	DefaultDamping = 0.85
	// DefaultEpsilon is the default L1 termination threshold: the engine
	// stops once the residual mass it could still deliver is below this.
	DefaultEpsilon = 1e-7
	// DefaultMaxRounds caps the sweeps of one query.
	DefaultMaxRounds = 10000
)

// EngineOptions is empty: an Engine's scratch is sized by the node count
// alone. The type remains because bench/layer_ppr.go compiles
// ppr.New(g, ppr.EngineOptions{}), and bench/ changes only in benchmark-only
// PRs (bench/README.md, "Probed surface").
type EngineOptions struct{}

// RunOptions configure one personalized PageRank query. The zero value
// selects the defaults above. All fields are per-call, so one Engine serves
// any mix of them.
type RunOptions struct {
	// Damping is the PageRank damping factor d (default 0.85); the push
	// teleport probability is α = 1 − d.
	Damping float64
	// Epsilon terminates the computation once the total residual mass —
	// an upper bound on the L1 error of the returned scores — drops below
	// it (default 1e-7).
	Epsilon float64
	// TopK, when positive, fills Result.Top with the K highest-scoring
	// vertices.
	TopK int
	// TopOnly skips materializing Result.Scores (an O(n) copy per query),
	// for callers that consume only Result.Top — the serving layer does.
	// Requires TopK > 0.
	TopOnly bool
	// MaxRounds caps the sweeps of one query (default 10000);
	// the engine returns its current estimate with Truncated set when hit.
	MaxRounds int
}

func (o RunOptions) withDefaults() RunOptions {
	if o.Damping == 0 {
		o.Damping = DefaultDamping
	}
	if o.Epsilon == 0 {
		o.Epsilon = DefaultEpsilon
	}
	if o.MaxRounds == 0 {
		o.MaxRounds = DefaultMaxRounds
	}
	return o
}

func (o RunOptions) validate() error {
	if o.Damping <= 0 || o.Damping >= 1 {
		return fmt.Errorf("ppr: damping %v outside (0,1)", o.Damping)
	}
	if o.Epsilon <= 0 {
		return fmt.Errorf("ppr: epsilon %v must be positive", o.Epsilon)
	}
	if o.TopK < 0 {
		return fmt.Errorf("ppr: negative topk %d", o.TopK)
	}
	if o.TopOnly && o.TopK <= 0 {
		return fmt.Errorf("ppr: TopOnly requires a positive TopK")
	}
	if o.MaxRounds < 0 {
		return fmt.Errorf("ppr: negative max rounds %d", o.MaxRounds)
	}
	return nil
}

// Entry pairs a vertex with its personalized score.
type Entry struct {
	Node  graph.NodeID
	Score float64
}

// Result is one completed personalized PageRank query.
type Result struct {
	// Scores is the full personalized rank vector, indexed by node. Scores
	// sum to 1 − ResidualL1. Nil when RunOptions.TopOnly was set.
	Scores []float64
	// Top holds the RunOptions.TopK highest-scoring vertices in descending
	// order (ties broken by node ID); nil when TopK was 0.
	Top []Entry
	// Rounds is the number of sweeps executed.
	Rounds int
	// Pushes counts every vertex push over all sweeps.
	Pushes int64
	// ResidualL1 is the undelivered residual mass at termination — an
	// upper bound on the L1 distance to the exact answer.
	ResidualL1 float64
	// Truncated is true when the run stopped at RunOptions.MaxRounds with
	// ResidualL1 still above the requested epsilon: the scores are an
	// honest partial answer, not a converged one.
	Truncated bool
	// Duration is the wall-clock compute time of this query.
	Duration time.Duration
}

// Engine runs personalized PageRank queries and repairs on one graph. It
// holds nothing but the graph: each Run or Repair takes its estimate and
// residual from scratchPool and returns them when it ends, so an Engine is
// safe for concurrent use.
type Engine struct {
	g *graph.Graph
}

// New builds an Engine for g; every query parameter is supplied per Run call.
func New(g *graph.Graph, _ EngineOptions) (*Engine, error) {
	if g.NumNodes() == 0 {
		return nil, fmt.Errorf("ppr: empty graph")
	}
	return &Engine{g: g}, nil
}

// scratch is one call's estimate p and residual r, indexed by node.
type scratch struct {
	p, r []float64
}

// scratchPool recycles scratch across every Run and Repair in the process,
// whatever the graph: a pair is reused when its capacity covers the node
// count, so queries and repairs on one serving graph stop allocating
// 16 bytes/node each.
var scratchPool sync.Pool

// getScratch returns a zeroed pair of length n, recycled when the pool holds
// one large enough.
func getScratch(n int) *scratch {
	sc, _ := scratchPool.Get().(*scratch)
	if sc == nil || cap(sc.p) < n {
		return &scratch{p: make([]float64, n), r: make([]float64, n)}
	}
	sc.p, sc.r = sc.p[:n], sc.r[:n]
	clear(sc.p)
	clear(sc.r)
	return sc
}

// CanonicalSeeds validates and canonicalizes a seed set — sorted, unique,
// in-range — the form that keys caches and defines the uniform seed
// distribution. Exported so callers (the serving layer) share one
// canonicalization instead of growing a drifting copy.
func CanonicalSeeds(n int, seeds []graph.NodeID) ([]graph.NodeID, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("ppr: empty seed set")
	}
	out := make([]graph.NodeID, len(seeds))
	copy(out, seeds)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	uniq := out[:1]
	for _, s := range out[1:] {
		if s != uniq[len(uniq)-1] {
			uniq = append(uniq, s)
		}
	}
	for _, s := range uniq {
		if int64(s) >= int64(n) {
			return nil, fmt.Errorf("ppr: seed vertex %d out of range [0,%d)", s, n)
		}
	}
	return uniq, nil
}

// Run computes the personalized PageRank vector for a uniform distribution
// over seeds, with every query parameter supplied per call. Zero-valued
// RunOptions fields select the package defaults.
func (e *Engine) Run(seeds []graph.NodeID, ro RunOptions) (*Result, error) {
	start := time.Now()
	ro = ro.withDefaults()
	if err := ro.validate(); err != nil {
		return nil, err
	}
	seedSet, err := CanonicalSeeds(e.g.NumNodes(), seeds)
	if err != nil {
		return nil, err
	}
	// thresh is the per-vertex activation bar: with no vertex above it, the
	// total leftover residual is below Epsilon, which is the L1 guarantee.
	q := &query{
		g:       e.g,
		scratch: getScratch(e.g.NumNodes()),
		alpha:   1 - ro.Damping,
		thresh:  ro.Epsilon / float64(e.g.NumNodes()),
		seedW:   1 / float64(len(seedSet)),
		seeds:   seedSet,
	}
	defer scratchPool.Put(q.scratch)
	for _, s := range seedSet {
		q.r[s] = q.seedW
	}

	res := &Result{}
	q.drain(ro, 1, res)
	q.finish(res, ro, start)
	return res, nil
}

// ResidualSeed is one signed residual contribution for Repair: positive mass
// raises downstream estimates, negative mass (the effect of a deleted edge
// or a grown out-degree) lowers them.
type ResidualSeed struct {
	Node graph.NodeID
	Mass float64
}

// Repair drains an arbitrary signed residual seeding on top of a prior rank
// estimate — the incremental-update primitive behind internal/delta. The
// push invariant is linear in the residual, so it holds for signed mass
// unchanged; activation and termination use |r| instead of r. Unlike Run,
// dangling residual mass leaks (vanishes) rather than teleporting to seeds,
// matching the global engines' default dangling formulation (eq. 1 of the
// paper has no correction term), and there is no seed distribution at all.
//
// estimate must have exactly one entry per node; it is widened to float64
// internally and Result.Scores carries the repaired vector (unless TopOnly).
// Seed nodes should be distinct — duplicates stay correct but overcount the
// internal residual bound, delaying the early exit.
func (e *Engine) Repair(estimate []float32, seeds []ResidualSeed, ro RunOptions) (*Result, error) {
	start := time.Now()
	ro = ro.withDefaults()
	if err := ro.validate(); err != nil {
		return nil, err
	}
	n := e.g.NumNodes()
	if len(estimate) != n {
		return nil, fmt.Errorf("ppr: estimate length %d, want %d nodes", len(estimate), n)
	}
	for _, s := range seeds {
		if int64(s.Node) >= int64(n) {
			return nil, fmt.Errorf("ppr: repair seed vertex %d out of range [0,%d)", s.Node, n)
		}
	}
	q := &query{g: e.g, scratch: getScratch(n), alpha: 1 - ro.Damping, thresh: ro.Epsilon / float64(n), signed: true}
	defer scratchPool.Put(q.scratch)
	for i, v := range estimate {
		q.p[i] = float64(v)
	}
	for _, s := range seeds {
		q.r[s.Node] += s.Mass
	}
	// residual is an upper bound on the signed system's total |r| mass; it
	// only shrinks as pushes deliver or leak mass, so it is a valid early
	// exit alongside the per-vertex threshold.
	var residual float64
	for _, s := range seeds {
		residual += math.Abs(q.r[s.Node])
	}

	res := &Result{}
	q.drain(ro, residual, res)
	q.finish(res, ro, start)
	return res, nil
}

// query is one Run or Repair in progress: its graph, its scratch and its
// loop-invariant parameters.
type query struct {
	g *graph.Graph
	*scratch
	alpha, thresh, seedW float64
	seeds                []graph.NodeID
	// signed selects Repair semantics: residuals may be negative (activation
	// and accounting use |r|), and dangling residual mass leaks instead of
	// teleporting to the seed distribution (seeds is nil).
	signed bool
}

// drain is the shared sweep loop of Run and Repair: it sweeps until a sweep
// pushes nothing, the residual is at most Epsilon, or MaxRounds is hit.
// residual enters as an upper bound on the remaining |r| mass and is kept one
// without re-summing r: every push removes at least the mass it delivers
// (exactly that when unsigned, more when signed residuals cancel). Before the
// loop stops it takes the exact figure into res.ResidualL1 and goes on if
// rounding left that above Epsilon, so only a run that hit MaxRounds can end
// Truncated.
func (q *query) drain(ro RunOptions, residual float64, res *Result) {
	for idle := false; ; {
		stop := idle || res.Rounds >= ro.MaxRounds
		if stop || residual <= ro.Epsilon {
			res.ResidualL1 = residualMass(q.r)
			if stop || res.ResidualL1 <= ro.Epsilon {
				return
			}
			residual = res.ResidualL1
		}
		res.Rounds++
		delivered, pushed := q.sweep()
		if q.signed {
			// Shares of opposite sign cancel inside r, which the running
			// bound cannot see and a repair's stopping round depends on:
			// a repair pays the O(n) re-sum per sweep, a query does not.
			residual = residualMass(q.r)
		} else {
			residual -= delivered
		}
		res.Pushes += int64(pushed)
		idle = pushed == 0
	}
}

// finish materializes the Result fields shared by Run and Repair.
// The Result holds copies only, so the scratch can go back to the pool.
func (q *query) finish(res *Result, ro RunOptions, start time.Time) {
	if !ro.TopOnly {
		res.Scores = make([]float64, len(q.p))
		copy(res.Scores, q.p)
	}
	res.Truncated = res.ResidualL1 > ro.Epsilon
	if ro.TopK > 0 {
		res.Top = TopK(q.p, ro.TopK)
	}
	res.Duration = time.Since(start)
}

// sweep performs one round as a single in-place push pass: every
// vertex whose |residual| is above the threshold when the pass reaches it, in
// ID order, moves α·r into the estimate and adds its out-shares straight into
// r, so mass entering a later vertex is pushed on within the same pass. The
// push invariant is order-agnostic, so the sweep lands on the same fixed point
// as a synchronous round in fewer passes. Dangling mass is folded into the
// seeds once after the pass (unsigned) or leaks (signed). It returns the mass
// that left the residual system and the number of pushes.
func (q *query) sweep() (delivered float64, pushed int) {
	outOff, outAdj := q.g.OutOffsets(), q.g.OutAdjacency()
	alpha, thresh := q.alpha, q.thresh
	p, r := q.p, q.r
	var dmass float64
	for v := range r {
		rv := r[v]
		mag := math.Abs(rv)
		if mag <= thresh {
			continue
		}
		r[v] = 0
		p[v] += alpha * rv
		delivered += alpha * mag
		pushed++
		lo, hi := outOff[v], outOff[v+1]
		if lo == hi {
			if q.signed {
				delivered += (1 - alpha) * mag
			} else {
				dmass += rv
			}
			continue
		}
		share := (1 - alpha) * rv / float64(hi-lo)
		for _, u := range outAdj[lo:hi] {
			r[u] += share
		}
	}
	if dmass > 0 {
		tele := (1 - alpha) * dmass * q.seedW
		for _, s := range q.seeds {
			r[s] += tele
		}
	}
	return delivered, pushed
}

// residualMass is Σ|r|, the exact undelivered mass.
func residualMass(r []float64) float64 {
	var total float64
	for _, v := range r {
		total += math.Abs(v)
	}
	return total
}

// TopK returns the k highest-scoring vertices in descending score order
// (ties broken by node ID for determinism), via the shared O(n log k) heap
// selection in internal/topk.
func TopK(scores []float64, k int) []Entry {
	return topk.Select(len(scores), k,
		func(i int) Entry { return Entry{Node: graph.NodeID(i), Score: scores[i]} },
		func(a, b Entry) bool {
			if a.Score != b.Score {
				return a.Score < b.Score
			}
			return a.Node > b.Node
		})
}

// Run is the single-query entry point: it builds an Engine for g and runs one
// seed set. Its scratch is recycled like Engine.Run's, so a loop of Run calls
// costs no more than a loop over one Engine.
func Run(g *graph.Graph, seeds []graph.NodeID, ro RunOptions) (*Result, error) {
	e, err := New(g, EngineOptions{})
	if err != nil {
		return nil, err
	}
	return e.Run(seeds, ro)
}

// Package ppr implements Personalized PageRank via residual-based forward
// push, the per-user companion of the global PCPM solver of Lakhotia et al.
// (USENIX ATC 2018).
//
// Forward push (Andersen, Chung, Lang 2006; pushed in place as in Zhang et
// al. 2023, "Two Parallel PageRank Algorithms via Improving Forward Push")
// maintains an estimate p and a residual r with the invariant
//
//	x(s) = p + Σ_v r[v] · x(e_v)
//
// where x(s) = α·s + (1−α)·Aᵀ D⁻¹ x(s) is the leaky system: dangling mass
// vanishes. Each push of vertex v moves α·a into p[v] and (1−α)·a across v's
// out-neighbors, for an amount a taken out of r[v], where α = 1−damping is
// the teleport probability. The personalized PageRank vector, whose dangling
// mass teleports back to the seed distribution like its teleport mass, is
//
//	ppr(s) = α·s + (1−α)·(Aᵀ D⁻¹ + dangling·sᵀ)·ppr(s) = x(s) / Σ x(s),
//
// because both returns land on s: ppr(s) = c·s + (1−α)·Aᵀ D⁻¹·ppr(s) for a
// scalar c. So Run drains the leaky system and divides by Σp once at the end,
// and Repair drains it on top of a prior estimate without normalising.
//
// A query is sequential and has no shape but the node count. Every round is
// one pass of the push kernel (query.pass) over all vertices in ID order.
// Most passes are in-place sweeps: a vertex whose |residual| is above the bar
// pushes all of it, and each share lands straight in r, so mass pushed at v is
// pushed on by every vertex the same pass reaches later — the asynchrony Zhang
// et al. take their gains from. Once the amounts pushed by consecutive sweeps
// stay in one geometric ratio ρ at every vertex, the remaining sweeps would
// push about ρ/(1−ρ) times the last sweep's amounts; one pass pushes exactly
// that (the geometric-tail step of Kamvar et al.'s Aitken extrapolation). Any
// amount pushed keeps the invariant exact, so a wrong guess costs passes, never
// accuracy. On the serving graph a query takes 16–21 passes. The paper's
// partition-centric binning lives in the global solver (internal/core,
// internal/png), where random DRAM traffic dominates; a sweep here pushes
// almost every vertex, so binning the frontier buys nothing.
//
// Estimates and residuals are accumulated in float64 — unlike the global
// engines, which follow the paper's 4-byte values — because per-query PPR
// scores span many orders of magnitude and the golden tests hold push and
// power iteration to 1e-6 L1 agreement. That pair plus the float32 amounts of
// the last sweep, 20 bytes per node, is the only per-query memory, and this
// package recycles it across calls (scratchPool) so that a serving process
// does not allocate it per cache miss or per edge-delta repair.
package ppr

import (
	"fmt"
	"math"
	"slices"
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
	// stops once its bound on the L1 error of the answer is below this.
	DefaultEpsilon = 1e-7
	// DefaultMaxRounds caps the push passes of one query.
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
	// Epsilon terminates the computation once the bound on the L1 error of
	// the returned scores (Result.ResidualL1) drops below it (default 1e-7).
	Epsilon float64
	// TopK, when positive, fills Result.Top with the K highest-scoring
	// vertices.
	TopK int
	// TopOnly skips materializing Result.Scores or Result.Ranks (an O(n)
	// copy per query), for callers that consume only Result.Top — the
	// serving layer does.
	// Requires TopK > 0.
	TopOnly bool
	// MaxRounds caps the push passes of one query (default 10000);
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
	// Scores is Run's personalized vector, indexed by node, which sums to 1
	// up to rounding. Nil for Repair and when RunOptions.TopOnly was set.
	Scores []float64
	// Ranks is Repair's repaired estimate, indexed by node, in float32 with
	// every entry clamped at 0: signed pushes can leave float dust below
	// zero on a vertex whose rank shrank, and true ranks are positive. Nil
	// for Run and when RunOptions.TopOnly was set.
	Ranks []float32
	// Top holds the RunOptions.TopK highest-scoring vertices in descending
	// order (ties broken by node ID); nil when TopK was 0.
	Top []Entry
	// Rounds is the number of push passes executed: sweeps and Aitken
	// steps alike.
	Rounds int
	// Pushes counts every vertex push over all passes.
	Pushes int64
	// ResidualL1 is an upper bound on the L1 distance of Scores to the exact
	// answer. For Repair it is the undelivered residual mass R = Σ|r|; for
	// Run it also covers the normalisation, (‖p‖₁/Σp + 1)·R/(Σp − R).
	ResidualL1 float64
	// Truncated is true when the run stopped at RunOptions.MaxRounds with
	// ResidualL1 still above the requested epsilon: the scores are an
	// honest partial answer, not a converged one.
	Truncated bool
	// Duration is the wall-clock compute time of this query.
	Duration time.Duration
}

// Engine runs personalized PageRank queries and repairs on one graph. It
// holds nothing but the graph: each Run or Repair takes its scratch from
// scratchPool and returns it when it ends, so an Engine is safe for
// concurrent use.
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

// scratch is one call's estimate p, residual r and the amounts u the last
// sweep pushed, indexed by node.
type scratch struct {
	p, r []float64
	u    []float32
}

// scratchPool recycles scratch across every Run and Repair in the process,
// whatever the graph: a set is reused when its capacity covers the node
// count, so queries and repairs on one serving graph stop allocating
// 20 bytes/node each.
var scratchPool sync.Pool

// getScratch returns scratch of length n, recycled when the pool holds one
// large enough. p and r are zeroed; u is not, because the first sweep writes
// every entry and weighs the old ones by a ratio of 0.
func getScratch(n int) *scratch {
	sc, _ := scratchPool.Get().(*scratch)
	if sc == nil || cap(sc.p) < n {
		return &scratch{p: make([]float64, n), r: make([]float64, n), u: make([]float32, n)}
	}
	sc.p, sc.r, sc.u = sc.p[:n], sc.r[:n], sc.u[:n]
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
	q := &query{g: e.g, scratch: getScratch(e.g.NumNodes()), alpha: 1 - ro.Damping, normalise: true}
	defer scratchPool.Put(q.scratch)
	for _, s := range seedSet {
		q.r[s] = 1 / float64(len(seedSet))
	}
	res := q.drain(ro)
	if !ro.TopOnly {
		res.Scores = slices.Clone(q.p)
	}
	res.Duration = time.Since(start)
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
// unchanged; activation and termination use |r| instead of r. Dangling
// residual mass leaks, matching the global engines' default dangling
// formulation (eq. 1 of the paper has no correction term), and the result
// is not normalised.
//
// estimate must have exactly one entry per node; it is widened to float64
// internally, and Result.Ranks carries the repaired vector narrowed back to
// float32 in the same pass that copies it out (unless TopOnly).
func (e *Engine) Repair(estimate []float32, seeds []ResidualSeed, ro RunOptions) (*Result, error) {
	start := time.Now()
	ro = ro.withDefaults()
	q, err := e.repairQuery(estimate, seeds, ro)
	if err != nil {
		return nil, err
	}
	defer scratchPool.Put(q.scratch)
	res := q.drain(ro)
	if !ro.TopOnly {
		res.Ranks = make([]float32, len(q.p))
		for i, s := range q.p {
			if s < 0 {
				s = 0
			}
			res.Ranks[i] = float32(s)
		}
	}
	res.Duration = time.Since(start)
	return res, nil
}

// repairQuery validates a repair and seeds its query: p holds the estimate
// and r the signed residual. The caller returns q.scratch to the pool.
func (e *Engine) repairQuery(estimate []float32, seeds []ResidualSeed, ro RunOptions) (*query, error) {
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
	q := &query{g: e.g, scratch: getScratch(n), alpha: 1 - ro.Damping}
	for i, v := range estimate {
		q.p[i] = float64(v)
	}
	for _, s := range seeds {
		q.r[s.Node] += s.Mass
	}
	return q, nil
}

// aitkenMisfit is the largest misfit ‖u_k − ρ·u_{k−1}‖₁ / ‖u_k‖₁ between two
// consecutive sweeps' amounts at which the residual counts as one geometric
// mode, so that the next pass extrapolates its tail.
const aitkenMisfit = 0.01

// query is one Run or Repair in progress: its graph, its scratch and its
// loop-invariant parameters.
type query struct {
	g *graph.Graph
	*scratch
	alpha float64
	// normalise selects Run semantics: the answer is p/Σp, and the error
	// bound covers that division.
	normalise bool
	// sum is Σp as of the last certify, and unorm is ‖u‖₁ as of the last
	// sweep (0 after an Aitken step, whose successor weighs u by 0).
	sum, unorm float64
}

// drain is the pass loop shared by Run and Repair: it runs passes until the
// error bound is at most Epsilon, a sweep pushes nothing or MaxRounds is
// hit, and it fills the Result but for its vector and Duration: the caller
// copies the vector out of q.p in the form it answers with. After every
// pass it re-sums the residual exactly (certify). A sweep whose amounts fit ρ times the previous
// sweep's, within aitkenMisfit, is followed by one Aitken step pushing
// ρ/(1−ρ) times them, where ρ is the newest residual ratio; the misfit itself
// is measured against the previous ratio, because the sweep only learns its
// own once it has ended.
func (q *query) drain(ro RunOptions) *Result {
	res := &Result{}
	resid, bound, bar := q.certify(ro.Epsilon)
	var rho float64 // the last sweep's residual ratio; 0 after an Aitken step
	step := false
	for bound > ro.Epsilon && res.Rounds < ro.MaxRounds {
		res.Rounds++
		var c float64
		if step {
			c = rho / (1 - rho)
		}
		pushed, misfit := q.pass(c, bar, rho)
		res.Pushes += int64(pushed)
		prev := resid
		resid, bound, bar = q.certify(ro.Epsilon)
		if pushed == 0 {
			break
		}
		if step {
			rho, step = 0, false
			continue
		}
		step = misfit < aitkenMisfit && resid < prev
		rho = resid / prev
	}
	res.ResidualL1 = bound
	res.Truncated = bound > ro.Epsilon
	if q.normalise {
		for v := range q.p {
			q.p[v] /= q.sum
		}
	}
	if ro.TopK > 0 {
		res.Top = TopK(q.p, ro.TopK)
	}
	return res
}

// certify re-sums the residual and returns R = Σ|r|, the L1 error bound of
// the answer as it stands, and the per-vertex bar for the next sweep: the
// largest bar at which a sweep that pushes nothing leaves the bound at most
// epsilon. A repair's answer is p itself, so its bound is R. A query's answer
// is p/σ with σ = Σp; the exact leaky solution x = p + e has ‖e‖₁ ≤ R and
// |Σx − σ| ≤ R, so
//
//	‖p/σ − x/Σx‖₁ ≤ ‖p‖₁·|1/σ − 1/Σx| + ‖e‖₁/Σx ≤ (‖p‖₁/σ + 1)·R/(σ − R),
//
// and never more than ‖p/σ‖₁ + ‖x/Σx‖₁ = ‖p‖₁/σ + 1, which is the bound
// while R ≥ σ.
func (q *query) certify(eps float64) (resid, bound, bar float64) {
	for _, v := range q.r {
		resid += math.Abs(v)
	}
	n := float64(len(q.r))
	if !q.normalise {
		return resid, resid, eps / n
	}
	var sum, abs float64
	for _, v := range q.p {
		sum += v
		abs += math.Abs(v)
	}
	q.sum = sum
	if sum <= 0 {
		return resid, math.Inf(1), 0
	}
	k := abs/sum + 1
	bound = k
	if resid < sum {
		bound = min(k, k*resid/(sum-resid))
	}
	return resid, bound, eps * sum / (k + eps) / n
}

// pass is the one push kernel: one in-place pass over the vertices in ID
// order, each vertex pushing an amount a of its residual — α·a into p[v],
// (1−α)·a split across its out-neighbors, and nothing from a dangling
// vertex, whose share leaks. With c == 0 it is a sweep: a vertex whose
// |r[v]| is above bar when the pass reaches it pushes all of it, the amount
// (0 if none) is recorded in u, and misfit is ‖u_new − rho·u_old‖₁/‖u_new‖₁.
// With c > 0 it is the Aitken step: every vertex pushes c·u[v], whatever its
// residual, which may turn residuals negative but keeps the invariant exact.
// It returns the number of pushes.
func (q *query) pass(c, bar, rho float64) (pushed int, misfit float64) {
	alpha := q.alpha
	r := q.r
	var dev, norm float64
	for ci, ch := range q.g.Chunks() {
		base := ci << graph.ChunkShift
		off, adj := ch.Off, ch.Adj
		rc := r[base : base+len(off)-1]
		pc, uc := q.p[base:][:len(rc)], q.u[base:][:len(rc)]
		for i := range rc {
			a := rc[i]
			switch {
			case c != 0:
				if a = c * float64(uc[i]); a == 0 {
					continue
				}
			case math.Abs(a) <= bar:
				uc[i] = 0
				continue
			default:
				// dev counts rho·|old| for every vertex at first, through
				// q.unorm, and corrects it here for the vertices that push.
				old := float64(uc[i])
				dev += math.Abs(a-rho*old) - rho*math.Abs(old)
				norm += math.Abs(a)
				uc[i] = float32(a)
			}
			rc[i] -= a
			pc[i] += alpha * a
			pushed++
			lo, hi := off[i], off[i+1]
			if lo == hi {
				continue
			}
			share := (1 - alpha) * a / float64(hi-lo)
			for _, w := range adj[lo:hi] {
				r[w] += share
			}
		}
	}
	dev += rho * q.unorm
	q.unorm = norm
	return pushed, dev / norm
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

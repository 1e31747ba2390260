// Package ppr implements Personalized PageRank via residual-based forward
// push with a partition-centric frontier, extending the PCPM discipline of
// Lakhotia et al. (USENIX ATC 2018) to per-user rank vectors.
//
// Forward push (Andersen, Chung, Lang 2006; parallelized along the lines of
// Zhang et al. 2023, "Two Parallel PageRank Algorithms via Improving Forward
// Push") maintains an estimate p and a residual r with the invariant
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
// Instead of a global priority queue or per-vertex atomics, the engine keeps
// one frontier bin per cache-sized partition (reusing partition.Layout, §3.1
// of the paper) and alternates PCPM-style scatter/gather rounds scheduled
// with par.ForDynamicWorker: scatter drains a partition's active residuals
// into per-(worker, destination-partition) update buffers, gather applies
// each destination partition's updates with exclusive ownership — no atomics,
// and a partition's residual range stays cache-resident while it drains.
// When the frontier grows past a configurable fraction of the vertices the
// round becomes one sequential in-place push sweep over the vertices in ID
// order (Engine.sweep): out-shares land straight in r, so mass pushed at v
// is pushed on by every later vertex within the same pass — the asynchrony
// Zhang et al. take their gains from — and no frontier is kept while rounds
// stay dense.
//
// Estimates and residuals are accumulated in float64 — unlike the global
// engines, which follow the paper's 4-byte values — because per-query PPR
// scores span many orders of magnitude and the golden tests hold push and
// power iteration to 1e-6 L1 agreement.
package ppr

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/partition"
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
	// DefaultPartitionBytes is the engines' shared default (256 KB of
	// 4-byte values = 64K nodes per frontier bin).
	DefaultPartitionBytes = partition.DefaultBytes
	// DefaultDenseFraction is the frontier share of |V| beyond which a round
	// switches from sparse partition-centric push to the dense push sweep.
	DefaultDenseFraction = 0.125
	// DefaultMaxRounds caps the rounds (sparse or sweep) of one query.
	DefaultMaxRounds = 10000
	// minActivePerWorker is the frontier size one extra worker must bring
	// to a sparse round before it pays for its scheduling overhead: rounds
	// with fewer active vertices run on proportionally fewer workers (a
	// single-seed query spends most of its rounds on tiny frontiers, where
	// spawning a full-width worker set costs more than the pushes).
	minActivePerWorker = 256
)

// EngineOptions configure the graph-shaped scratch of an Engine — the two
// knobs that fix the size of its allocations. Everything query-specific
// (epsilon, top-k, damping, round caps) moved to RunOptions, so one Engine
// can be pooled and serve queries with arbitrary per-call parameters.
type EngineOptions struct {
	// PartitionBytes sets the frontier-bin width in bytes of 4-byte vertex
	// values, exactly like the global engines; must be a power of two
	// (default 256 KB).
	PartitionBytes int
	// Workers is the engine's parallelism capacity: how many per-worker
	// scatter-buffer sets it allocates (default GOMAXPROCS). A Run may use
	// fewer workers than this, never more.
	Workers int
}

func (o EngineOptions) withDefaults() EngineOptions {
	if o.PartitionBytes == 0 {
		o.PartitionBytes = DefaultPartitionBytes
	}
	if o.Workers == 0 {
		o.Workers = par.Workers(0)
	}
	return o
}

// RunOptions configure one personalized PageRank query. The zero value
// selects the defaults above. All fields are per-call: none of them affect
// the engine's allocations, so a pooled Engine serves any mix of them.
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
	// Workers bounds the parallelism of this query's sparse rounds (dense
	// sweeps are sequential); 0 means the engine's full width, and larger
	// requests are clamped to it. Batch schedulers set 1 to trade
	// intra-query for cross-query parallelism.
	Workers int
	// DenseFraction is the active-vertex share of |V| above which a round
	// is one in-place push sweep over all vertices instead of a sparse
	// scatter/gather round (default 0.125). Set >= 1 to force sparse
	// rounds, or negative to force every round dense.
	DenseFraction float64
	// MaxRounds caps rounds, sparse or sweep, per query (default 10000); the
	// engine returns its current estimate with Truncated set when hit.
	MaxRounds int
}

func (o RunOptions) withDefaults() RunOptions {
	if o.Damping == 0 {
		o.Damping = DefaultDamping
	}
	if o.Epsilon == 0 {
		o.Epsilon = DefaultEpsilon
	}
	if o.DenseFraction == 0 {
		o.DenseFraction = DefaultDenseFraction
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
	if o.Workers < 0 {
		return fmt.Errorf("ppr: negative workers %d", o.Workers)
	}
	if o.MaxRounds < 0 {
		return fmt.Errorf("ppr: negative max rounds %d", o.MaxRounds)
	}
	return nil
}

// Options is the combined engine + query configuration consumed by the
// stateless entry points (Run, RunBatch) and the pcpm facade, which build
// an engine and run one workload in a single call. Engine-reusing callers
// split the two halves: New takes EngineOptions, Engine.Run takes
// RunOptions.
type Options struct {
	// Damping, Epsilon, TopK, TopOnly, DenseFraction, and MaxRounds are
	// query parameters — see RunOptions.
	Damping       float64
	Epsilon       float64
	TopK          int
	TopOnly       bool
	DenseFraction float64
	MaxRounds     int
	// PartitionBytes and Workers shape the engine scratch — see
	// EngineOptions.
	PartitionBytes int
	Workers        int
}

// Split separates the combined options into their engine-shaped and
// query-specific halves.
func (o Options) Split() (EngineOptions, RunOptions) {
	return EngineOptions{
			PartitionBytes: o.PartitionBytes,
			Workers:        o.Workers,
		}, RunOptions{
			Damping:       o.Damping,
			Epsilon:       o.Epsilon,
			TopK:          o.TopK,
			TopOnly:       o.TopOnly,
			DenseFraction: o.DenseFraction,
			MaxRounds:     o.MaxRounds,
		}
}

// Entry pairs a vertex with its personalized score.
type Entry struct {
	Node  graph.NodeID
	Score float64
}

// Result is one completed personalized PageRank query.
type Result struct {
	// Scores is the full personalized rank vector, indexed by node. Scores
	// sum to 1 − ResidualL1. Nil when Options.TopOnly was set.
	Scores []float64
	// Top holds the Options.TopK highest-scoring vertices in descending
	// order (ties broken by node ID); nil when TopK was 0.
	Top []Entry
	// Rounds is the number of rounds executed; SparseRounds (scatter/gather)
	// and DenseRounds (sweeps) split it by kind.
	Rounds, SparseRounds, DenseRounds int
	// Pushes counts every vertex push, in sparse rounds and sweeps alike.
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

// update is one buffered residual contribution bound for dst's partition.
type update struct {
	dst graph.NodeID
	val float64
}

// Engine holds only the graph-shaped scratch state of the push computation
// (score/residual arrays, frontier bins, per-worker scatter buffers) — about
// 17 bytes per node plus the frontier structures. Nothing query-specific is
// baked in at construction, so one Engine serves queries with any mix of
// RunOptions and a caller serving many queries over one graph (or a pool of
// borrowed engines, like the serving layer) reuses its allocations. An
// Engine is NOT safe for concurrent Run calls; use one per goroutine or the
// stateless package-level Run.
type Engine struct {
	g      *graph.Graph
	layout partition.Layout
	width  int // worker capacity fixed at New; Run clamps to it

	p, r []float64 // estimate and residual, indexed by node

	frontier   [][]graph.NodeID // per-partition active-vertex bins
	inFrontier []bool

	// bufs[w][dp] is worker w's scatter output bound for partition dp.
	bufs     [][][]update
	dangling []float64 // per-worker dangling residual accumulators
	pushes   []int64   // per-worker push counters
	// delivered collects per-worker pushed mass in sparse rounds. Kept on
	// the engine (instead of allocated per round) because a query can run
	// thousands of rounds.
	delivered []float64
}

// New builds an Engine for g. Only the scratch shape is fixed here; every
// query parameter is supplied per Run call.
func New(g *graph.Graph, opts EngineOptions) (*Engine, error) {
	opts = opts.withDefaults()
	if opts.Workers < 1 {
		// Only an explicit negative reaches here (0 defaulted above) —
		// reject it like RunOptions does instead of silently going wide.
		return nil, fmt.Errorf("ppr: negative workers %d", opts.Workers)
	}
	if g.NumNodes() == 0 {
		return nil, fmt.Errorf("ppr: empty graph")
	}
	layout, err := partition.FromBytes(g.NumNodes(), opts.PartitionBytes)
	if err != nil {
		return nil, fmt.Errorf("ppr: %w", err)
	}
	n := g.NumNodes()
	e := &Engine{
		g:          g,
		layout:     layout,
		width:      opts.Workers,
		p:          make([]float64, n),
		r:          make([]float64, n),
		frontier:   make([][]graph.NodeID, layout.K()),
		inFrontier: make([]bool, n),
		bufs:       make([][][]update, opts.Workers),
		dangling:   make([]float64, opts.Workers),
		pushes:     make([]int64, opts.Workers),
		delivered:  make([]float64, opts.Workers),
	}
	for w := range e.bufs {
		e.bufs[w] = make([][]update, layout.K())
	}
	return e, nil
}

// Graph returns the engine's graph.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Rebind points the engine at a different graph with the same node count,
// reusing all scratch allocations. The partition layout depends only on
// the node count and partition size, so it carries over unchanged. This is
// the dynamic-graph case: every applied edge delta publishes a new
// structure over a fixed node set, and the repair engine must not pay an
// O(n) reallocation per mutation.
func (e *Engine) Rebind(g *graph.Graph) error {
	if g.NumNodes() != e.g.NumNodes() {
		return fmt.Errorf("ppr: rebind to %d nodes, engine built for %d", g.NumNodes(), e.g.NumNodes())
	}
	e.g = g
	return nil
}

// Width returns the engine's worker capacity (EngineOptions.Workers after
// defaulting); Run calls are clamped to it.
func (e *Engine) Width() int { return e.width }

// CanonicalSeeds validates and canonicalizes a seed set — sorted, unique,
// in-range — the form that keys caches and defines the uniform seed
// distribution. Exported so callers (the serving layer) share one
// canonicalization instead of growing a drifting copy.
func CanonicalSeeds(n int, seeds []graph.NodeID) ([]graph.NodeID, error) {
	return normalizeSeeds(n, seeds)
}

// normalizeSeeds validates and canonicalizes a seed set: sorted, unique,
// in-range. The seed distribution is uniform over the returned set.
func normalizeSeeds(n int, seeds []graph.NodeID) ([]graph.NodeID, error) {
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
// RunOptions fields select the package defaults; RunOptions.Workers is
// clamped to the engine's width. Run begins by clearing all per-query
// state, so an engine borrowed from a pool carries nothing over from its
// previous borrower.
func (e *Engine) Run(seeds []graph.NodeID, ro RunOptions) (*Result, error) {
	start := time.Now()
	ro = ro.withDefaults()
	if err := ro.validate(); err != nil {
		return nil, err
	}
	workers := ro.Workers
	if workers == 0 || workers > e.width {
		workers = e.width
	}
	seedSet, err := normalizeSeeds(e.g.NumNodes(), seeds)
	if err != nil {
		return nil, err
	}
	e.reset()
	seedW := 1 / float64(len(seedSet))
	// thresh is the per-vertex activation bar: with no vertex above it, the
	// total leftover residual is below Epsilon, which is the L1 guarantee.
	thresh := ro.Epsilon / float64(e.g.NumNodes())
	for _, s := range seedSet {
		e.addResidual(s, seedW, thresh)
	}

	res := &Result{}
	rs := &roundState{alpha: 1 - ro.Damping, thresh: thresh, seedW: seedW, seeds: seedSet}
	e.drain(rs, ro, workers, 1, res)
	e.finish(res, ro, start)
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
// internal residual bound, delaying the early exit. Like Run, Repair clears
// all per-query state on entry, so pooled engines carry nothing over.
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
	workers := ro.Workers
	if workers == 0 || workers > e.width {
		workers = e.width
	}
	e.reset()
	for i, v := range estimate {
		e.p[i] = float64(v)
	}
	thresh := ro.Epsilon / float64(n)
	for _, s := range seeds {
		e.r[s.Node] += s.Mass
	}
	// residual is an upper bound on the signed system's total |r| mass; it
	// only shrinks as pushes deliver or leak mass, so it is a valid early
	// exit alongside the per-vertex frontier threshold.
	var residual float64
	for _, s := range seeds {
		rv := e.r[s.Node]
		if rv < 0 {
			rv = -rv
		}
		residual += rv
		if !e.inFrontier[s.Node] && rv > thresh {
			e.inFrontier[s.Node] = true
			pi := e.layout.PartitionOf(s.Node)
			e.frontier[pi] = append(e.frontier[pi], s.Node)
		}
	}

	res := &Result{}
	rs := &roundState{alpha: 1 - ro.Damping, thresh: thresh, signed: true}
	e.drain(rs, ro, workers, residual, res)
	e.finish(res, ro, start)
	return res, nil
}

// drain is the shared round loop of Run and Repair. residual enters as an
// upper bound on the remaining |r| mass and is kept one without re-summing r:
// every push removes at least the mass it delivers (exactly that when
// unsigned, more when signed residuals cancel). Before the loop stops it
// takes the exact figure into res.ResidualL1 and goes on if rounding left
// that above Epsilon, so only a run that hit MaxRounds can end Truncated.
func (e *Engine) drain(rs *roundState, ro RunOptions, workers int, residual float64, res *Result) {
	// The phase closures are created once per drain and reused by every
	// round: a query can run thousands of rounds, and closure construction
	// inside the loop was a measurable share of the serving miss path's
	// allocations.
	scatter := func(w, sp int) { e.scatterPartition(rs, w, sp) }
	gather := func(dp int) { e.gatherPartition(rs, dp) }
	denseAbove := ro.DenseFraction * float64(e.g.NumNodes())
	active := e.frontierSize()
	for {
		stop := active == 0 || res.Rounds >= ro.MaxRounds
		if stop || residual <= ro.Epsilon {
			res.ResidualL1 = residualMass(e.r, rs.signed)
			if stop || res.ResidualL1 <= ro.Epsilon {
				return
			}
			residual = res.ResidualL1
		}
		res.Rounds++
		if float64(active) > denseAbove {
			// While rounds stay dense nothing reads the frontier: the bins
			// stay empty and the last sweep's push count stands in for the
			// active count. Only when it falls to the dense bar does one
			// pass re-bin the vertices for the sparse rounds.
			res.DenseRounds++
			e.clearFrontier()
			delivered, pushed := e.sweep(rs)
			if rs.signed {
				// Shares of opposite sign cancel inside r, which the running
				// bound cannot see and a repair's stopping round depends on:
				// a repair pays the O(n) re-sum per sweep, a query does not.
				residual = residualMass(e.r, true)
			} else {
				residual -= delivered
			}
			e.pushes[0] += int64(pushed)
			active = pushed
			if float64(active) <= denseAbove {
				active = e.rebuildFrontier(rs)
			}
		} else {
			res.SparseRounds++
			rs.workers = workers
			if lim := 1 + active/minActivePerWorker; lim < rs.workers {
				rs.workers = lim
			}
			residual -= e.sparseRound(rs, scatter, gather)
			active = e.frontierSize()
		}
	}
}

// finish materializes the Result fields shared by Run and Repair.
func (e *Engine) finish(res *Result, ro RunOptions, start time.Time) {
	if !ro.TopOnly {
		res.Scores = make([]float64, len(e.p))
		copy(res.Scores, e.p)
	}
	res.Truncated = res.ResidualL1 > ro.Epsilon
	for _, c := range e.pushes {
		res.Pushes += c
	}
	if ro.TopK > 0 {
		res.Top = TopK(e.p, ro.TopK)
	}
	res.Duration = time.Since(start)
}

// reset clears per-query state, keeping allocations.
func (e *Engine) reset() {
	for i := range e.p {
		e.p[i] = 0
		e.r[i] = 0
		e.inFrontier[i] = false
	}
	for pi := range e.frontier {
		e.frontier[pi] = e.frontier[pi][:0]
	}
	for w := range e.bufs {
		for pi := range e.bufs[w] {
			e.bufs[w][pi] = e.bufs[w][pi][:0]
		}
		e.dangling[w] = 0
		e.pushes[w] = 0
		e.delivered[w] = 0
	}
}

// addResidual credits mass to v's residual and activates it if it crosses
// the threshold. Callers must hold ownership of v's partition (or run
// single-threaded).
func (e *Engine) addResidual(v graph.NodeID, mass, thresh float64) {
	e.r[v] += mass
	if !e.inFrontier[v] && e.r[v] > thresh {
		e.inFrontier[v] = true
		pi := e.layout.PartitionOf(v)
		e.frontier[pi] = append(e.frontier[pi], v)
	}
}

// roundState carries one Run's loop-invariant query parameters plus the
// worker count of the round in flight. The hoisted phase closures read it,
// so the round loop re-dispatches them without rebuilding anything.
type roundState struct {
	alpha, thresh, seedW float64
	seeds                []graph.NodeID
	workers              int // worker count of the sparse round in flight
	// signed selects Repair semantics: residuals may be negative (activation
	// and accounting use |r|), and dangling residual mass leaks instead of
	// teleporting to the seed distribution (seeds is nil).
	signed bool
}

// sparseRound performs one partition-centric scatter/gather push round and
// returns the mass delivered to the estimate (α × pushed residual).
// scatter and gather are the Run-hoisted wrappers around scatterPartition
// and gatherPartition.
func (e *Engine) sparseRound(rs *roundState, scatter func(w, sp int), gather func(dp int)) float64 {
	k, workers := e.layout.K(), rs.workers
	delivered := e.delivered[:workers]
	clear(delivered)

	// Scatter: each partition's frontier is drained by exactly one worker,
	// which owns p/r/inFrontier for that ID range and appends cross-partition
	// contributions to its private buffers.
	par.ForDynamicWorker(k, workers, scatter)

	// Gather: each destination partition applies every worker's buffered
	// updates with exclusive ownership of its residual range — the same
	// no-synchronization argument as the PCPM gather (Algorithm 4).
	par.ForDynamic(k, workers, gather)

	// Dangling residual teleports back to the seed distribution; seed sets
	// are tiny, so this runs serially after the parallel phases.
	var dmass float64
	for w := 0; w < workers; w++ {
		dmass += e.dangling[w]
		e.dangling[w] = 0
	}
	if dmass > 0 {
		for _, s := range rs.seeds {
			e.addResidual(s, dmass*rs.seedW, rs.thresh)
		}
	}
	var total float64
	for _, d := range delivered {
		total += d
	}
	return total
}

// scatterPartition drains source partition sp's frontier as worker w.
func (e *Engine) scatterPartition(rs *roundState, w, sp int) {
	outOff, outAdj := e.g.OutOffsets(), e.g.OutAdjacency()
	shift := e.layout.Shift()
	alpha, thresh := rs.alpha, rs.thresh
	bufs := e.bufs[w]
	var dmass, dlv float64
	var pushed int64
	for _, v := range e.frontier[sp] {
		e.inFrontier[v] = false
		rv := e.r[v]
		mag := rv
		if rs.signed && mag < 0 {
			mag = -mag
		}
		if mag <= thresh {
			continue
		}
		e.r[v] = 0
		e.p[v] += alpha * rv
		dlv += alpha * mag
		pushed++
		lo, hi := outOff[v], outOff[v+1]
		if lo == hi {
			if rs.signed {
				// Repair mode: dangling mass leaks, so all of it leaves the
				// residual system (counts fully against the residual bound).
				dlv += (1 - alpha) * mag
			} else {
				dmass += (1 - alpha) * rv
			}
			continue
		}
		share := (1 - alpha) * rv / float64(hi-lo)
		for _, u := range outAdj[lo:hi] {
			dp := int(u >> shift)
			bufs[dp] = append(bufs[dp], update{dst: u, val: share})
		}
	}
	e.frontier[sp] = e.frontier[sp][:0]
	e.dangling[w] += dmass
	e.pushes[w] += pushed
	e.delivered[w] += dlv
}

// gatherPartition applies every worker's buffered updates to destination
// partition dp, which it owns exclusively for the round.
func (e *Engine) gatherPartition(rs *roundState, dp int) {
	thresh := rs.thresh
	for w := 0; w < rs.workers; w++ {
		buf := e.bufs[w][dp]
		for _, u := range buf {
			e.r[u.dst] += u.val
			rv := e.r[u.dst]
			if rs.signed && rv < 0 {
				rv = -rv
			}
			if !e.inFrontier[u.dst] && rv > thresh {
				e.inFrontier[u.dst] = true
				e.frontier[dp] = append(e.frontier[dp], u.dst)
			}
		}
		e.bufs[w][dp] = buf[:0]
	}
}

// sweep performs one dense round as a single in-place push pass: every
// vertex whose |residual| is above the threshold when the pass reaches it, in
// ID order, moves α·r into the estimate and adds its out-shares straight into
// r, so mass entering a later vertex is pushed on within the same pass. The
// push invariant is order-agnostic, so the sweep lands on the same fixed point
// as a synchronous round in fewer passes. Dangling mass is folded into the
// seeds once after the pass (unsigned) or leaks (signed). It returns the mass
// that left the residual system and the number of pushes. Sequential at every
// worker count: the answer does not depend on the width that computed it.
func (e *Engine) sweep(rs *roundState) (delivered float64, pushed int) {
	outOff, outAdj := e.g.OutOffsets(), e.g.OutAdjacency()
	alpha, thresh := rs.alpha, rs.thresh
	p, r := e.p, e.r
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
			if rs.signed {
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
		tele := (1 - alpha) * dmass * rs.seedW
		for _, s := range rs.seeds {
			r[s] += tele
		}
	}
	return delivered, pushed
}

// frontierSize counts the binned active vertices.
func (e *Engine) frontierSize() int {
	active := 0
	for _, f := range e.frontier {
		active += len(f)
	}
	return active
}

// clearFrontier empties the bins on the way into a dense round; free while
// rounds stay dense, because the bins then stay empty.
func (e *Engine) clearFrontier() {
	for pi, f := range e.frontier {
		for _, v := range f {
			e.inFrontier[v] = false
		}
		e.frontier[pi] = f[:0]
	}
}

// rebuildFrontier re-bins every vertex above the threshold after the last
// dense round, handing back to the sparse rounds; the bins must be empty. It
// returns the active count.
func (e *Engine) rebuildFrontier(rs *roundState) int {
	active := 0
	for pi := range e.frontier {
		lo, hi := e.layout.Bounds(pi)
		f := e.frontier[pi]
		for v := lo; v < hi; v++ {
			if math.Abs(e.r[v]) > rs.thresh {
				e.inFrontier[v] = true
				f = append(f, v)
			}
		}
		e.frontier[pi] = f
		active += len(f)
	}
	return active
}

func residualMass(r []float64, signed bool) float64 {
	var total float64
	for _, v := range r {
		if signed && v < 0 {
			v = -v
		}
		total += v
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

// Run is the stateless single-query entry point: it builds an Engine,
// runs one seed set, and discards the scratch state. Callers serving many
// queries should build one Engine (or pool several) and call Engine.Run
// with per-query RunOptions instead.
func Run(g *graph.Graph, seeds []graph.NodeID, opts Options) (*Result, error) {
	eo, ro := opts.Split()
	e, err := New(g, eo)
	if err != nil {
		return nil, err
	}
	return e.Run(seeds, ro)
}

// RunBatch evaluates many seed sets over one graph. Queries are scheduled
// dynamically across the configured workers with each query running
// single-threaded — for batch workloads, cross-query parallelism beats
// intra-query parallelism because queries skew wildly in frontier size.
// Results are positionally aligned with the input; a query whose seed set
// is invalid fails the whole batch (callers validate seeds upfront to
// avoid burning the batch).
func RunBatch(g *graph.Graph, seedSets [][]graph.NodeID, opts Options) ([]*Result, error) {
	eo, ro := opts.Split()
	ro = ro.withDefaults()
	if err := ro.validate(); err != nil {
		return nil, err
	}
	for i, seeds := range seedSets {
		if _, err := normalizeSeeds(g.NumNodes(), seeds); err != nil {
			return nil, fmt.Errorf("ppr: batch query %d: %w", i, err)
		}
	}
	workers := opts.Workers
	eo.Workers = 1 // single-threaded queries need width-1 scatter buffers
	ro.Workers = 1
	results := make([]*Result, len(seedSets))
	errs := make([]error, len(seedSets))
	// One lazily-built engine per worker: each worker reuses its scratch
	// state (three O(n) slices plus frontier bins) across all the queries it
	// drains, instead of reallocating per query.
	engines := make([]*Engine, par.Workers(workers))
	par.ForDynamicWorker(len(seedSets), workers, func(w, i int) {
		if engines[w] == nil {
			e, err := New(g, eo)
			if err != nil {
				errs[i] = err
				return
			}
			engines[w] = e
		}
		results[i], errs[i] = engines[w].Run(seedSets[i], ro)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

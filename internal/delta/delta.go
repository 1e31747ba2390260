// Package delta makes registered graphs dynamic: it applies batched edge
// insertions and deletions to an immutable CSR graph (splicing only the
// changed adjacency ranges via graph.Patch) and repairs an existing
// PageRank vector incrementally instead of rerunning the engine from
// scratch.
//
// The repair is residual forward push with signed mass (cf. Zhang et al.
// 2023, "Two Parallel PageRank Algorithms via Improving Forward Push").
// Writing the global PageRank fixed point as p = α·s + (1−α)·M·p with
// α = 1−damping, s uniform, and M the column-stochastic out-distribution
// (dangling columns zero — the paper's leak formulation), a structural
// change M → M' perturbs the fixed point by exactly
//
//	r = ((1−α)/α) · (M' − M) · p,
//
// which is sparse: M' − M has non-zero columns only for vertices whose
// out-neighborhood changed. Seeding those residuals (positive along new
// out-lists, negative along old ones) and draining them with the signed
// push loop of internal/ppr yields p' = p + π'(r), the fixed point of the
// new graph — up to the convergence error the input ranks already carried,
// which the repair preserves rather than amplifies.
// Every round of that loop is one push pass (a sweep, or an Aitken step once
// the residual settles into one geometric mode) in the direction most of the
// new graph's edges point: a sweep reads every residual but pushes only
// those above the threshold, so a small structural delta, which perturbs
// ranks near the changed vertices, pushes few vertices while each round
// still costs an O(n) pass. graph.Patch derives the new graph's edge
// orientation from the old one's in O(batch), so choosing the direction
// costs a repair nothing. On the serving graph, whose passes run descending,
// a batch of 1–4 uniform edges takes 2.9–3.1 rounds (3.6–3.8 ascending) and
// one among the 4,096 highest in-degree vertices 10–13 (13–14).
//
// When the delta dirties too much residual mass (hub rewirings, huge
// batches) the sparse repair would approach full-recompute cost while
// holding float32-sourced error; Apply then reports FellBack and leaves the
// caller to rerun its engine on the rebuilt graph. The redistribute-dangling
// formulation makes (M' − M) dense whenever a vertex changes dangling
// status, so it always takes the fallback path.
package delta

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/graph"
	"repro/internal/ppr"
)

// DefaultFallbackL1 is the seeded-residual L1 mass above which Apply
// declines to repair incrementally. One unit of residual is the whole rank
// mass of the graph; 0.1 keeps the push cost well under an engine rerun
// while bounding the repair's own error accumulation.
const DefaultFallbackL1 = 0.1

// DefaultEpsilon is the default repair termination bound: the drain's own
// L1 error contribution. 1e-6 is the tolerance the delta goldens hold
// repairs to, and four orders of magnitude tighter than the convergence
// error of the serving default (20 fixed engine iterations at damping
// 0.85). Callers preserving tighter rank vectors set Epsilon accordingly.
const DefaultEpsilon = 1e-6

// EdgeDelta is one batch of structural changes. Deletions are matched by
// (Src, Dst) and remove one parallel instance each; deleting an edge the
// graph does not hold is an error (a client bug worth surfacing, not
// masking). Insertions may create parallel edges and self-loops, exactly
// like ingest. All endpoints must name existing vertices: growing the node
// set changes the uniform teleport distribution itself, which is a dense
// perturbation no sparse repair can absorb — re-upload for that.
type EdgeDelta struct {
	Insert []graph.Edge
	Delete []graph.Edge
}

// Size returns the total number of edge changes in the batch.
func (d EdgeDelta) Size() int { return len(d.Insert) + len(d.Delete) }

// Options configure one Apply call. The zero value selects the defaults:
// damping 0.85, epsilon DefaultEpsilon (1e-6), fallback threshold
// DefaultFallbackL1 (0.1).
type Options struct {
	// Damping is the factor the input ranks were computed with; the repair
	// must push with the same teleport probability or it converges to a
	// different fixed point (default 0.85).
	Damping float64
	// Epsilon bounds the undelivered |residual| mass at termination, i.e.
	// the additional L1 error the repair itself introduces (default
	// DefaultEpsilon).
	Epsilon float64
	// FallbackL1 is the seeded-residual mass above which Apply reports
	// FellBack instead of repairing (default DefaultFallbackL1; negative
	// disables the fallback entirely).
	FallbackL1 float64
	// MaxRounds caps push rounds; a repair that hits it reports FellBack
	// (a truncated repair is not a rank vector worth publishing). Default
	// ppr.DefaultMaxRounds.
	MaxRounds int
	// RedistributeDangling marks that the input ranks were computed with
	// the dangling-redistribution correction. That formulation's transition
	// matrix has dense dangling columns, so Apply always falls back.
	RedistributeDangling bool
}

// Result reports one applied delta. Graph is always the rebuilt graph;
// Ranks is nil when FellBack is set, in which case the caller must rerun
// its engine on Graph (Reason says why).
type Result struct {
	// Graph is the post-delta graph.
	Graph *graph.Graph
	// Ranks is the repaired rank vector, nil when FellBack.
	Ranks []float32
	// FellBack reports that the ranks were NOT repaired; Reason explains.
	FellBack bool
	Reason   string
	// Changed counts distinct vertices whose out-neighborhood changed.
	Changed int
	// SeedL1 is the dirtied residual mass the delta injected (Σ|r| over the
	// seeded vertices) — the quantity compared against FallbackL1.
	SeedL1 float64
	// ResidualL1, Rounds, and Pushes summarize the repair drain (zero when
	// FellBack); Rounds counts push passes, Pushes every vertex push.
	ResidualL1 float64
	Rounds     int
	Pushes     int64
	// RebuildTime and RepairTime split the wall clock between the CSR
	// rebuild and the residual drain.
	RebuildTime time.Duration
	RepairTime  time.Duration
}

// Rebuild applies d to g structurally and returns the new graph plus the
// set of distinct source vertices whose out-neighborhood changed. The heavy
// lifting is graph.Patch, which splices only the changed adjacency ranges
// instead of round-tripping through an edge list. It does not touch ranks;
// Apply wraps it with the incremental repair.
func Rebuild(g *graph.Graph, d EdgeDelta) (*graph.Graph, map[graph.NodeID]struct{}, error) {
	if d.Size() == 0 {
		return nil, nil, fmt.Errorf("delta: empty edge delta")
	}
	ng, err := graph.Patch(g, d.Insert, d.Delete)
	if err != nil {
		return nil, nil, fmt.Errorf("delta: %w", err)
	}
	changed := make(map[graph.NodeID]struct{}, len(d.Insert)+len(d.Delete))
	for _, e := range d.Insert {
		changed[e.Src] = struct{}{}
	}
	for _, e := range d.Delete {
		changed[e.Src] = struct{}{}
	}
	return ng, changed, nil
}

// Apply rebuilds g with d and repairs ranks incrementally. ranks must be
// indexed by node and computed on g with o.Damping; the repaired vector has
// the same convergence quality as the input, plus at most o.Epsilon of L1
// error from the drain itself.
func Apply(g *graph.Graph, ranks []float32, d EdgeDelta, o Options) (*Result, error) {
	if len(ranks) != g.NumNodes() {
		return nil, fmt.Errorf("delta: rank vector has %d entries, graph has %d nodes", len(ranks), g.NumNodes())
	}
	damping := o.Damping
	if damping == 0 {
		damping = ppr.DefaultDamping
	}
	if damping <= 0 || damping >= 1 {
		return nil, fmt.Errorf("delta: damping %v outside (0,1)", damping)
	}
	fallback := o.FallbackL1
	if fallback == 0 {
		fallback = DefaultFallbackL1
	}
	epsilon := o.Epsilon
	if epsilon == 0 {
		epsilon = DefaultEpsilon
	}

	t0 := time.Now()
	ng, changed, err := Rebuild(g, d)
	if err != nil {
		return nil, err
	}
	res := &Result{Graph: ng, Changed: len(changed), RebuildTime: time.Since(t0)}

	if o.RedistributeDangling {
		res.FellBack = true
		res.Reason = "redistribute-dangling formulation perturbs ranks densely; full recompute required"
		return res, nil
	}

	// Seed r = ((1-α)/α)·(M'−M)·p: +c/deg' along each changed vertex's new
	// out-list, −c/deg along its old one, with c = (damping/(1−damping))·p[u]
	// (α = 1−damping). Dangling vertices contribute no terms on their
	// dangling side — that mass leaked in the old fixed point and keeps
	// leaking in the new one.
	// Every float sum below runs in sorted-node order. Map-order iteration
	// would make the per-node masses and SeedL1 (and, downstream, the
	// repair's ResidualL1 and the server's cumulative drift accounting)
	// vary by an ulp from run to run — float32 rank rounding absorbs that,
	// but a replica replaying the leader's exact drift values would then
	// disagree with its own live recomputation of them.
	scale := damping / (1 - damping)
	touched := make([]graph.NodeID, 0, len(changed))
	for u := range changed {
		touched = append(touched, u)
	}
	slices.Sort(touched)
	seedMass := make(map[graph.NodeID]float64, 4*len(changed))
	for _, u := range touched {
		c := scale * float64(ranks[u])
		if c == 0 {
			continue
		}
		if deg := ng.OutDegree(u); deg > 0 {
			w := c / float64(deg)
			for _, v := range ng.OutNeighbors(u) {
				seedMass[v] += w
			}
		}
		if deg := g.OutDegree(u); deg > 0 {
			w := c / float64(deg)
			for _, v := range g.OutNeighbors(u) {
				seedMass[v] -= w
			}
		}
	}
	order := make([]graph.NodeID, 0, len(seedMass))
	for v := range seedMass {
		order = append(order, v)
	}
	slices.Sort(order)
	seeds := make([]ppr.ResidualSeed, 0, len(seedMass))
	for _, v := range order {
		m := seedMass[v]
		if m == 0 {
			continue
		}
		seeds = append(seeds, ppr.ResidualSeed{Node: v, Mass: m})
		if m < 0 {
			m = -m
		}
		res.SeedL1 += m
	}

	if fallback >= 0 && res.SeedL1 > fallback {
		res.FellBack = true
		res.Reason = fmt.Sprintf("seeded residual %.3g exceeds fallback threshold %.3g", res.SeedL1, fallback)
		return res, nil
	}

	t1 := time.Now()
	eng, err := ppr.New(ng, ppr.EngineOptions{})
	if err != nil {
		return nil, fmt.Errorf("delta: %w", err)
	}
	rr, err := eng.Repair(ranks, seeds, ppr.RunOptions{Damping: damping, Epsilon: epsilon, MaxRounds: o.MaxRounds})
	if err != nil {
		return nil, fmt.Errorf("delta: repair: %w", err)
	}
	res.RepairTime = time.Since(t1)
	res.Rounds, res.Pushes, res.ResidualL1 = rr.Rounds, rr.Pushes, rr.ResidualL1
	if rr.Truncated {
		// A round-capped repair still holds undelivered residual; publishing
		// it would silently degrade the ranks, so hand off to a full run.
		res.FellBack = true
		res.Reason = fmt.Sprintf("repair truncated after %d rounds with residual %.3g", rr.Rounds, rr.ResidualL1)
		return res, nil
	}
	res.Ranks = rr.Ranks // clamped at 0 and narrowed by Repair
	return res, nil
}

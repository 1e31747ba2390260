package serve

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/delta"
	"repro/internal/wal"
)

// Errors of the edge-delta path; the HTTP layer maps ErrBadDelta to 400 and
// ErrDeltaTooLarge to 413.
var (
	ErrBadDelta      = errors.New("serve: invalid edge delta")
	ErrDeltaTooLarge = errors.New("serve: edge delta too large")
)

// defaultMaxDeltaEdges caps one batch's edge changes when
// Config.MaxDeltaEdges is unset.
const defaultMaxDeltaEdges = 100000

// maxDeltaRounds caps repair push rounds per applied batch; a repair that
// hits it falls back to a full engine run, so either way the work one
// mutation can demand is bounded.
const maxDeltaRounds = 1000

// maxRepairDrift is the default cumulative incremental-repair error
// budget: once the sum of repair residual bounds since the last full
// engine run crosses it, the next delta forces a recompute instead of
// repairing. At the default repair epsilon (1e-6) that is ~1000
// consecutive incremental deltas — and the budget is still 40x below the
// convergence error of the default 20-iteration engine run itself. The
// drift rides in the published snapshot, its persisted metadata and every
// logged repair, so a recovered or promoted daemon resumes the budget.
const maxRepairDrift = 1e-3

// DeltaStatus reports one applied edge-delta batch.
type DeltaStatus struct {
	Graph string `json:"graph"`
	// Version of the snapshot the delta published.
	Version uint64 `json:"version"`
	// Mode is "incremental" when the rank vector was repaired in place,
	// "recompute" when the repair fell back to a full engine run.
	Mode string `json:"mode"`
	// Reason explains a recompute fallback.
	Reason string `json:"reason,omitempty"`
	// Inserted and Deleted count the applied edge changes; Changed counts
	// distinct vertices whose out-neighborhood changed.
	Inserted int `json:"inserted"`
	Deleted  int `json:"deleted"`
	Changed  int `json:"changed"`
	// SeedL1 is the residual mass the delta dirtied (the fallback
	// comparator); ResidualL1 and Rounds summarize the incremental repair.
	SeedL1     float64 `json:"seed_l1"`
	ResidualL1 float64 `json:"residual_l1,omitempty"`
	Rounds     int     `json:"rounds,omitempty"`
	// Drift is the cumulative repair-error bound carried by the published
	// snapshot (zero after a full engine run); crossing maxRepairDrift
	// forces the recompute path.
	Drift float64 `json:"drift"`
	// Nodes and Edges describe the post-delta graph.
	Nodes int   `json:"nodes"`
	Edges int64 `json:"edges"`
	// Duration is the end-to-end mutation time (rebuild + repair or
	// rerun); ComputeMS is its wire form.
	Duration  time.Duration `json:"-"`
	ComputeMS float64       `json:"compute_ms"`
}

func (s *Server) maxDeltaEdges() int {
	switch {
	case s.cfg.MaxDeltaEdges == 0:
		return defaultMaxDeltaEdges
	case s.cfg.MaxDeltaEdges < 0:
		return math.MaxInt
	}
	return s.cfg.MaxDeltaEdges
}

// ApplyEdgeDelta applies one batch of edge insertions/deletions to name's
// graph and publishes a new snapshot whose ranks were repaired
// incrementally (or fully recomputed when the repair declined — dirtied
// mass over the threshold, redistribute-dangling formulation, or a
// truncated drain). The call is synchronous: when it returns, readers see
// the new structure and ranks.
//
// A delta holds the graph's writer slot from before its WAL append until its
// publish: a delta arriving while any other write to the name runs waits
// for it (and fails with ErrNotFound if that write removed the graph), and
// recompute requests arriving while a delta runs coalesce onto it — they
// wanted fresh ranks, and the delta publishes exactly that. The new
// structure starts with no personalized answers: those computed on the old
// one stay with it (structMemo).
//
// Each incremental repair adds at most its epsilon of L1 error; the
// cumulative bound rides along in Snapshot.RepairDrift and, once it
// crosses maxRepairDrift, the next delta takes the full-recompute path —
// so arbitrarily long mutation streams stay anchored to the fixed point.
func (s *Server) ApplyEdgeDelta(name string, d delta.EdgeDelta) (st DeltaStatus, err error) {
	if _, err := s.lookup(name); err != nil {
		return DeltaStatus{}, err
	}
	if d.Size() == 0 {
		return DeltaStatus{}, fmt.Errorf("%w: no insertions or deletions", ErrBadDelta)
	}
	if limit := s.maxDeltaEdges(); d.Size() > limit {
		return DeltaStatus{}, fmt.Errorf("%w: %d edge changes exceed the limit of %d",
			ErrDeltaTooLarge, d.Size(), limit)
	}

	run, e, _ := s.claim(name, true)
	defer func() { s.release(name, run, err) }()
	if e == nil {
		return DeltaStatus{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	start := time.Now()
	st, err = s.applyDelta(e, d)
	e.mu.Lock()
	switch {
	case errors.Is(err, ErrBadDelta):
		// A malformed request is the client's error, not the graph's state:
		// leave lastErr (possibly a genuine engine failure) untouched.
	case err != nil:
		e.lastErr = err.Error()
	default:
		e.lastErr = ""
	}
	e.mu.Unlock()
	if err != nil {
		return DeltaStatus{}, err
	}
	st.Duration = time.Since(start)
	st.ComputeMS = float64(st.Duration) / float64(time.Millisecond)
	s.log.Info("edge delta applied", "graph", name, "version", st.Version,
		"mode", st.Mode, "inserted", st.Inserted, "deleted", st.Deleted,
		"seed_l1", st.SeedL1, "duration", st.Duration)
	return st, nil
}

// applyDelta does the rebuild + repair (or fallback rerun) and publishes
// the snapshot. The caller holds the graph's writer slot, making this the
// only writer of e.snap.
func (s *Server) applyDelta(e *entry, d delta.EdgeDelta) (DeltaStatus, error) {
	snap := e.snap.Load()
	opts := snap.Options
	res, err := delta.Apply(snap.Graph, snap.Ranks, d, delta.Options{
		Damping:              opts.Damping,
		MaxRounds:            maxDeltaRounds,
		RedistributeDangling: opts.RedistributeDangling,
	})
	if err != nil {
		// Everything Apply rejects (out-of-range endpoints, deleting an
		// absent edge, short rank vectors) is a malformed request.
		return DeltaStatus{}, fmt.Errorf("%w: %v", ErrBadDelta, err)
	}
	st := DeltaStatus{
		Graph:    e.name,
		Inserted: len(d.Insert),
		Deleted:  len(d.Delete),
		Changed:  res.Changed,
		SeedL1:   res.SeedL1,
	}

	// A successful repair still goes through the engine when the
	// accumulated repair-error budget is spent: drift bounds only sum.
	fellBack, reason := res.FellBack, res.Reason
	drift := snap.RepairDrift + res.ResidualL1
	if !fellBack && drift > s.repairDrift {
		fellBack = true
		reason = fmt.Sprintf("accumulated repair drift %.3g exceeds budget %.3g", drift, s.repairDrift)
	}

	var ns *Snapshot
	if fellBack {
		st.Mode = "recompute"
		st.Reason = reason
		ns, err = s.compute(snap, res.Graph, opts)
		if err != nil {
			return DeltaStatus{}, err
		}
	} else {
		st.Mode = "incremental"
		st.ResidualL1 = res.ResidualL1
		st.Rounds = res.Rounds
		ns = seal(snap, &Snapshot{
			Graph:   res.Graph,
			Ranks:   res.Ranks,
			Options: opts,
			Method:  snap.Method,
			// Iterations/Delta mirror what produced the vector: repair
			// rounds and the undelivered residual bound.
			Iterations:  res.Rounds,
			Delta:       res.ResidualL1,
			RepairDrift: drift,
			ComputedAt:  time.Now(),
			ComputeTime: res.RebuildTime + res.RepairTime,
		})
	}
	// Write-ahead: the batch becomes durable before its snapshot becomes
	// visible. Parent links the record to the snapshot it mutated. A
	// fallback ran the engine, so its whole snapshot ships in the blob; an
	// incremental repair ships its repaired vector as a signed residual
	// delta (or the full vector when the residual is not smaller) plus the
	// drift accounting, and appliers rebuild the structure from the edge
	// lists and install the leader's ranks bit-for-bit.
	m := deltaMeta{Name: e.name, Parent: snap.WalLSN, Insert: d.Insert, Delete: d.Delete,
		FellBack: fellBack, Reason: reason}
	var blob []byte
	if s.wal.Load() != nil {
		if fellBack {
			if blob, err = snapshotBlob(e.name, ns); err != nil {
				return DeltaStatus{}, err
			}
		} else {
			m.RanksEnc, blob = shipRanks(snap.Ranks, ns.Ranks)
			m.Rounds, m.Residual, m.Drift = res.Rounds, res.ResidualL1, drift
		}
	}
	lsn, err := s.walAppend(wal.RecEdgeDelta, m, blob)
	if err != nil {
		return DeltaStatus{}, err
	}
	ns.WalLSN = lsn
	e.snap.Store(ns)
	st.Version = ns.Version
	st.Drift = ns.RepairDrift
	st.Nodes = ns.Graph.NumNodes()
	st.Edges = ns.Graph.NumEdges()
	return st, nil
}

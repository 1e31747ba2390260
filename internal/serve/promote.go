package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"

	"repro/internal/wal"
)

// Follower promotion. A follower runs with a dormant data dir: Recover
// leaves it untouched and Follow serves purely from memory. Promote turns
// that follower into a durable leader in place, between two records the
// tail loop applies (it holds the follower's mutex throughout):
//
//	follower ──open empty dir──▶ advance to cut ──checkpoint──▶ open gate, cancel loop ──▶ leader
//	    ▲                                              │
//	    └───── failure: written files removed ─────────┘
//
//  1. Open the WAL in the data dir and require it empty. A refused
//     promotion has changed nothing: the follower goes on following.
//  2. The last applied LSN is the promotion cut: no record is half
//     applied while the mutex is held. Advance the new log's sequence to
//     the cut, so the first post-promotion append is cut+1 — the LSN
//     chain continues exactly where the old leader's stream stopped for
//     us.
//  3. Checkpoint the current registry into the new log. The snapshots ARE
//     the history below the cut: OldestLSN lands at cut+1, so a surviving
//     follower whose cursor is at or behind the cut gets 410 Gone from
//     GET /v1/wal and re-bootstraps, exactly as after a deep checkpoint.
//     If this fails, the files it wrote are removed (the dir held none
//     before), so the follower keeps following and a later retry starts
//     from the same empty dir.
//  4. Flip the write gate and cancel the tail loop's in-flight poll; the
//     loop applies nothing once the gate is open. From this point
//     leaderOnly admits mutations, ReplStatus reports a (promoted) leader,
//     and the WAL/bootstrap endpoints serve because s.wal is non-nil.
//
// Promotion is operator-driven and carries no fencing: the caller of
// POST /v1/repl/promote asserts the old leader is dead. If it is not,
// both accept writes and their histories diverge — see the split-brain
// caveat in docs/ARCHITECTURE.md.

// ErrNotPromotable reports a promotion or re-aim request the server's
// current role/configuration cannot honor (HTTP 409).
var ErrNotPromotable = errors.New("serve: not promotable")

// PromoteReport is the outcome of a Promote call (and the response body of
// POST /v1/repl/promote).
type PromoteReport struct {
	Role string `json:"role"`
	// Promoted is false when the server already was a leader (an idempotent
	// re-promote, e.g. a retried request after a dropped response).
	Promoted bool `json:"promoted"`
	// CutLSN is the last replicated record folded into the adopted log,
	// the same on every answer of the promoted process, retries included.
	// The cut is kept in memory only: a leader that never followed, or has
	// restarted since its promotion, answers 0. NextLSN is
	// where the server's next record goes (CutLSN+2 on a fresh promotion:
	// the adoption's checkpoint marker is CutLSN+1).
	CutLSN  uint64 `json:"cut_lsn"`
	NextLSN uint64 `json:"next_lsn"`
	Graphs  int    `json:"graphs"`
}

// Promote turns a follower into a durable leader (see the package comment
// above for the state machine). It is idempotent on an already-promoted
// server and single-flighted: concurrent calls serialize on the
// follower's mutex, the first does the work, the rest observe a leader.
func (s *Server) Promote() (PromoteReport, error) {
	fs := s.follower
	if fs == nil {
		return s.leaderReport(0)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if !s.gateFollower.Load() {
		return s.leaderReport(fs.cut)
	}
	if s.cfg.DataDir == "" {
		return PromoteReport{}, fmt.Errorf(
			"%w: promotion needs a data dir to adopt (start the follower with one)", ErrNotPromotable)
	}

	st, err := wal.Open(s.cfg.DataDir, wal.Options{SyncEvery: s.cfg.FsyncEvery})
	if err != nil {
		return PromoteReport{}, fmt.Errorf("serve: opening data dir for promotion: %w", err)
	}
	// The dir must be virgin: adopting one that already carries history
	// (say, the dead leader's own files restored by mistake) would graft
	// this follower's state onto a log that contradicts it.
	if st.NextLSN() != 1 || len(st.Snapshots()) > 0 {
		return PromoteReport{}, errors.Join(fmt.Errorf(
			"%w: data dir %q already holds WAL state; promotion needs an empty dir",
			ErrNotPromotable, s.cfg.DataDir), st.Close())
	}

	cut := fs.applied.Load()
	err = st.Advance(cut)
	if err == nil {
		s.wal.Store(st)
		err = s.Checkpoint()
	}
	if err != nil {
		// Roll the adoption back: a leader that cannot persist its opening
		// state must not accept writes.
		s.wal.Store(nil)
		return PromoteReport{}, errors.Join(fmt.Errorf("serve: adopting data dir: %w", err),
			st.Close(), removeWALFiles(s.cfg.DataDir))
	}
	s.gateFollower.Store(false)
	fs.cut = cut
	if fs.cancel != nil {
		fs.cancel()
	}
	s.log.Info("promoted to leader", "cut_lsn", cut, "graphs", s.NumGraphs(),
		"old_leader", fs.leaderAddr(), "data_dir", s.cfg.DataDir)
	rep, err := s.leaderReport(cut)
	rep.Promoted = true
	return rep, err
}

// leaderReport answers a promotion request on a server that leads, whose
// promotion folded in the records up to cut; a standalone server leads
// nothing.
func (s *Server) leaderReport(cut uint64) (PromoteReport, error) {
	st := s.wal.Load()
	if st == nil {
		return PromoteReport{}, fmt.Errorf(
			"%w: standalone server is not replicating from anyone", ErrNotPromotable)
	}
	return PromoteReport{Role: "leader", CutLSN: cut, NextLSN: st.NextLSN(), Graphs: s.NumGraphs()}, nil
}

// removeWALFiles deletes the snapshots and log segments in dir: what a
// failed promotion wrote into a dir it proved held none.
func removeWALFiles(dir string) (err error) {
	snaps, _ := filepath.Glob(filepath.Join(dir, "*.snap")) // a well-formed pattern cannot fail
	segs, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
	for _, f := range append(snaps, segs...) {
		err = errors.Join(err, os.Remove(f))
	}
	return err
}

// Reaim points a running follower at a new leader address. The change
// takes effect at the follower's next bootstrap or tail round; a cursor
// that predates the new leader's log window re-bootstraps through the
// ordinary 410/ErrPruned path, so re-aiming at a freshly promoted leader
// needs no special handling.
func (s *Server) Reaim(leader string) error {
	if !s.gateFollower.Load() || s.follower == nil {
		return fmt.Errorf("%w: only a follower can re-aim (this server is a %s)",
			ErrNotPromotable, s.ReplStatus().Role)
	}
	u, err := url.Parse(leader)
	if err != nil || u.Host == "" || (u.Scheme != "http" && u.Scheme != "https") {
		return fmt.Errorf("%w: bad leader address %q: want an http(s) base URL", ErrInvalidOptions, leader)
	}
	s.follower.setLeader(leader)
	s.log.Info("follower re-aimed", "leader", leader)
	return nil
}

// POST /v1/repl/promote
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	rep, err := s.Promote()
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// POST /v1/repl/reaim  {"leader": "http://host:port"}
func (s *Server) handleReaim(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Leader string `json:"leader"`
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad JSON body: %v", err))
		return
	}
	if err := s.Reaim(req.Leader); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"leader": req.Leader})
}

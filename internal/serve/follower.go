package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/repl"
	"repro/internal/wal"
)

// A follower is continuous recovery: it bootstraps from the leader's
// published snapshots exactly as Recover seeds itself from persisted ones,
// then tails the leader's WAL stream and pushes every record through the
// same applyRecord — skips of what the registry's snapshots cover, parent-LSN
// orphan checks, shipped state installed under the leader's LSN. The wire
// decoder keeps the WAL's crash discipline: a torn stream resumes from the
// cursor, while corruption (or a pruned cursor) throws the registry away and
// re-bootstraps — a follower never serves from a state it cannot prove it
// reached record by record.
//
// Follower lifecycle: bootstrapping → catchup → steady. Steady is entered
// the first time a tail round ends with the cursor at the leader's head;
// a reconnect keeps the state (the LSN sequence survives a leader
// restart), a re-bootstrap resets it.
//
// Two runtime transitions exist on top of the loop: Reaim atomically
// swaps the leader address (the next bootstrap/tail round follows it, and
// a cursor predating the new leader's log re-bootstraps via the ordinary
// ErrPruned path), and Promote makes the server a leader between two
// applied records (see promote.go): each record's apply, each bootstrap's
// install and a whole promotion hold the follower's mutex, so a promotion
// cuts at a record boundary, and one that fails leaves the loop running.

// Follower states reported by ReplStatus.
const (
	FollowStateBootstrapping = "bootstrapping"
	FollowStateCatchup       = "catchup"
	FollowStateSteady        = "steady"
)

const (
	defaultFollowPollWait = 25 * time.Second
	defaultFollowBackoff  = 200 * time.Millisecond
	maxFollowBackoff      = 5 * time.Second
)

// errApplyFailed wraps an applyRecord failure on a tailed record. It is
// corruption-class: retrying the same record would fail the same way, so
// the follower re-bootstraps instead of spinning.
var errApplyFailed = errors.New("serve: applying replicated record failed")

// errPromoted ends a tail round or bootstrap that finds the server
// promoted: nothing more is applied once the write gate is open.
var errPromoted = errors.New("serve: promoted to leader")

// followerState is the mutable side of a follower Server. The apply
// goroutine (Follow) owns the registry; status fields are atomics so the
// HTTP status endpoint and tests can observe progress without locks.
type followerState struct {
	// leader is the current leader base URL (string); Reaim swaps it and
	// the loop re-reads it every round, so a re-aim takes effect at the
	// next bootstrap or tail request.
	leader   atomic.Value
	pollWait time.Duration

	// mu is held around each applied record with its applied LSN, around
	// each bootstrap's registry swap with its cursor, and through a whole
	// Promote: a promotion sees the registry between two records, and
	// the loop applies nothing once the write gate is open.
	mu sync.Mutex
	// cancel ends the running Follow's context; nil when none runs.
	cancel context.CancelFunc // guarded by mu
	// cut is the last record a successful Promote folded in, which every
	// later Promote of this process answers.
	cut uint64 // guarded by mu

	state      atomic.Value // string: one of the FollowState constants
	applied    atomic.Uint64
	leaderNext atomic.Uint64
	records    atomic.Uint64
	skipped    atomic.Uint64
	bootstraps atomic.Uint64
	tornResume atomic.Uint64
	corrupt    atomic.Uint64
	reconnects atomic.Uint64
	reaims     atomic.Uint64
	lastErr    atomic.Value // string

	// Test hooks, set before Follow starts. applyHook runs before each
	// tailed record is applied (an error aborts the round as an apply
	// failure); pollGate runs before each tail request.
	applyHook func(*wal.Record) error
	pollGate  func()
}

func newFollowerState(cfg Config) *followerState {
	fs := &followerState{pollWait: cfg.FollowPollWait}
	if fs.pollWait <= 0 {
		fs.pollWait = defaultFollowPollWait
	}
	fs.leader.Store(cfg.FollowAddr)
	fs.state.Store(FollowStateBootstrapping)
	fs.lastErr.Store("")
	return fs
}

func (fs *followerState) leaderAddr() string { return fs.leader.Load().(string) }

func (fs *followerState) setLeader(addr string) {
	fs.leader.Store(addr)
	fs.reaims.Add(1)
}

// client builds the repl client for the current round against the current
// leader address.
func (fs *followerState) client() repl.Client {
	return repl.Client{Base: fs.leaderAddr(), PollWait: fs.pollWait}
}

func (fs *followerState) setErr(err error) {
	if err != nil {
		fs.lastErr.Store(err.Error())
	}
}

// Follow runs the follower loop — bootstrap, catch up, steady tail,
// re-bootstrap on prune or corruption — until ctx is canceled or a
// promotion ends it (then it returns nil). It must be the only mutator of
// the server: the HTTP layer already rejects writes while the server's
// role is follower, and direct API mutations on a follower are a caller
// bug. One Follow runs at a time, and none on a promoted server.
func (s *Server) Follow(ctx context.Context) error {
	if s.cfg.FollowAddr == "" {
		return errors.New("serve: Follow requires Config.FollowAddr")
	}
	fs := s.follower
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	fs.mu.Lock()
	switch {
	case !s.gateFollower.Load():
		fs.mu.Unlock()
		return errors.New("serve: promoted to leader, nothing to follow")
	case fs.cancel != nil:
		fs.mu.Unlock()
		return errors.New("serve: Follow already running")
	}
	fs.cancel = cancel
	fs.mu.Unlock()

	backoff := s.followBackoff
	delay := backoff
	// sleep waits out the current backoff (doubling it for next time) and
	// reports whether the loop should continue.
	sleep := func() bool {
		t := time.NewTimer(delay)
		defer t.Stop()
		delay = min(2*delay, maxFollowBackoff)
		select {
		case <-ctx.Done():
			return false
		case <-t.C:
			return true
		}
	}

	for ctx.Err() == nil {
		fs.state.Store(FollowStateBootstrapping)
		cursor, err := s.followBootstrap(ctx)
		if err != nil {
			fs.setErr(err)
			s.log.Warn("follower bootstrap failed", "leader", fs.leaderAddr(), "error", err)
			if !sleep() {
				break
			}
			continue
		}
		fs.bootstraps.Add(1)
		fs.state.Store(FollowStateCatchup)
		delay = backoff
		s.log.Info("follower bootstrapped", "leader", fs.leaderAddr(),
			"graphs", s.NumGraphs(), "from", cursor)

	tail:
		for ctx.Err() == nil {
			if fs.pollGate != nil {
				fs.pollGate()
			}
			client := fs.client()
			res, err := client.Tail(ctx, cursor, func(rec *wal.Record) error {
				if fs.applyHook != nil {
					if herr := fs.applyHook(rec); herr != nil {
						return fmt.Errorf("%w: %v", errApplyFailed, herr)
					}
				}
				fs.mu.Lock()
				defer fs.mu.Unlock()
				if !s.gateFollower.Load() {
					return errPromoted
				}
				applied, aerr := s.applyRecord(rec)
				if aerr != nil {
					return fmt.Errorf("%w: %v", errApplyFailed, aerr)
				}
				cursor = rec.LSN + 1
				fs.applied.Store(rec.LSN)
				if applied {
					fs.records.Add(1)
				} else {
					fs.skipped.Add(1)
				}
				return nil
			})
			if res.LeaderNext > 0 {
				fs.leaderNext.Store(res.LeaderNext)
			}
			cursor = max(cursor, res.Next)
			switch {
			case ctx.Err() != nil:
				break tail
			case err == nil:
				delay = backoff
				fs.lastErr.Store("")
				if res.CaughtUp {
					fs.state.Store(FollowStateSteady)
				}
			case errors.Is(err, repl.ErrPruned):
				// The leader checkpointed past our cursor — or a re-aim
				// pointed us at a promoted leader whose log starts past it;
				// either way only its snapshots can carry us forward.
				fs.setErr(err)
				s.log.Info("follower cursor pruned; re-bootstrapping", "cursor", cursor)
				break tail
			case errors.Is(err, errApplyFailed), isCorruption(err):
				fs.corrupt.Add(1)
				fs.setErr(err)
				s.log.Warn("follower stream corrupt; re-bootstrapping", "cursor", cursor, "error", err)
				sleep() // pace re-bootstraps; a canceled ctx exits the outer loop
				break tail
			default:
				// A tear (the transport died mid-frame, after every record
				// before it was applied) or a transport failure (leader
				// down, connection refused): LSNs survive a leader restart,
				// so keep the advanced cursor and retry.
				if errors.Is(err, repl.ErrTorn) {
					fs.tornResume.Add(1)
				} else {
					fs.reconnects.Add(1)
				}
				fs.setErr(err)
				if !sleep() {
					break tail
				}
			}
		}
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.cancel = nil
	if !s.gateFollower.Load() {
		return nil
	}
	return ctx.Err()
}

// followBootstrap downloads the leader's bootstrap stream and installs it,
// replacing the local registry wholesale — atomically. Every record is
// decoded and staged into a fresh map first; only after the terminator
// frame validates does one registry swap publish it. Readers therefore see
// the complete old registry or the complete new one, never a mix, and a
// bootstrap that fails mid-stream leaves the old state fully intact. Each
// staged snapshot carries its frame's LSN, which is what applyRecord's skip
// check reads. It returns the tail cursor.
func (s *Server) followBootstrap(ctx context.Context) (uint64, error) {
	client := s.follower.client()
	b, err := client.FetchBootstrap(ctx)
	if err != nil {
		return 0, err
	}
	if b.From == 0 {
		return 0, errors.New("serve: bootstrap stream carries no tail cursor")
	}
	staged := make(map[string]*entry, len(b.Records))
	for _, rec := range b.Records {
		var m addMeta
		if err := json.Unmarshal(rec.Meta, &m); err != nil {
			return 0, fmt.Errorf("serve: bootstrap record %d metadata: %w", rec.LSN, err)
		}
		gs, sm, err := decodeSnapshotBlob(rec.Blob, m.Name)
		if err != nil {
			return 0, fmt.Errorf("serve: bootstrap snapshot %q: %w", m.Name, err)
		}
		e, snap := stageSnapshot(m.Name, gs, sm, rec.LSN)
		//lint:ignore walorder follower bootstrap: the record came from the leader's log, durability lives there until promotion copies it
		e.snap.Store(snap)
		staged[m.Name] = e
	}

	fs := s.follower
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if !s.gateFollower.Load() {
		return 0, errPromoted
	}
	s.mu.Lock()
	s.graphs = staged
	s.mu.Unlock()
	fs.applied.Store(b.From - 1)
	return b.From, nil
}

func isCorruption(err error) bool {
	var cerr *wal.CorruptionError
	return errors.As(err, &cerr)
}

// ReplStatus is the replication role and progress of a server, served at
// GET /v1/repl/status.
type ReplStatus struct {
	// Role is "leader" (durable, streams its WAL), "follower" (tails a
	// leader), or "standalone" (memory-only, no replication).
	Role   string `json:"role"`
	Leader string `json:"leader,omitempty"`
	// State is the follower lifecycle state (bootstrapping|catchup|steady).
	State string `json:"state,omitempty"`
	// AppliedLSN is the last record position the follower has applied (or
	// observed covered); LeaderNextLSN is the leader's next append position
	// as of the last poll, and Lag the distance between them.
	AppliedLSN    uint64 `json:"applied_lsn,omitempty"`
	LeaderNextLSN uint64 `json:"leader_next_lsn,omitempty"`
	Lag           int64  `json:"lag"`
	// Records and Skipped count tailed records applied vs. passed over
	// (snapshot-covered or orphaned, as in recovery).
	Records uint64 `json:"records_applied,omitempty"`
	Skipped uint64 `json:"records_skipped,omitempty"`
	// Bootstraps counts snapshot bootstraps (1 after a clean start; more
	// after prune- or corruption-forced re-bootstraps). TornResumes,
	// Corruptions, and Reconnects count the respective stream failures.
	// Reaims counts runtime leader re-aims.
	Bootstraps  uint64 `json:"bootstraps,omitempty"`
	TornResumes uint64 `json:"torn_resumes,omitempty"`
	Corruptions uint64 `json:"corruptions,omitempty"`
	Reconnects  uint64 `json:"reconnects,omitempty"`
	Reaims      uint64 `json:"reaims,omitempty"`
	LastError   string `json:"last_error,omitempty"`
	// NextLSN and OldestLSN describe a leader's log window: followers
	// tailing inside [OldestLSN, NextLSN) stream records, below it they
	// must re-bootstrap. Promoted marks a leader that came to the role by
	// promotion rather than construction: a server built to follow whose
	// write gate Promote opened.
	NextLSN   uint64 `json:"next_lsn,omitempty"`
	OldestLSN uint64 `json:"oldest_lsn,omitempty"`
	Promoted  bool   `json:"promoted,omitempty"`
}

// ReplStatus reports the server's replication role and progress. The role
// is read from the same atomics the write gate uses, so it tracks a
// promotion the moment writes start being accepted.
func (s *Server) ReplStatus() ReplStatus {
	if fs := s.follower; fs != nil && s.gateFollower.Load() {
		st := ReplStatus{
			Role:        "follower",
			Leader:      fs.leaderAddr(),
			State:       fs.state.Load().(string),
			AppliedLSN:  fs.applied.Load(),
			Records:     fs.records.Load(),
			Skipped:     fs.skipped.Load(),
			Bootstraps:  fs.bootstraps.Load(),
			TornResumes: fs.tornResume.Load(),
			Corruptions: fs.corrupt.Load(),
			Reconnects:  fs.reconnects.Load(),
			Reaims:      fs.reaims.Load(),
			LastError:   fs.lastErr.Load().(string),
		}
		st.LeaderNextLSN = fs.leaderNext.Load()
		if st.LeaderNextLSN > 0 {
			st.Lag = int64(st.LeaderNextLSN) - 1 - int64(st.AppliedLSN)
			if st.Lag < 0 {
				st.Lag = 0
			}
		}
		return st
	}
	if w := s.wal.Load(); w != nil {
		return ReplStatus{
			Role:      "leader",
			NextLSN:   w.NextLSN(),
			OldestLSN: w.OldestLSN(),
			Promoted:  s.follower != nil,
		}
	}
	return ReplStatus{Role: "standalone"}
}

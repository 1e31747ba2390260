package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"repro/internal/repl"
	"repro/internal/wal"
)

// Leader side of the replication protocol (see internal/repl for the wire
// format and internal/serve/follower.go for the consumer):
//
//	GET /v1/wal?from=N[&wait=25s][&max_bytes=M]   long-poll the log tail
//	GET /v1/repl/bootstrap                        snapshot bootstrap stream
//	GET /v1/repl/status                           role + progress JSON
//
// Both streams reuse the WAL's on-disk frame encoding verbatim, so a
// follower applies exactly the bytes the leader acknowledged — the CRC the
// leader wrote is the CRC the follower checks.

const (
	// defaultTailWait is the server-side long-poll window when the request
	// does not pick one; maxTailWait caps what a request may ask for.
	defaultTailWait = 25 * time.Second
	maxTailWait     = 60 * time.Second
	// defaultTailMaxBytes soft-caps one tail response (the last record may
	// run past it; a response always carries at least one whole record).
	defaultTailMaxBytes = int64(4 << 20)
	maxTailMaxBytes     = int64(64 << 20)
)

func (s *Server) handleWALTail(w http.ResponseWriter, r *http.Request) {
	st := s.wal.Load()
	if st == nil {
		writeError(w, http.StatusServiceUnavailable,
			"replication requires a durable leader (start with -data-dir)")
		return
	}
	q := r.URL.Query()
	from, err := strconv.ParseUint(q.Get("from"), 10, 64)
	if err != nil || from == 0 {
		writeError(w, http.StatusBadRequest, "missing or invalid ?from=: want a positive LSN")
		return
	}
	wait := defaultTailWait
	if v := q.Get("wait"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			writeError(w, http.StatusBadRequest, "bad ?wait=: want a non-negative duration")
			return
		}
		wait = min(d, maxTailWait)
	}
	maxBytes := defaultTailMaxBytes
	if v := q.Get("max_bytes"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, "bad ?max_bytes=: want a positive byte count")
			return
		}
		maxBytes = min(n, maxTailMaxBytes)
	}

	// Long-poll: one store call waits for a record at or past the cursor.
	// A poll that ends empty (its window, or a server-side cancel such as
	// shutdown) answers 204 like a caught-up round: with no status,
	// net/http would send a bare 200 with an empty body, which a client
	// must not mistake for progress. A checkpoint may have pruned past the
	// cursor while it waited.
	ctx, cancel := context.WithTimeout(r.Context(), wait)
	defer cancel()
	next, err := st.Wait(ctx, from)
	w.Header().Set("X-Repl-Next-LSN", strconv.FormatUint(next, 10))
	switch oldest := st.OldestLSN(); {
	case err != nil && ctx.Err() == nil:
		writeError(w, http.StatusServiceUnavailable, "write-ahead log unavailable: "+err.Error())
		return
	case err != nil:
		w.WriteHeader(http.StatusNoContent)
		return
	case from < oldest:
		writeJSON(w, http.StatusGone, map[string]any{
			"error":      "cursor pruned by checkpoint; re-bootstrap from snapshots",
			"oldest_lsn": oldest,
		})
		return
	}

	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	var buf []byte
	var sent int64
	err = st.ReadFrom(from, func(rec *wal.Record) error {
		buf = wal.EncodeFrame(buf[:0], rec)
		if _, werr := w.Write(buf); werr != nil {
			return wal.ErrStop // client went away
		}
		sent += int64(len(buf))
		if sent >= maxBytes {
			return wal.ErrStop
		}
		return nil
	})
	if err != nil {
		// The 200 is already out; the stream just ends at a frame boundary
		// and the follower's next poll discovers the prune (410) or retries.
		s.log.Warn("wal tail stream aborted", "from", from, "error", err)
	}
}

func (s *Server) handleReplBootstrap(w http.ResponseWriter, r *http.Request) {
	st := s.wal.Load()
	if st == nil {
		writeError(w, http.StatusServiceUnavailable,
			"replication requires a durable leader (start with -data-dir)")
		return
	}
	// The prune floor must be read BEFORE the snapshots: records pruned
	// after this point are covered by a checkpoint whose snapshots are no
	// newer than the ones collected below, so every record a follower
	// needs on top of this cut is at or past from (a prune racing the
	// response can only force a harmless 410 → re-bootstrap round trip).
	from := st.OldestLSN()
	s.mu.RLock()
	entries := make([]*entry, 0, len(s.graphs))
	for _, e := range s.graphs {
		entries = append(entries, e)
	}
	s.mu.RUnlock()

	w.Header().Set("Content-Type", "application/octet-stream")
	var buf []byte
	for _, e := range entries {
		snap := e.snap.Load()
		blob, err := snapshotBlob(e.name, snap)
		if err != nil {
			// Headers may be out; cutting the stream short of the
			// terminator makes the follower retry rather than trust a
			// partial registry.
			s.log.Error("bootstrap snapshot encode failed", "graph", e.name, "error", err)
			return
		}
		mb, err := json.Marshal(addMeta{Name: e.name})
		if err != nil {
			s.log.Error("bootstrap meta encode failed", "graph", e.name, "error", err)
			return
		}
		buf = wal.EncodeFrame(buf[:0], &wal.Record{
			LSN: snap.WalLSN, Type: wal.RecAddGraph, Meta: mb, Blob: blob,
		})
		if _, err := w.Write(buf); err != nil {
			return
		}
	}
	end, err := json.Marshal(repl.BootstrapEnd{From: from})
	if err != nil {
		s.log.Error("bootstrap terminator encode failed", "error", err)
		return
	}
	buf = wal.EncodeFrame(buf[:0], &wal.Record{LSN: from, Type: wal.RecCheckpoint, Meta: end})
	w.Write(buf) //nolint:errcheck // client gone; it will retry
}

func (s *Server) handleReplStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.ReplStatus())
}

// leaderOnly gates a mutating handler on the server's CURRENT role, read
// per request: while the server is a follower it answers 503 with the
// leader's address (in the body and an X-Repl-Leader header) so clients
// can re-aim their writes. The role is an atomic, not a mux-construction
// decision — Promote flips it at runtime and in-flight muxes must follow.
func (s *Server) leaderOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.gateFollower.Load() {
			leader := s.follower.leaderAddr()
			w.Header().Set("X-Repl-Leader", leader)
			writeError(w, http.StatusServiceUnavailable,
				"read-only follower: send writes to the leader at "+leader)
			return
		}
		h(w, r)
	}
}

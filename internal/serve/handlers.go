package serve

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"sync"
	"time"

	pcpm "repro"
	"repro/internal/delta"
	"repro/internal/graph"
)

// Handler returns the server's HTTP API:
//
//	GET    /healthz                        liveness + registry size
//	GET    /v1/graphs                      list loaded graphs
//	POST   /v1/graphs?name=N[&opts...]     ingest edge list or binary body
//	GET    /v1/graphs/{name}               one graph's info
//	DELETE /v1/graphs/{name}               drop a graph
//	GET    /v1/graphs/{name}/topk?k=K      top-K ranked nodes
//	GET    /v1/graphs/{name}/rank/{vertex} one vertex's rank
//	POST   /v1/graphs/{name}/ppr           personalized PageRank (single or batch seeds)
//	POST   /v1/graphs/{name}/edges         apply a batched edge delta (JSON insert/delete pairs)
//	POST   /v1/graphs/{name}/recompute     re-run the engine (JSON options)
//	GET    /v1/wal?from=N                  replication: long-poll the WAL tail (leader only)
//	GET    /v1/repl/bootstrap              replication: snapshot bootstrap stream (leader only)
//	GET    /v1/repl/status                 replication role + progress
//	POST   /v1/repl/promote                promote this follower to leader
//	POST   /v1/repl/reaim                  point this follower at a new leader
//
// On a follower (Config.FollowAddr set) every mutating route answers 503
// with an X-Repl-Leader header naming where writes belong; reads are served
// from the follower's own snapshots. The gate is re-read per request, so a
// promotion flips in-flight muxes from 503-follower to live leader.
//
// The handler chain wraps the mux with panic recovery and request logging.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/graphs", s.handleList)
	mux.HandleFunc("POST /v1/graphs", s.leaderOnly(s.handleIngest))
	mux.HandleFunc("GET /v1/graphs/{name}", s.handleInfo)
	mux.HandleFunc("DELETE /v1/graphs/{name}", s.leaderOnly(s.handleDelete))
	mux.HandleFunc("GET /v1/graphs/{name}/topk", s.handleTopK)
	mux.HandleFunc("GET /v1/graphs/{name}/rank/{vertex}", s.handleRank)
	mux.HandleFunc("POST /v1/graphs/{name}/ppr", s.handlePPR)
	mux.HandleFunc("POST /v1/graphs/{name}/edges", s.leaderOnly(s.handleEdges))
	mux.HandleFunc("POST /v1/graphs/{name}/recompute", s.leaderOnly(s.handleRecompute))
	mux.HandleFunc("GET /v1/wal", s.handleWALTail)
	mux.HandleFunc("GET /v1/repl/bootstrap", s.handleReplBootstrap)
	mux.HandleFunc("GET /v1/repl/status", s.handleReplStatus)
	mux.HandleFunc("POST /v1/repl/promote", s.handlePromote)
	mux.HandleFunc("POST /v1/repl/reaim", s.handleReaim)
	// recoverer sits inside the logger so a panicking request still gets an
	// access-log line (with the 500 the recoverer writes).
	return requestLogger(s.log, recoverer(s.log, mux))
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	ready, reason := s.Ready()
	body := map[string]any{
		"status":   "ok",
		"ready":    ready,
		"role":     s.ReplStatus().Role,
		"graphs":   s.NumGraphs(),
		"uptime_s": s.Uptime().Seconds(),
	}
	status := http.StatusOK
	if !ready {
		// 503 until recovery/bootstrap finishes so orchestration and CI can
		// poll this endpoint instead of sleeping a guessed interval.
		body["status"] = "starting"
		body["reason"] = reason
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, body)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"graphs": s.List()})
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	name := q.Get("name")
	if !ValidName(name) {
		writeError(w, http.StatusBadRequest,
			"missing or invalid ?name= (want [a-zA-Z0-9._-]{1,128})")
		return
	}
	// Parse AND validate the engine options before touching the body: a
	// request with ?damping=1.5 or ?iterations=-5 must get its 400 without
	// the server reading (and the client sending) a multi-gigabyte upload.
	ov, replace, err := overridesFromQuery(q)
	if err == nil {
		err = ov.Validate(s.cfg.Defaults)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
	g, err := pcpm.LoadGraph(body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if !errors.As(err, &tooBig) {
			// The edge-list scanner can trip on the cap-truncated final line
			// before it observes the reader's error; probing one more byte
			// distinguishes "body hit the cap" from a malformed graph.
			var probe [1]byte
			if _, perr := body.Read(probe[:]); perr != nil {
				errors.As(perr, &tooBig)
			}
		}
		if tooBig != nil {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("upload exceeds %d bytes", tooBig.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Sprintf("parsing graph: %v", err))
		return
	}
	info, err := s.AddGraph(name, g, ov, replace)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	info, err := s.Info(r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.Remove(r.PathValue("name")); err != nil {
		writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// rankJSON is the wire form of a pcpm.RankEntry.
type rankJSON struct {
	Node uint32  `json:"node"`
	Rank float32 `json:"rank"`
}

func toRankJSON(entries []pcpm.RankEntry) []rankJSON {
	out := make([]rankJSON, len(entries))
	for i, e := range entries {
		out[i] = rankJSON{Node: e.Node, Rank: e.Rank}
	}
	return out
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	k := 10
	if ks := r.URL.Query().Get("k"); ks != "" {
		v, err := strconv.Atoi(ks)
		if err != nil || v < 0 {
			writeError(w, http.StatusBadRequest, "bad ?k=: want a non-negative integer")
			return
		}
		k = v
	}
	entries, snap, err := s.TopK(name, k)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"graph":   name,
		"k":       len(entries),
		"method":  snap.Method,
		"version": snap.Version,
		"ranks":   toRankJSON(entries),
	})
}

func (s *Server) handleRank(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	vertex, err := strconv.ParseUint(r.PathValue("vertex"), 10, 32)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad vertex: want a uint32 node ID")
		return
	}
	rank, snap, err := s.Rank(name, uint32(vertex))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"graph":   name,
		"node":    vertex,
		"rank":    rank,
		"method":  snap.Method,
		"version": snap.Version,
	})
}

// pprRequest is the JSON body of POST .../ppr: exactly one of seeds (a
// single query) or batch (many queries) must be set. k and epsilon apply to
// every query in the request; zero values mean the server defaults (k=10,
// engine epsilon). Damping is inherited from the graph's current snapshot
// options, keeping personalized and global ranks comparable. Requests are
// untrusted, so the server enforces abuse limits (batch size, seeds per
// query, k; epsilon is clamped to a precision floor) — see the limit
// constants in ppr.go.
type pprRequest struct {
	Seeds   []uint32   `json:"seeds,omitempty"`
	Batch   [][]uint32 `json:"batch,omitempty"`
	K       int        `json:"k,omitempty"`
	Epsilon float64    `json:"epsilon,omitempty"`
}

func (s *Server) handlePPR(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req pprRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad JSON body: %v", err))
		return
	}
	if (len(req.Seeds) > 0) == (len(req.Batch) > 0) {
		writeError(w, http.StatusBadRequest, `want exactly one of "seeds" or "batch"`)
		return
	}
	if req.K < 0 {
		writeError(w, http.StatusBadRequest, "bad k: want a non-negative integer")
		return
	}
	if req.Epsilon < 0 {
		writeError(w, http.StatusBadRequest, "bad epsilon: want a non-negative number")
		return
	}
	queries := req.Batch
	single := len(req.Seeds) > 0
	if single {
		queries = [][]uint32{req.Seeds}
	}
	answers, err := s.Personalized(name, queries, req.K, req.Epsilon)
	if err != nil {
		writeErr(w, err)
		return
	}
	if single {
		writeJSON(w, http.StatusOK, map[string]any{
			"graph":  name,
			"result": answers[0],
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"graph":   name,
		"results": answers,
	})
}

func (s *Server) handleRecompute(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	// The body is the Overrides themselves (absent fields inherit the option
	// values that produced the graph's current snapshot) plus "wait".
	var req struct {
		Overrides
		Wait bool `json:"wait"`
	}
	// ?wait= is parsed as strictly as the ingest booleans, before the body.
	waitQ := r.URL.Query().Get("wait")
	wait, err := strconv.ParseBool(cmp.Or(waitQ, "false"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad ?wait=%q: %v", waitQ, err))
		return
	}
	if r.ContentLength != 0 {
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad JSON body: %v", err))
			return
		}
	}
	st, err := s.Recompute(name, req.Overrides, req.Wait || wait)
	if err != nil {
		writeErr(w, err)
		return
	}
	resp := map[string]any{
		"graph":     name,
		"started":   st.Started,
		"coalesced": !st.Started,
	}
	if st.Snapshot != nil {
		resp["version"] = st.Snapshot.Version
		resp["iterations"] = st.Snapshot.Iterations
		resp["delta"] = st.Snapshot.Delta
		resp["compute_ms"] = float64(st.Snapshot.ComputeTime) / float64(time.Millisecond)
		writeJSON(w, http.StatusOK, resp)
		return
	}
	writeJSON(w, http.StatusAccepted, resp)
}

// overridesFromQuery parses the ingest query into tri-state Overrides and
// the replace flag: an absent option key (or an empty value) inherits the
// server default, a present one overrides it either way (?redistribute=false
// beats a server-wide default of true). Besides name, which the handler
// reads itself, and replace, the accepted keys are exactly Overrides' JSON
// tags. Any other key is an error, as an unknown field is in every JSON
// body, and so is a boolean strconv.ParseBool refuses — a misspelt or
// retired option must not be dropped without a word. The caller validates
// the result with Overrides.Validate before any body is read.
func overridesFromQuery(q url.Values) (ov Overrides, replace bool, err error) {
	parseFloat := func(s string) (float64, error) { return strconv.ParseFloat(s, 64) }
	// Sorted, so a request with several bad keys gets a stable answer.
	for _, key := range slices.Sorted(maps.Keys(q)) {
		v := q.Get(key)
		switch key {
		case "name":
		case "replace":
			replace, err = strconv.ParseBool(cmp.Or(v, "false"))
		case "damping":
			ov.Damping, err = parseOpt(v, parseFloat)
		case "tolerance":
			ov.Tolerance, err = parseOpt(v, parseFloat)
		case "iterations":
			ov.Iterations, err = parseOpt(v, strconv.Atoi)
		case "redistribute":
			ov.RedistributeDangling, err = parseOpt(v, strconv.ParseBool)
		default:
			return Overrides{}, false, fmt.Errorf("unknown query parameter %q", key)
		}
		if err != nil {
			return Overrides{}, false, fmt.Errorf("bad ?%s=%q: %v", key, v, err)
		}
	}
	return ov, replace, nil
}

// parseOpt parses one query value; empty means unset.
func parseOpt[T any](v string, parse func(string) (T, error)) (*T, error) {
	if v == "" {
		return nil, nil
	}
	x, err := parse(v)
	if err != nil {
		return nil, err
	}
	return &x, nil
}

// edgesRequest is the JSON body of POST .../edges: batched structural
// changes as [src, dst] pairs. At least one of insert or delete must be
// non-empty; endpoints must name existing vertices (the node set never
// grows through a delta — re-upload for that).
type edgesRequest struct {
	Insert [][]uint32 `json:"insert,omitempty"`
	Delete [][]uint32 `json:"delete,omitempty"`
}

func pairsToEdges(kind string, pairs [][]uint32) ([]graph.Edge, error) {
	if len(pairs) == 0 {
		return nil, nil
	}
	out := make([]graph.Edge, len(pairs))
	for i, p := range pairs {
		if len(p) != 2 {
			return nil, fmt.Errorf("bad %s[%d]: want a [src, dst] pair, got %d elements", kind, i, len(p))
		}
		out[i] = graph.Edge{Src: p[0], Dst: p[1], W: 1}
	}
	return out, nil
}

// deltaPairBytes is the body budget per edge change on the edges endpoint:
// the widest compact pair, "[4294967295,4294967295],", is 24 bytes, and the
// rest is room for whitespace. Decoding costs tens of bytes of allocation
// per body byte, so the body is capped before it is decoded, not after.
const deltaPairBytes = 64

// edgesBodyLimit caps an edges body at deltaPairBytes per change the batch
// limit allows, plus one pair's budget for the object around the lists;
// with the limit off, only MaxUploadBytes applies.
func (s *Server) edgesBodyLimit() int64 {
	if s.cfg.MaxDeltaEdges < 0 {
		return s.cfg.MaxUploadBytes
	}
	return min(s.cfg.MaxUploadBytes, int64(s.maxDeltaEdges()+1)*deltaPairBytes)
}

func (s *Server) handleEdges(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req edgesRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.edgesBodyLimit()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("edges body exceeds %d bytes", tooBig.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad JSON body: %v", err))
		return
	}
	var d delta.EdgeDelta
	var err error
	if d.Insert, err = pairsToEdges("insert", req.Insert); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if d.Delete, err = pairsToEdges("delete", req.Delete); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	st, err := s.ApplyEdgeDelta(name, d)
	if err != nil {
		writeErr(w, err)
		return
	}
	// DeltaStatus carries its own JSON tags; serializing it directly keeps
	// the wire form from drifting out of sync with the struct.
	writeJSON(w, http.StatusOK, st)
}

// jsonEncoder is an indenting encoder kept across responses. Encode indents
// into a buffer the encoder owns; an encoder made per response grew that
// buffer from nothing every time, so every answer cost its indented size
// again in garbage.
type jsonEncoder struct {
	w   io.Writer
	enc *json.Encoder
}

func (e *jsonEncoder) Write(b []byte) (int, error) { return e.w.Write(b) }

var jsonEncoders = sync.Pool{New: func() any {
	e := &jsonEncoder{}
	e.enc = json.NewEncoder(e)
	e.enc.SetIndent("", "  ")
	return e
}}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	e := jsonEncoders.Get().(*jsonEncoder)
	e.w = w
	err := e.enc.Encode(v) // on error the client is gone; nothing useful to do
	e.w = nil
	if err == nil { // a failed write leaves the encoder's error sticky
		jsonEncoders.Put(e)
	}
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]any{"error": msg})
}

// writeErr answers with an error from the Server API. The sentinel it wraps
// picks the status; an error a request causes always wraps one, so anything
// else — a failed engine run or write-ahead append — is the server's, 500.
func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrExists), errors.Is(err, ErrNotPromotable):
		status = http.StatusConflict
	case errors.Is(err, ErrInvalidOptions), errors.Is(err, ErrBadSeeds), errors.Is(err, ErrBadDelta):
		status = http.StatusBadRequest
	case errors.Is(err, ErrDeltaTooLarge):
		status = http.StatusRequestEntityTooLarge
	}
	writeError(w, status, err.Error())
}

package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// The replication building blocks the scenario harness (scenario_test.go)
// and the record-level tests share. A leader is a durable server behind an
// httptest listener; a follower is a second Server whose Follow loop runs
// against that URL. Chaos is injected at the HTTP boundary: handler swaps
// for a dead or restarted leader, response-rewriting middleware for torn
// and corrupted streams.

// leaderHarness is a durable server exposed over a real listener whose
// handler can be swapped (for restart and fault-injection tests) without
// changing the URL followers dial.
type leaderHarness struct {
	srv     *Server
	hs      *httptest.Server
	url     string
	handler atomic.Value // http.Handler
}

// startLeader starts a durable leader on dir behind a listener. Tests start
// servers as a cluster (newCluster); compat_test.go, kept as it was written,
// still calls this.
func startLeader(t *testing.T, dir string) *leaderHarness {
	t.Helper()
	s, _ := newDurableServer(t, durableConfig(dir))
	return listen(t, s)
}

// listen puts s behind a listener whose handler can be swapped.
func listen(t *testing.T, s *Server) *leaderHarness {
	t.Helper()
	lh := &leaderHarness{srv: s}
	lh.handler.Store(s.Handler())
	lh.hs = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		lh.handler.Load().(http.Handler).ServeHTTP(w, r)
	}))
	t.Cleanup(lh.hs.Close)
	lh.url = lh.hs.URL
	return lh
}

// swap replaces the handler behind the stable URL.
func (lh *leaderHarness) swap(h http.Handler) { lh.handler.Store(h) }

// followerConfig keeps test follower loops fast: short polls so steady-state
// rounds turn over quickly (startFollower shortens the backoff).
func followerConfig(leaderURL string) Config {
	return Config{
		Defaults:       testOptions,
		FollowAddr:     leaderURL,
		FollowPollWait: 100 * time.Millisecond,
	}
}

// startFollower runs f's Follow loop, with a short reconnect backoff so
// injected failures retry fast, until the test ends.
func startFollower(t *testing.T, f *Server) context.CancelFunc {
	t.Helper()
	f.followBackoff = 5 * time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := f.Follow(ctx); err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("Follow: %v", err)
		}
	}()
	stop := func() { cancel(); <-done }
	t.Cleanup(stop)
	return stop
}

// waitCaughtUp blocks until the follower has applied everything the leader
// has acknowledged (lead's NextLSN-1) and reports steady state.
func waitCaughtUp(t *testing.T, lead *Server, f *Server) {
	t.Helper()
	head := lead.wal.Load().NextLSN() - 1
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := f.ReplStatus()
		if st.AppliedLSN >= head && st.State == FollowStateSteady {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
	st := f.ReplStatus()
	t.Fatalf("follower stuck at applied=%d state=%s lastErr=%q; leader head %d",
		st.AppliedLSN, st.State, st.LastError, head)
}

// bufferingRewriter wraps a handler, buffers successful /v1/wal stream
// bodies, and lets the test rewrite the bytes before they reach the
// follower. Non-tail requests pass through untouched.
func bufferingRewriter(inner http.Handler, rewrite func([]byte) []byte) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/wal" {
			inner.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		for k, vs := range rec.Header() {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		body := rec.Body.Bytes()
		if rec.Code == http.StatusOK && len(body) > 0 {
			body = rewrite(body)
		}
		w.WriteHeader(rec.Code)
		w.Write(body) //nolint:errcheck // test transport
	})
}

// TestFollowerBootstrapMidStream starts a fresh follower only after the
// leader checkpointed and mutated further: the bootstrap must carry the
// snapshots and the tail the post-checkpoint records.
func TestFollowerBootstrapMidStream(t *testing.T) {
	runScenario(t, scenario{[]step{
		add("g", testGraph(t)), deltas("g", 5, 31), checkpoint(), deltas("g", 5, 37), relaunchFollower(0),
	}, nil})
}

// TestFollowerKillMidCatchup kills a follower partway through catch-up (its
// loop dies mid-stream, as SIGKILL would take it) and relaunches a fresh one
// — which, having no local state, must bootstrap from scratch and converge.
func TestFollowerKillMidCatchup(t *testing.T) {
	runScenario(t, scenario{[]step{add("g", testGraph(t)), deltas("g", 10, 53), relaunchFollower(5)}, nil})
}

// TestFollowerLeaderRestartMidStream crashes and recovers the leader while
// a follower tails it. The URL stays, requests during the outage fail at
// transport level, and the follower must ride it out with reconnects — NOT
// a re-bootstrap, since LSNs survive the restart — then converge on the
// recovered leader's further writes.
func TestFollowerLeaderRestartMidStream(t *testing.T) {
	runScenario(t, scenario{[]step{
		add("g", testGraph(t)), deltas("g", 6, 71), restart(false), deltas("g", 6, 73),
	}, bootstraps(1)})
}

// TestFollowerTornStream cuts one tail response off mid-frame. The decoder
// must classify the tear as retryable: everything before it applies, the
// resume picks up at the cursor, and no re-bootstrap happens.
func TestFollowerTornStream(t *testing.T) {
	runScenario(t, scenario{[]step{
		add("g", testGraph(t)),
		rewritten("tear", func(b []byte) []byte { return b[:len(b)-len(b)/3-1] }, deltas("g", 6, 83)),
	}, wantStatus("torn resumes, 1 bootstrap, no corruption", func(st ReplStatus) bool {
		return st.TornResumes > 0 && st.Bootstraps == 1 && st.Corruptions == 0
	})})
}

// TestFollowerCorruptStream flips one bit inside a streamed frame's payload.
// The decoder must fail closed — no partial application of the damaged
// record — and the follower must recover through a full re-bootstrap.
func TestFollowerCorruptStream(t *testing.T) {
	runScenario(t, scenario{[]step{
		add("g", testGraph(t)),
		rewritten("bitflip", func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b }, deltas("g", 6, 89)),
	}, wantStatus("a corruption and a re-bootstrap", func(st ReplStatus) bool {
		return st.Corruptions > 0 && st.Bootstraps >= 2
	})})
}

// TestFollowerPruneRebootstrap parks a follower while the leader mutates on
// and checkpoints, pruning the records the follower still needs. The
// released follower must get 410 from the tail, bootstrap a second time
// from the leader's snapshots, and converge.
func TestFollowerPruneRebootstrap(t *testing.T) {
	runScenario(t, scenario{[]step{
		add("g", testGraph(t)), deltas("g", 3, 59), parked(0, deltas("g", 4, 61), checkpoint()),
	}, bootstraps(2)})
}

// TestFollowerRebootstrapTakesLeaderVersion parks a caught-up follower while
// the leader removes a graph, ingests it again (version 1) and checkpoints
// past the follower's cursor. The follower's second bootstrap must install
// the leader's version, not one past the version 2 it held before.
func TestFollowerRebootstrapTakesLeaderVersion(t *testing.T) {
	g := testGraph(t)
	runScenario(t, scenario{[]step{
		add("g", g), recompute("g", 0), parked(0, remove("g"), add("g", g), checkpoint()),
	}, bootstraps(2)})
}

// TestFollowerServesReadsRejectsWrites drives the follower's HTTP surface:
// every read endpoint answers from the replicated snapshots, every mutating
// endpoint answers 503 with the leader's address.
func TestFollowerServesReadsRejectsWrites(t *testing.T) {
	c := newCluster(t, testOptions)
	c.run(t, add("g", testGraph(t)))
	lead, f := c.lead, c.fs[0].srv
	fsrv := httptest.NewServer(f.Handler())
	defer fsrv.Close()

	reads := []string{
		"/healthz",
		"/v1/graphs",
		"/v1/graphs/g",
		"/v1/graphs/g/topk?k=3",
		"/v1/graphs/g/rank/0",
		"/v1/repl/status",
	}
	for _, path := range reads {
		resp, err := http.Get(fsrv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s on follower: status %d, want 200", path, resp.StatusCode)
		}
	}
	resp, err := http.Post(fsrv.URL+"/v1/graphs/g/ppr", "application/json",
		strings.NewReader(`{"seeds":[1],"k":3}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("PPR on follower: status %d, want 200", resp.StatusCode)
	}

	writes := []struct{ method, path string }{
		{"POST", "/v1/graphs?name=x"},
		{"POST", "/v1/graphs/g/edges"},
		{"POST", "/v1/graphs/g/recompute"},
		{"DELETE", "/v1/graphs/g"},
	}
	for _, wr := range writes {
		req, err := http.NewRequest(wr.method, fsrv.URL+wr.path, bytes.NewReader(nil))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", wr.method, wr.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s %s on follower: status %d, want 503", wr.method, wr.path, resp.StatusCode)
		}
		if got := resp.Header.Get("X-Repl-Leader"); got != lead.url {
			t.Errorf("%s %s: X-Repl-Leader = %q, want %q", wr.method, wr.path, got, lead.url)
		}
	}

	if st := f.ReplStatus(); st.Role != "follower" || st.Leader != lead.url {
		t.Errorf("follower status role=%q leader=%q, want follower/%q", st.Role, st.Leader, lead.url)
	}
	if st := lead.srv.ReplStatus(); st.Role != "leader" {
		t.Errorf("leader status role=%q, want leader", st.Role)
	}
}

// TestLeaderTailEndpoint pins the /v1/wal contract a follower depends on:
// 400 on a missing cursor, 204 + X-Repl-Next-LSN when parked at the head,
// a decodable frame stream inside the window, 410 + oldest_lsn below it,
// and 503 on a non-durable server.
func TestLeaderTailEndpoint(t *testing.T) {
	c := newCluster(t, testOptions)
	c.run(t, add("g", testGraph(t)))
	lead := c.lead
	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(lead.url + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp
	}

	resp := get("/v1/wal")
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing ?from=: status %d, want 400", resp.StatusCode)
	}

	resp = get("/v1/wal?from=1")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-window tail: status %d, want 200", resp.StatusCode)
	}

	head := lead.srv.wal.Load().NextLSN()
	resp2 := get(fmt.Sprintf("/v1/wal?from=%d&wait=10ms", head))
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNoContent {
		t.Errorf("tail at head: status %d, want 204", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Repl-Next-LSN"); got != fmt.Sprint(head) {
		t.Errorf("tail at head: X-Repl-Next-LSN = %q, want %d", got, head)
	}

	// A standalone (non-durable) server has no log to stream.
	plain := httptest.NewServer(New(Config{Defaults: testOptions}).Handler())
	defer plain.Close()
	resp3, err := http.Get(plain.URL + "/v1/wal?from=1")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("tail on standalone server: status %d, want 503", resp3.StatusCode)
	}
}

package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/wal"
)

// The replication verification harness. A leader is a durable server behind
// an httptest listener; a follower is a second Server whose Follow loop runs
// against that URL. Chaos is injected at the HTTP boundary — handler-swap
// proxies for leader restarts, response-rewriting middleware for torn and
// corrupted streams — and asserted through the follower's own counters
// (bootstraps, torn resumes, corruptions, reconnects), so each test proves
// not just that the follower converged but WHICH recovery path carried it.

// leaderHarness is a durable server exposed over a real listener whose
// handler can be swapped (for restart and fault-injection tests) without
// changing the URL followers dial.
type leaderHarness struct {
	srv     *Server
	hs      *httptest.Server
	url     string
	handler atomic.Value // http.Handler
}

func startLeader(t *testing.T, dir string) *leaderHarness {
	t.Helper()
	s, _ := newDurableServer(t, durableConfig(dir))
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
		time.Sleep(5 * time.Millisecond)
	}
	st := f.ReplStatus()
	t.Fatalf("follower stuck at applied=%d state=%s lastErr=%q; leader head %d",
		st.AppliedLSN, st.State, st.LastError, head)
}

// assertConverged compares the follower's published snapshot of name against
// the leader's: within 1e-6 L1 always, and — since testOptions pins
// Workers:1 — byte-identical, the determinism bar.
func assertConverged(t *testing.T, lead, f *Server, name string) {
	t.Helper()
	want := publishedSnap(t, lead, name)
	got := publishedSnap(t, f, name)
	if l1 := l1Diff(t, want.Ranks, got.Ranks); l1 > 1e-6 {
		t.Errorf("%s: follower ranks drift %.3g L1 from leader (budget 1e-6)", name, l1)
	}
	if !ranksBitEqual(want.Ranks, got.Ranks) {
		t.Errorf("%s: follower ranks not bit-equal to leader at Workers:1", name)
	}
	if got.Version != want.Version || got.WalLSN != want.WalLSN {
		t.Errorf("%s: follower at version=%d lsn=%d, leader at version=%d lsn=%d",
			name, got.Version, got.WalLSN, want.Version, want.WalLSN)
	}
}

// TestFollowerConvergenceAllFamilies is the convergence golden: on every
// generator family, a follower tails a leader through ingest plus 50
// mutation batches and must land bit-equal to the leader's published ranks.
func TestFollowerConvergenceAllFamilies(t *testing.T) {
	dedup := graph.BuildOptions{Dedup: true, DropSelfLoops: true}
	families := []struct {
		name  string
		build func() (*graph.Graph, error)
	}{
		{"erdos-renyi", func() (*graph.Graph, error) {
			return gen.ErdosRenyi(400, 3200, 11, dedup)
		}},
		{"rmat", func() (*graph.Graph, error) {
			return gen.RMAT(gen.Graph500RMAT(8, 8, 13), dedup)
		}},
		{"pref-attach", func() (*graph.Graph, error) {
			return gen.PreferentialAttachment(400, 6, 17, dedup)
		}},
		{"copying", func() (*graph.Graph, error) {
			return gen.Copying(gen.CopyingConfig{
				N: 400, OutDegree: 6, CopyProb: 0.5, Locality: 0.5, Seed: 19,
			}, dedup)
		}},
		{"dag-communities", func() (*graph.Graph, error) {
			return gen.DAGCommunities(gen.DAGCommunitiesConfig{
				Clusters: 8, ClusterSize: 50, IntraDegree: 4, BridgeDegree: 6, Seed: 23,
			}, dedup)
		}},
	}
	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			g, err := fam.build()
			if err != nil {
				t.Fatalf("generating: %v", err)
			}
			lead := startLeader(t, t.TempDir())

			// The follower starts BEFORE the leader has any data: it
			// bootstraps empty and catches everything through the tail.
			f := New(followerConfig(lead.url))
			startFollower(t, f)

			if _, err := lead.srv.AddGraph("g", g, Overrides{}, false); err != nil {
				t.Fatal(err)
			}
			for i, d := range mutationStream(t, g, 50, 97) {
				if _, err := lead.srv.ApplyEdgeDelta("g", d); err != nil {
					t.Fatalf("delta %d: %v", i, err)
				}
			}
			waitCaughtUp(t, lead.srv, f)
			assertConverged(t, lead.srv, f, "g")

			st := f.ReplStatus()
			if st.Bootstraps != 1 {
				t.Errorf("clean run took %d bootstraps, want 1", st.Bootstraps)
			}
			if st.Lag != 0 {
				t.Errorf("caught-up follower reports lag %d", st.Lag)
			}
		})
	}
}

// TestFollowerBootstrapMidStream starts the follower only after the leader
// already checkpointed and mutated further: the bootstrap must carry the
// snapshots and the tail the post-checkpoint records.
func TestFollowerBootstrapMidStream(t *testing.T) {
	g := testGraph(t)
	lead := startLeader(t, t.TempDir())
	if _, err := lead.srv.AddGraph("g", g, Overrides{}, false); err != nil {
		t.Fatal(err)
	}
	batches := mutationStream(t, g, 10, 31)
	for _, d := range batches[:5] {
		if _, err := lead.srv.ApplyEdgeDelta("g", d); err != nil {
			t.Fatal(err)
		}
	}
	if err := lead.srv.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	for _, d := range batches[5:] {
		if _, err := lead.srv.ApplyEdgeDelta("g", d); err != nil {
			t.Fatal(err)
		}
	}

	f := New(followerConfig(lead.url))
	startFollower(t, f)
	waitCaughtUp(t, lead.srv, f)
	assertConverged(t, lead.srv, f, "g")
}

// TestFollowerKillMidCatchup kills a follower partway through catch-up (its
// loop dies mid-stream, as SIGKILL would take it) and relaunches a fresh one
// — which, having no local state, must bootstrap from scratch and converge.
func TestFollowerKillMidCatchup(t *testing.T) {
	g := testGraph(t)
	lead := startLeader(t, t.TempDir())
	if _, err := lead.srv.AddGraph("g", g, Overrides{}, false); err != nil {
		t.Fatal(err)
	}
	for _, d := range mutationStream(t, g, 20, 53) {
		if _, err := lead.srv.ApplyEdgeDelta("g", d); err != nil {
			t.Fatal(err)
		}
	}

	// First incarnation: die after applying 5 tailed records.
	f1 := New(followerConfig(lead.url))
	killed := make(chan struct{})
	var applied atomic.Int32
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f1.follower.applyHook = func(*wal.Record) error {
		if applied.Add(1) > 5 {
			// The "SIGKILL": the loop dies mid-stream, leaving the round's
			// remaining records unapplied — exactly a process death's cut.
			cancel()
			return errors.New("killed")
		}
		return nil
	}
	go func() {
		defer close(killed)
		f1.Follow(ctx) //nolint:errcheck // death is the point
	}()
	select {
	case <-killed:
	case <-time.After(30 * time.Second):
		t.Fatal("first follower incarnation never died")
	}
	if got := f1.ReplStatus().AppliedLSN; got >= lead.srv.wal.Load().NextLSN()-1 {
		t.Fatalf("kill landed after catch-up finished (applied %d); test proves nothing", got)
	}

	// Relaunch: a fresh process has no registry, so it re-bootstraps.
	f2 := New(followerConfig(lead.url))
	startFollower(t, f2)
	waitCaughtUp(t, lead.srv, f2)
	assertConverged(t, lead.srv, f2, "g")
}

// TestFollowerLeaderRestartMidStream crashes and recovers the leader while
// a follower tails it. The URL stays (a restarted leader keeps its address),
// requests during the outage fail at transport level, and the follower must
// ride it out with reconnects — NOT a re-bootstrap, since LSNs survive the
// restart — then converge on the recovered leader's further writes.
func TestFollowerLeaderRestartMidStream(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(t)
	lead := startLeader(t, dir)
	if _, err := lead.srv.AddGraph("g", g, Overrides{}, false); err != nil {
		t.Fatal(err)
	}
	batches := mutationStream(t, g, 12, 71)
	for _, d := range batches[:6] {
		if _, err := lead.srv.ApplyEdgeDelta("g", d); err != nil {
			t.Fatal(err)
		}
	}

	f := New(followerConfig(lead.url))
	startFollower(t, f)
	waitCaughtUp(t, lead.srv, f)

	// Outage: every request bounces until the recovered leader takes over.
	lead.swap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "leader down", http.StatusBadGateway)
	}))
	crashStop(t, lead.srv)
	waitForReconnects(t, f, 1)

	// Recovery: a new server over the same data dir, same URL. The reborn
	// server's durable-close cleanup was registered after the listener's, so
	// it would run first (LIFO) — re-register the listener close here so the
	// listener drains its in-flight handlers before the WAL goes away.
	reborn, _ := newDurableServer(t, durableConfig(dir))
	t.Cleanup(lead.hs.Close)
	lead.srv = reborn
	lead.swap(reborn.Handler())
	for _, d := range batches[6:] {
		if _, err := reborn.ApplyEdgeDelta("g", d); err != nil {
			t.Fatal(err)
		}
	}
	waitCaughtUp(t, reborn, f)
	assertConverged(t, reborn, f, "g")

	st := f.ReplStatus()
	if st.Reconnects == 0 {
		t.Error("outage left no reconnect trace; the test raced past it")
	}
	if st.Bootstraps != 1 {
		t.Errorf("leader restart forced %d bootstraps, want 1 (LSNs survive restarts)", st.Bootstraps)
	}
}

func waitForReconnects(t *testing.T, f *Server, n uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if f.ReplStatus().Reconnects >= n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("follower never recorded %d reconnects", n)
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

// TestFollowerTornStream cuts one tail response off mid-frame. The decoder
// must classify the tear as retryable: everything before it applies, the
// resume picks up at the cursor, and no re-bootstrap happens.
func TestFollowerTornStream(t *testing.T) {
	g := testGraph(t)
	lead := startLeader(t, t.TempDir())
	if _, err := lead.srv.AddGraph("g", g, Overrides{}, false); err != nil {
		t.Fatal(err)
	}
	for _, d := range mutationStream(t, g, 15, 83) {
		if _, err := lead.srv.ApplyEdgeDelta("g", d); err != nil {
			t.Fatal(err)
		}
	}

	// Tear the first streamed response mid-frame, then behave.
	var torn atomic.Bool
	lead.swap(bufferingRewriter(lead.srv.Handler(), func(body []byte) []byte {
		if torn.CompareAndSwap(false, true) {
			return body[:len(body)-len(body)/3-1]
		}
		return body
	}))

	f := New(followerConfig(lead.url))
	startFollower(t, f)
	waitCaughtUp(t, lead.srv, f)
	assertConverged(t, lead.srv, f, "g")

	st := f.ReplStatus()
	if !torn.Load() {
		t.Fatal("the tear middleware never fired")
	}
	if st.TornResumes == 0 {
		t.Error("torn stream left no torn-resume trace")
	}
	if st.Bootstraps != 1 {
		t.Errorf("torn stream forced %d bootstraps, want 1 (tears resume, not re-bootstrap)", st.Bootstraps)
	}
	if st.Corruptions != 0 {
		t.Errorf("torn stream was misclassified as %d corruptions", st.Corruptions)
	}
}

// TestFollowerCorruptStream flips one bit inside a streamed frame's payload.
// The decoder must fail closed — no partial application of the damaged
// record — and the follower must recover through a full re-bootstrap.
func TestFollowerCorruptStream(t *testing.T) {
	g := testGraph(t)
	lead := startLeader(t, t.TempDir())
	if _, err := lead.srv.AddGraph("g", g, Overrides{}, false); err != nil {
		t.Fatal(err)
	}
	for _, d := range mutationStream(t, g, 15, 89) {
		if _, err := lead.srv.ApplyEdgeDelta("g", d); err != nil {
			t.Fatal(err)
		}
	}

	var flipped atomic.Bool
	lead.swap(bufferingRewriter(lead.srv.Handler(), func(body []byte) []byte {
		if flipped.CompareAndSwap(false, true) {
			// Deep in the stream, past the first frame's header, so the
			// follower has already applied earlier records this round.
			body[len(body)/2] ^= 0x40
		}
		return body
	}))

	f := New(followerConfig(lead.url))
	startFollower(t, f)
	waitCaughtUp(t, lead.srv, f)
	assertConverged(t, lead.srv, f, "g")

	st := f.ReplStatus()
	if !flipped.Load() {
		t.Fatal("the bitflip middleware never fired")
	}
	if st.Corruptions == 0 {
		t.Error("corrupted stream left no corruption trace")
	}
	if st.Bootstraps < 2 {
		t.Errorf("corruption recovered with %d bootstraps, want >= 2 (corruption must re-bootstrap)", st.Bootstraps)
	}
}

// TestFollowerPruneRebootstrap parks a follower (its polls gated shut) while
// the leader mutates on and checkpoints, pruning the records the follower
// still needs. The reopened follower must get 410 from the tail, bootstrap
// a second time from the leader's snapshots, and converge.
func TestFollowerPruneRebootstrap(t *testing.T) {
	g := testGraph(t)
	lead := startLeader(t, t.TempDir())
	if _, err := lead.srv.AddGraph("g", g, Overrides{}, false); err != nil {
		t.Fatal(err)
	}
	batches := mutationStream(t, g, 12, 59)
	for _, d := range batches[:4] {
		if _, err := lead.srv.ApplyEdgeDelta("g", d); err != nil {
			t.Fatal(err)
		}
	}

	f := New(followerConfig(lead.url))
	gate := make(chan struct{})
	parked := make(chan struct{})
	var gated atomic.Bool
	var parkedOnce sync.Once
	f.follower.pollGate = func() {
		if gated.Load() {
			parkedOnce.Do(func() { close(parked) })
			<-gate
		}
	}
	startFollower(t, f)
	waitCaughtUp(t, lead.srv, f)
	gated.Store(true)
	// pollGate runs before each tail request, so once a round parks at the
	// gate no request is in flight — without this, an in-flight long-poll
	// could stream the mutations below live, before the checkpoint prunes
	// them, and the follower would never need its second bootstrap.
	<-parked

	for _, d := range batches[4:] {
		if _, err := lead.srv.ApplyEdgeDelta("g", d); err != nil {
			t.Fatal(err)
		}
	}
	// The checkpoint rotates to a fresh segment and prunes everything the
	// new snapshots cover — including the records the parked follower has
	// not seen.
	if err := lead.srv.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if oldest, applied := lead.srv.wal.Load().OldestLSN(), f.ReplStatus().AppliedLSN; oldest <= applied+1 {
		t.Fatalf("prune did not outrun the follower (oldest %d, applied %d); test proves nothing",
			oldest, applied)
	}

	gated.Store(false)
	close(gate)
	waitCaughtUp(t, lead.srv, f)
	assertConverged(t, lead.srv, f, "g")

	if st := f.ReplStatus(); st.Bootstraps != 2 {
		t.Errorf("prune recovery took %d bootstraps, want exactly 2", st.Bootstraps)
	}
}

// TestFollowerRebootstrapTakesLeaderVersion parks a caught-up follower while
// the leader removes a graph, ingests it again (version 1) and checkpoints
// past the follower's cursor. The follower's second bootstrap must install
// the leader's version, not one past the version it held before.
func TestFollowerRebootstrapTakesLeaderVersion(t *testing.T) {
	g := testGraph(t)
	lead := startLeader(t, t.TempDir())
	if _, err := lead.srv.AddGraph("g", g, Overrides{}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := lead.srv.Recompute("g", Overrides{}, true); err != nil {
		t.Fatal(err)
	}
	f := New(followerConfig(lead.url))
	gate, parked := make(chan struct{}), make(chan struct{})
	var gated atomic.Bool
	var parkedOnce sync.Once
	f.follower.pollGate = func() {
		if gated.Load() {
			parkedOnce.Do(func() { close(parked) })
			<-gate
		}
	}
	startFollower(t, f)
	waitCaughtUp(t, lead.srv, f)
	gated.Store(true)
	<-parked
	if err := lead.srv.Remove("g"); err != nil {
		t.Fatal(err)
	}
	if _, err := lead.srv.AddGraph("g", g, Overrides{}, false); err != nil {
		t.Fatal(err)
	}
	if err := lead.srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	gated.Store(false)
	close(gate)
	waitCaughtUp(t, lead.srv, f)
	assertConverged(t, lead.srv, f, "g")
	if st := f.ReplStatus(); st.Bootstraps != 2 {
		t.Errorf("follower took %d bootstraps, want 2", st.Bootstraps)
	}
}

// TestFollowerServesReadsRejectsWrites drives the follower's HTTP surface:
// every read endpoint answers from the replicated snapshots, every mutating
// endpoint answers 503 with the leader's address.
func TestFollowerServesReadsRejectsWrites(t *testing.T) {
	g := testGraph(t)
	lead := startLeader(t, t.TempDir())
	if _, err := lead.srv.AddGraph("g", g, Overrides{}, false); err != nil {
		t.Fatal(err)
	}

	f := New(followerConfig(lead.url))
	startFollower(t, f)
	waitCaughtUp(t, lead.srv, f)
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
	g := testGraph(t)
	lead := startLeader(t, t.TempDir())
	if _, err := lead.srv.AddGraph("g", g, Overrides{}, false); err != nil {
		t.Fatal(err)
	}
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

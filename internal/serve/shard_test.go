package serve

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	pcpm "repro"
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/shard"
)

// testFleet is a set of shard workers on httptest servers. Every worker sits
// behind a handler that counts payload loads and received swaps, so tests
// can tell a solve that re-shipped the graph from one that reused it.
type testFleet struct {
	cfg     shard.WorkerConfig
	servers []*httptest.Server
	urls    []string
	loads   atomic.Int64
	swaps   atomic.Int64
}

func startTestFleet(t *testing.T, n int, cfg shard.WorkerConfig) *testFleet {
	t.Helper()
	f := &testFleet{cfg: cfg}
	for range n {
		ts := httptest.NewServer(f.worker())
		t.Cleanup(ts.Close)
		f.servers = append(f.servers, ts)
		f.urls = append(f.urls, ts.URL)
	}
	return f
}

// worker returns a new, empty worker's handler wrapped in the counters.
func (f *testFleet) worker() http.Handler {
	h := shard.NewWorker(f.cfg).Handler()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/shard/load":
			f.loads.Add(1)
		case "/v1/shard/swap":
			f.swaps.Add(1)
		}
		h.ServeHTTP(w, r)
	})
}

// replace starts a fresh, empty worker on the address of worker i, whose
// server the test has closed.
func (f *testFleet) replace(t *testing.T, i int) {
	t.Helper()
	l, err := net.Listen("tcp", strings.TrimPrefix(f.urls[i], "http://"))
	if err != nil {
		t.Fatalf("re-listening on worker %d's address: %v", i, err)
	}
	ts := httptest.NewUnstartedServer(f.worker())
	ts.Listener.Close()
	ts.Listener = l
	ts.Start()
	t.Cleanup(ts.Close)
	f.servers[i] = ts
}

// newShardedServer spins up n shard workers and a coordinator-mode
// serve.Server fronting them, returning the server, its HTTP server, and
// the fleet for counting and failure injection.
func newShardedServer(t *testing.T, n int) (*Server, *httptest.Server, *testFleet) {
	t.Helper()
	fleet := startTestFleet(t, n, shard.WorkerConfig{})
	s := New(Config{Defaults: testOptions, ShardWorkers: fleet.urls})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, fleet
}

// wantLoads fails the test unless the fleet has taken want payload loads.
func (f *testFleet) wantLoads(t *testing.T, want int64, when string) {
	t.Helper()
	if got := f.loads.Load(); got != want {
		t.Fatalf("%s: fleet took %d payload loads, want %d", when, got, want)
	}
}

func TestShardedServeTransparentEndpoints(t *testing.T) {
	g := testGraph(t)
	_, ts, _ := newShardedServer(t, 2)

	// Ingest through the same endpoint a monolithic server exposes.
	info := ingest(t, ts, "web", edgeListBody(t, g))
	if info.Method != MethodSharded {
		t.Fatalf("ingest method = %q, want %q", info.Method, MethodSharded)
	}
	if info.Version != 1 || info.Iterations == 0 {
		t.Fatalf("unexpected ingest info: %+v", info)
	}

	// The same options on a monolithic run are the reference answer.
	mono, err := pcpm.Run(g, testOptions)
	if err != nil {
		t.Fatal(err)
	}

	// Top-k through the unchanged endpoint, with the sharded method name.
	var topkResp struct {
		Method string `json:"method"`
		Ranks  []struct {
			Node uint32  `json:"node"`
			Rank float32 `json:"rank"`
		} `json:"ranks"`
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/graphs/web/topk?k=25", nil, &topkResp); code != http.StatusOK {
		t.Fatalf("topk: status %d", code)
	}
	if topkResp.Method != string(MethodSharded) {
		t.Fatalf("topk method = %q, want %q", topkResp.Method, MethodSharded)
	}
	want := core.TopK(mono.Ranks, 25)
	if len(topkResp.Ranks) != len(want) {
		t.Fatalf("topk returned %d entries, want %d", len(topkResp.Ranks), len(want))
	}
	for i, e := range topkResp.Ranks {
		diff := float64(e.Rank) - float64(mono.Ranks[e.Node])
		if diff < 0 {
			diff = -diff
		}
		if diff > 1e-6 {
			t.Fatalf("topk[%d] node %d rank %v, monolithic %v", i, e.Node, e.Rank, mono.Ranks[e.Node])
		}
	}

	// Single-vertex rank reads the gathered vector.
	var rankResp struct {
		Rank   float32 `json:"rank"`
		Method string  `json:"method"`
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/graphs/web/rank/123", nil, &rankResp); code != http.StatusOK {
		t.Fatalf("rank: status %d", code)
	}
	if diff := float64(rankResp.Rank) - float64(mono.Ranks[123]); diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("rank(123) = %v, monolithic %v", rankResp.Rank, mono.Ranks[123])
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/graphs/web/rank/999999", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("out-of-range rank: status %d, want 400", code)
	}

	// Personalized PageRank stays coordinator-local (the snapshot keeps the
	// graph structure), so the endpoint answers unchanged.
	var pprResp struct {
		Result struct {
			Scores []struct {
				Node uint32 `json:"node"`
			} `json:"scores"`
		} `json:"result"`
	}
	body := []byte(`{"seeds":[1],"k":5}`)
	if code := doJSON(t, "POST", ts.URL+"/v1/graphs/web/ppr", body, &pprResp); code != http.StatusOK {
		t.Fatalf("ppr: status %d", code)
	}
	if len(pprResp.Result.Scores) == 0 {
		t.Fatalf("ppr returned no scores: %+v", pprResp)
	}
}

func TestShardedServeRecomputeAndRemove(t *testing.T) {
	g := testGraph(t)
	_, ts, _ := newShardedServer(t, 2)
	ingest(t, ts, "web", edgeListBody(t, g))

	var resp struct {
		Version uint64 `json:"version"`
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/graphs/web/recompute?wait=true",
		[]byte(`{"iterations":10}`), &resp); code != http.StatusOK {
		t.Fatalf("recompute: status %d", code)
	}
	if resp.Version != 2 {
		t.Fatalf("recompute version = %d, want 2", resp.Version)
	}

	if code := doJSON(t, "DELETE", ts.URL+"/v1/graphs/web", nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: status %d", code)
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/graphs/web/topk", nil, nil); code != http.StatusNotFound {
		t.Fatalf("topk after delete: status %d, want 404", code)
	}
	// The workers dropped their blocks too: re-ingesting under the same name
	// must deploy cleanly rather than collide with stale state.
	ingest(t, ts, "web", edgeListBody(t, g))
}

// postEdges applies d to name through the HTTP edges endpoint.
func postEdges(t *testing.T, ts *httptest.Server, name string, d delta.EdgeDelta) DeltaStatus {
	t.Helper()
	var st DeltaStatus
	if code := doJSON(t, "POST", ts.URL+"/v1/graphs/"+name+"/edges", edgesJSON(t, d), &st); code != http.StatusOK {
		t.Fatalf("edges on %s: status %d", ts.URL, code)
	}
	return st
}

// TestShardedServeEdgeDeltas feeds a sharded and a monolithic server the
// same stream — an incremental delta, a recompute, a forced fallback, a
// recompute — and holds the sharded ranks to 1e-6 L1 of the monolithic ones
// after each step. A solve re-ships payloads exactly when the structure
// changed since the workers' last solve.
func TestShardedServeEdgeDeltas(t *testing.T) {
	g := testGraph(t)
	batches := mutationStream(t, g, 2, 61)
	sharded, sts, fleet := newShardedServer(t, 2)
	mono, mts := newTestServer(t)
	ingest(t, sts, "web", edgeListBody(t, g))
	ingest(t, mts, "web", edgeListBody(t, g))
	fleet.wantLoads(t, 2, "ingest")

	agree := func(step string) {
		t.Helper()
		got, want := publishedSnap(t, sharded, "web"), publishedSnap(t, mono, "web")
		if l1 := l1Diff(t, got.Ranks, want.Ranks); l1 > 1e-6 {
			t.Fatalf("%s: sharded ranks %.3g L1 from monolithic", step, l1)
		}
	}
	recompute := func(s *Server) {
		t.Helper()
		if _, err := s.Recompute("web", Overrides{}, true); err != nil {
			t.Fatal(err)
		}
	}

	for _, ts := range []*httptest.Server{sts, mts} {
		if st := postEdges(t, ts, "web", batches[0]); st.Mode != "incremental" {
			t.Fatalf("first delta on %s: mode %q (%s), want incremental", ts.URL, st.Mode, st.Reason)
		}
	}
	agree("incremental delta")
	fleet.wantLoads(t, 2, "incremental delta")

	recompute(sharded)
	recompute(mono)
	agree("recompute after the delta")
	fleet.wantLoads(t, 4, "recompute after the delta")

	// A zero drift budget forces the next delta onto the engine.
	sharded.repairDrift, mono.repairDrift = 0, 0
	for _, ts := range []*httptest.Server{sts, mts} {
		if st := postEdges(t, ts, "web", batches[1]); st.Mode != "recompute" {
			t.Fatalf("second delta on %s: mode %q, want a forced recompute", ts.URL, st.Mode)
		}
	}
	agree("fallback delta")
	fleet.wantLoads(t, 6, "fallback delta")

	recompute(sharded)
	recompute(mono)
	agree("recompute after the fallback")
	fleet.wantLoads(t, 6, "recompute after the fallback")
}

// TestShardedServeRecovers: a coordinator with a data dir logs its
// publishes like any durable server, comes back from a crash with
// bit-identical top-k, and its first recompute redeploys the fleet.
func TestShardedServeRecovers(t *testing.T) {
	g := testGraph(t)
	fleet := startTestFleet(t, 2, shard.WorkerConfig{})
	cfg := durableConfig(t.TempDir())
	cfg.ShardWorkers = fleet.urls
	a, _ := newDurableServer(t, cfg)
	if _, err := a.AddGraph("web", g, pcpm.Options{}, false); err != nil {
		t.Fatal(err)
	}
	for _, d := range mutationStream(t, g, 3, 67) {
		if _, err := a.ApplyEdgeDelta("web", d); err != nil {
			t.Fatal(err)
		}
	}
	before, wantSnap, err := a.TopK("web", 20)
	if err != nil {
		t.Fatal(err)
	}
	crashStop(t, a)

	b, rep := newDurableServer(t, cfg)
	if rep.Graphs != 1 || rep.Replayed == 0 {
		t.Fatalf("recovery report %+v, want one graph with a replayed tail", rep)
	}
	after, gotSnap, err := b.TopK("web", 20)
	if err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if before[i].Node != after[i].Node || before[i].Rank != after[i].Rank {
			t.Fatalf("top-k[%d] after recovery %+v, before %+v", i, after[i], before[i])
		}
	}
	if gotSnap.Version != wantSnap.Version || !ranksBitEqual(gotSnap.Ranks, wantSnap.Ranks) {
		t.Fatalf("recovered version %d, ranks bit-equal %v; want version %d, bit-equal",
			gotSnap.Version, ranksBitEqual(gotSnap.Ranks, wantSnap.Ranks), wantSnap.Version)
	}

	loads := fleet.loads.Load()
	if _, err := b.Recompute("web", Overrides{}, true); err != nil {
		t.Fatal(err)
	}
	fleet.wantLoads(t, loads+2, "first recompute after recovery")
}

// TestShardedServeFollows: a coordinator-mode follower of a monolithic
// leader converges like any follower, is promoted, and its first recompute
// deploys the graph to its fleet.
func TestShardedServeFollows(t *testing.T) {
	g := testGraph(t)
	lead := startLeader(t, t.TempDir())
	if _, err := lead.srv.AddGraph("web", g, pcpm.Options{}, false); err != nil {
		t.Fatal(err)
	}
	fleet := startTestFleet(t, 2, shard.WorkerConfig{})
	cfg := followerConfig(lead.url)
	cfg.ShardWorkers = fleet.urls
	cfg.DataDir = t.TempDir()
	f := New(cfg)
	t.Cleanup(func() { f.CloseDurable() })
	startFollower(t, f)
	for _, d := range mutationStream(t, g, 3, 71) {
		if _, err := lead.srv.ApplyEdgeDelta("web", d); err != nil {
			t.Fatal(err)
		}
	}
	waitCaughtUp(t, lead.srv, f)
	assertConverged(t, lead.srv, f, "web")
	fleet.wantLoads(t, 0, "following")

	if _, err := f.Promote(); err != nil {
		t.Fatalf("promote: %v", err)
	}
	st, err := f.Recompute("web", Overrides{}, true)
	if err != nil {
		t.Fatal(err)
	}
	fleet.wantLoads(t, 2, "first recompute after promotion")
	if st.Snapshot.Method != MethodSharded {
		t.Fatalf("recompute method %q, want %q", st.Snapshot.Method, MethodSharded)
	}
	ref, err := pcpm.Run(st.Snapshot.Graph, st.Snapshot.Options)
	if err != nil {
		t.Fatal(err)
	}
	if l1 := l1Diff(t, st.Snapshot.Ranks, ref.Ranks); l1 > 1e-6 {
		t.Fatalf("promoted coordinator's recompute %.3g L1 from monolithic", l1)
	}
}

// TestShardedServeWorkerDown: with a worker gone, reads keep answering from
// the snapshot — the gathered vector lives on the coordinator — while a
// recompute, which needs the whole fleet, answers 503.
func TestShardedServeWorkerDown(t *testing.T) {
	g := testGraph(t)
	_, ts, fleet := newShardedServer(t, 2)
	ingest(t, ts, "web", edgeListBody(t, g))
	var before topkResponse
	if code := doJSON(t, "GET", ts.URL+"/v1/graphs/web/topk?k=10", nil, &before); code != http.StatusOK {
		t.Fatalf("topk: status %d", code)
	}

	fleet.servers[1].Close()
	var after topkResponse
	if code := doJSON(t, "GET", ts.URL+"/v1/graphs/web/topk?k=10", nil, &after); code != http.StatusOK {
		t.Fatalf("topk with dead worker: status %d, want 200", code)
	}
	if fmt.Sprint(after.Ranks) != fmt.Sprint(before.Ranks) || after.Version != before.Version {
		t.Fatalf("topk with dead worker %+v, before %+v", after, before)
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/graphs/web/rank/299", nil, nil); code != http.StatusOK {
		t.Fatalf("rank with dead worker: status %d", code)
	}
	var info GraphInfo
	if code := doJSON(t, "GET", ts.URL+"/v1/graphs/web", nil, &info); code != http.StatusOK {
		t.Fatalf("info: status %d", code)
	}
	var errResp struct {
		Error string `json:"error"`
	}
	code := doJSON(t, "POST", ts.URL+"/v1/graphs/web/recompute?wait=true", nil, &errResp)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("recompute with dead worker: status %d, want 503", code)
	}
	if !strings.Contains(errResp.Error, "unavailable") {
		t.Fatalf("503 body lacks worker detail: %q", errResp.Error)
	}
}

// TestShardedWorkerDiesMidSolve closes one worker's server during a
// many-round recompute. The solve fails as unavailable within a few swap
// waits, the published snapshot stays, and once a fresh worker takes the
// dead one's address the next solve re-ships the payloads: the failure
// forgot what the fleet held.
func TestShardedWorkerDiesMidSolve(t *testing.T) {
	const swapWait = 200 * time.Millisecond
	g := testGraph(t)
	fleet := startTestFleet(t, 2, shard.WorkerConfig{SwapWait: swapWait})
	s := New(Config{Defaults: testOptions, ShardWorkers: fleet.urls})
	if _, err := s.AddGraph("web", g, pcpm.Options{}, false); err != nil {
		t.Fatal(err)
	}
	fleet.wantLoads(t, 2, "ingest")
	snap := publishedSnap(t, s, "web")

	rounds := 1000 // the workers' round cap: far more than the test lets run
	swaps := fleet.swaps.Load()
	done := make(chan error, 1)
	go func() {
		_, err := s.Recompute("web", Overrides{Iterations: &rounds}, true)
		done <- err
	}()
	for fleet.swaps.Load() < swaps+6 {
		select {
		case err := <-done:
			t.Fatalf("recompute ended before the kill: %v", err)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	killed := time.Now()
	fleet.servers[1].Close()
	select {
	case err := <-done:
		if !errors.Is(err, shard.ErrUnavailable) {
			t.Fatalf("recompute with a worker killed mid-solve: err = %v, want ErrUnavailable", err)
		}
		if took := time.Since(killed); took > 10*swapWait {
			t.Fatalf("the solve took %s to fail after the kill, want a few swap waits", took)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("recompute still running 30s after a worker died")
	}
	if cur := publishedSnap(t, s, "web"); cur != snap {
		t.Fatalf("failed solve published version %d over version %d", cur.Version, snap.Version)
	}

	fleet.replace(t, 1)
	if _, err := s.Recompute("web", Overrides{}, true); err != nil {
		t.Fatal(err)
	}
	fleet.wantLoads(t, 4, "first recompute on the mended fleet")
}

func TestShardedServeIngestFailsWithoutFleet(t *testing.T) {
	g := testGraph(t)
	_, ts, fleet := newShardedServer(t, 2)
	for _, w := range fleet.servers {
		w.Close()
	}
	var errResp struct {
		Error string `json:"error"`
	}
	code := doJSON(t, "POST", ts.URL+"/v1/graphs?name=web", edgeListBody(t, g), &errResp)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("ingest with dead fleet: status %d, want 503", code)
	}
}

func TestHealthzReadiness(t *testing.T) {
	// A plain memory-only server is ready immediately.
	_, ts := newTestServer(t)
	var health struct {
		Ready  bool   `json:"ready"`
		Reason string `json:"reason"`
	}
	if code := doJSON(t, "GET", ts.URL+"/healthz", nil, &health); code != http.StatusOK || !health.Ready {
		t.Fatalf("memory server health: code %d ready %v", code, health.Ready)
	}

	// A durable server is not ready until Recover has run.
	s := New(Config{DataDir: t.TempDir()})
	tsd := httptest.NewServer(s.Handler())
	t.Cleanup(tsd.Close)
	if code := doJSON(t, "GET", tsd.URL+"/healthz", nil, &health); code != http.StatusServiceUnavailable || health.Ready {
		t.Fatalf("unrecovered health: code %d ready %v", code, health.Ready)
	}
	if health.Reason == "" {
		t.Fatal("unready health response carries no reason")
	}
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	if code := doJSON(t, "GET", tsd.URL+"/healthz", nil, &health); code != http.StatusOK || !health.Ready {
		t.Fatalf("recovered health: code %d ready %v", code, health.Ready)
	}

	// A follower is not ready until its first bootstrap completes.
	f := New(Config{FollowAddr: "http://localhost:1"})
	tsf := httptest.NewServer(f.Handler())
	t.Cleanup(tsf.Close)
	if code := doJSON(t, "GET", tsf.URL+"/healthz", nil, &health); code != http.StatusServiceUnavailable || health.Ready {
		t.Fatalf("unbootstrapped follower health: code %d ready %v", code, health.Ready)
	}
}

func TestShardedSnapshotShape(t *testing.T) {
	g := testGraph(t)
	s, ts, _ := newShardedServer(t, 3)
	ingest(t, ts, "web", edgeListBody(t, g))

	_, snap, err := s.TopK("web", 1)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Graph == nil {
		t.Fatal("sharded snapshot dropped the graph structure (PPR needs it)")
	}
	mono, err := pcpm.Run(g, testOptions)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Ranks) != g.NumNodes() {
		t.Fatalf("sharded snapshot holds %d ranks, want the gathered %d", len(snap.Ranks), g.NumNodes())
	}
	if l1 := l1Diff(t, snap.Ranks, mono.Ranks); l1 > 1e-6 {
		t.Fatalf("gathered ranks %.3g L1 from monolithic", l1)
	}
	if fmt.Sprint(snap.Method) != string(MethodSharded) {
		t.Fatalf("method = %q", snap.Method)
	}
}

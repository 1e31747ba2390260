package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	pcpm "repro"
	"repro/internal/gen"
	"repro/internal/graph"
)

// testGraph is a small deterministic random graph shared by the tests.
func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.ErdosRenyi(300, 2400, 7, graph.BuildOptions{Dedup: true})
	if err != nil {
		t.Fatalf("generating graph: %v", err)
	}
	return g
}

// testOptions makes runs fast and bit-for-bit reproducible: one worker and
// a fixed iteration count remove scheduling nondeterminism from float sums.
var testOptions = pcpm.Options{Iterations: 15, Workers: 1, PartitionBytes: 1 << 10}

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{Defaults: testOptions})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// edgeListBody serializes g as an uploadable text edge list.
func edgeListBody(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := pcpm.SaveEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func binaryBody(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := pcpm.SaveBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// doJSON issues a request and decodes the JSON response into out (when
// non-nil), returning the status code.
func doJSON(t *testing.T, method, url string, body []byte, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil && err != io.EOF {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

func ingest(t *testing.T, ts *httptest.Server, name string, body []byte) GraphInfo {
	t.Helper()
	var info GraphInfo
	if code := doJSON(t, "POST", ts.URL+"/v1/graphs?name="+name, body, &info); code != http.StatusCreated {
		t.Fatalf("ingest %s: status %d", name, code)
	}
	return info
}

type topkResponse struct {
	Graph   string      `json:"graph"`
	K       int         `json:"k"`
	Method  pcpm.Method `json:"method"`
	Version uint64      `json:"version"`
	Ranks   []rankJSON  `json:"ranks"`
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	var health struct {
		Status string `json:"status"`
		Graphs int    `json:"graphs"`
	}
	if code := doJSON(t, "GET", ts.URL+"/healthz", nil, &health); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if health.Status != "ok" || health.Graphs != 0 {
		t.Fatalf("healthz = %+v, want ok/0", health)
	}
}

func TestIngestAndTopKMatchesFacade(t *testing.T) {
	_, ts := newTestServer(t)
	g := testGraph(t)

	info := ingest(t, ts, "er", edgeListBody(t, g))
	if info.Nodes != g.NumNodes() || info.Edges != g.NumEdges() {
		t.Fatalf("info reports %d nodes / %d edges, want %d / %d",
			info.Nodes, info.Edges, g.NumNodes(), g.NumEdges())
	}
	if info.Version != 1 || info.Method != pcpm.MethodPCPM {
		t.Fatalf("info = %+v, want version 1 / method pcpm", info)
	}

	// The served topk must match running the engine directly.
	res, err := pcpm.Run(g, testOptions)
	if err != nil {
		t.Fatal(err)
	}
	want := pcpm.TopK(res.Ranks, 10)

	var tk topkResponse
	if code := doJSON(t, "GET", ts.URL+"/v1/graphs/er/topk?k=10", nil, &tk); code != http.StatusOK {
		t.Fatalf("topk status %d", code)
	}
	if tk.K != 10 || len(tk.Ranks) != 10 {
		t.Fatalf("topk returned %d entries, want 10", len(tk.Ranks))
	}
	for i, e := range tk.Ranks {
		if e.Node != want[i].Node || e.Rank != want[i].Rank {
			t.Fatalf("topk[%d] = %+v, want {%d %v}", i, e, want[i].Node, want[i].Rank)
		}
	}

	// k beyond the precomputed cache must fall back to a full sort.
	if code := doJSON(t, "GET", ts.URL+"/v1/graphs/er/topk?k=200", nil, &tk); code != http.StatusOK {
		t.Fatalf("topk k=200 status %d", code)
	}
	wantAll := pcpm.TopK(res.Ranks, 200)
	if len(tk.Ranks) != 200 || tk.Ranks[199].Node != wantAll[199].Node {
		t.Fatalf("topk k=200 tail mismatch")
	}
}

func TestIngestBinaryFormat(t *testing.T) {
	_, ts := newTestServer(t)
	g := testGraph(t)
	info := ingest(t, ts, "bin", binaryBody(t, g))
	if info.Nodes != g.NumNodes() || info.Edges != g.NumEdges() {
		t.Fatalf("binary ingest reports %d/%d, want %d/%d",
			info.Nodes, info.Edges, g.NumNodes(), g.NumEdges())
	}
}

func TestIngestErrors(t *testing.T) {
	_, ts := newTestServer(t)
	g := testGraph(t)
	body := edgeListBody(t, g)

	var e struct {
		Error string `json:"error"`
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/graphs", body, &e); code != http.StatusBadRequest {
		t.Fatalf("missing name: status %d", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/graphs?name=bad/slash", body, &e); code != http.StatusBadRequest {
		t.Fatalf("invalid name: status %d", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/graphs?name=g&damping=oops", body, &e); code != http.StatusBadRequest {
		t.Fatalf("bad option: status %d", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/graphs?name=g", []byte("not a graph"), &e); code != http.StatusBadRequest {
		t.Fatalf("unparseable body: status %d", code)
	}

	if code := doJSON(t, "POST", ts.URL+"/v1/graphs?name=empty", []byte{}, &e); code != http.StatusBadRequest {
		t.Fatalf("empty body: status %d, want 400", code)
	}

	ingest(t, ts, "dup", body)
	if code := doJSON(t, "POST", ts.URL+"/v1/graphs?name=dup", body, &e); code != http.StatusConflict {
		t.Fatalf("duplicate name: status %d, want 409", code)
	}
	if !strings.Contains(e.Error, "already exists") {
		t.Fatalf("duplicate error = %q", e.Error)
	}
}

// TestReplaceContinuesVersionSequence pins that re-ingesting with
// replace=true never moves a graph's version backwards — clients use the
// version as a freshness cursor.
func TestReplaceContinuesVersionSequence(t *testing.T) {
	_, ts := newTestServer(t)
	body := edgeListBody(t, testGraph(t))
	ingest(t, ts, "g", body) // version 1
	if code := doJSON(t, "POST", ts.URL+"/v1/graphs/g/recompute?wait=true", nil, nil); code != http.StatusOK {
		t.Fatalf("recompute status %d", code) // version 2
	}
	var info GraphInfo
	if code := doJSON(t, "POST", ts.URL+"/v1/graphs?name=g&replace=true", body, &info); code != http.StatusCreated {
		t.Fatalf("replace status %d", code)
	}
	if info.Version != 3 {
		t.Fatalf("replaced graph version = %d, want 3 (continues, never rewinds)", info.Version)
	}
}

func TestListInfoAndDelete(t *testing.T) {
	_, ts := newTestServer(t)
	g := testGraph(t)
	body := edgeListBody(t, g)
	ingest(t, ts, "beta", body)
	ingest(t, ts, "alpha", body)

	var list struct {
		Graphs []GraphInfo `json:"graphs"`
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/graphs", nil, &list); code != http.StatusOK {
		t.Fatalf("list status %d", code)
	}
	if len(list.Graphs) != 2 || list.Graphs[0].Name != "alpha" || list.Graphs[1].Name != "beta" {
		t.Fatalf("list = %+v, want [alpha beta]", list.Graphs)
	}

	var info GraphInfo
	if code := doJSON(t, "GET", ts.URL+"/v1/graphs/alpha", nil, &info); code != http.StatusOK {
		t.Fatalf("info status %d", code)
	}
	if info.Name != "alpha" || info.Dangling != g.DanglingCount() {
		t.Fatalf("info = %+v", info)
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/graphs/nope", nil, nil); code != http.StatusNotFound {
		t.Fatalf("info of missing graph: status %d", code)
	}

	if code := doJSON(t, "DELETE", ts.URL+"/v1/graphs/alpha", nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete status %d", code)
	}
	if code := doJSON(t, "DELETE", ts.URL+"/v1/graphs/alpha", nil, nil); code != http.StatusNotFound {
		t.Fatalf("double delete status %d", code)
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/graphs", nil, &list); code != http.StatusOK || len(list.Graphs) != 1 {
		t.Fatalf("after delete list has %d graphs, want 1", len(list.Graphs))
	}
}

// TestDeleteWALFailureIs500 pins that a removal whose write-ahead append
// fails answers 500, not 404: the graph is still registered and served.
func TestDeleteWALFailureIs500(t *testing.T) {
	s, _ := newDurableServer(t, durableConfig(t.TempDir()))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	ingest(t, ts, "web", edgeListBody(t, testGraph(t)))

	if err := s.wal.Load().Close(); err != nil {
		t.Fatal(err)
	}
	if code := doJSON(t, "DELETE", ts.URL+"/v1/graphs/web", nil, nil); code != http.StatusInternalServerError {
		t.Fatalf("delete with a closed store: status %d, want 500", code)
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/graphs/web", nil, nil); code != http.StatusOK {
		t.Fatalf("graph after a failed delete: status %d, want 200", code)
	}
}

func TestRankEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	g := testGraph(t)
	ingest(t, ts, "er", edgeListBody(t, g))

	res, err := pcpm.Run(g, testOptions)
	if err != nil {
		t.Fatal(err)
	}
	var rr struct {
		Node uint32  `json:"node"`
		Rank float32 `json:"rank"`
	}
	for _, v := range []uint32{0, 17, uint32(g.NumNodes() - 1)} {
		url := fmt.Sprintf("%s/v1/graphs/er/rank/%d", ts.URL, v)
		if code := doJSON(t, "GET", url, nil, &rr); code != http.StatusOK {
			t.Fatalf("rank(%d) status %d", v, code)
		}
		if rr.Node != v || rr.Rank != res.Ranks[v] {
			t.Fatalf("rank(%d) = %+v, want %v", v, rr, res.Ranks[v])
		}
	}

	oob := fmt.Sprintf("%s/v1/graphs/er/rank/%d", ts.URL, g.NumNodes())
	if code := doJSON(t, "GET", oob, nil, nil); code != http.StatusBadRequest {
		t.Fatalf("out-of-range vertex: status %d, want 400", code)
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/graphs/er/rank/notanum", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("non-numeric vertex: status %d, want 400", code)
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/graphs/nope/rank/0", nil, nil); code != http.StatusNotFound {
		t.Fatalf("missing graph: status %d, want 404", code)
	}
}

func TestRecomputeWaitChangesRanks(t *testing.T) {
	_, ts := newTestServer(t)
	g := testGraph(t)
	ingest(t, ts, "er", edgeListBody(t, g))

	body := []byte(`{"damping":0.6,"wait":true}`)
	var rec struct {
		Started bool   `json:"started"`
		Version uint64 `json:"version"`
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/graphs/er/recompute", body, &rec); code != http.StatusOK {
		t.Fatalf("recompute status %d", code)
	}
	if !rec.Started || rec.Version != 2 {
		t.Fatalf("recompute = %+v, want started/version 2", rec)
	}

	opts := testOptions
	opts.Damping = 0.6
	res, err := pcpm.Run(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := pcpm.TopK(res.Ranks, 5)
	var tk topkResponse
	doJSON(t, "GET", ts.URL+"/v1/graphs/er/topk?k=5", nil, &tk)
	if tk.Version != 2 {
		t.Fatalf("topk version = %d, want 2", tk.Version)
	}
	for i, e := range tk.Ranks {
		if e.Node != want[i].Node || e.Rank != want[i].Rank {
			t.Fatalf("post-recompute topk[%d] = %+v, want {%d %v}",
				i, e, want[i].Node, want[i].Rank)
		}
	}

	if code := doJSON(t, "POST", ts.URL+"/v1/graphs/nope/recompute", nil, nil); code != http.StatusNotFound {
		t.Fatalf("recompute missing graph: status %d, want 404", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/graphs/er/recompute", []byte(`{"nope":1}`), nil); code != http.StatusBadRequest {
		t.Fatalf("unknown JSON field: status %d, want 400", code)
	}
	for _, bad := range []string{
		`{"method":"bvgas"}`,
		`{"compact":true}`,
		`{"branching":true}`,
		`{"damping":1.5}`,
		`{"damping":0}`,
		`{"iterations":-1}`,
		`{"partition":1000}`,
		`{"workers":-2}`,
	} {
		if code := doJSON(t, "POST", ts.URL+"/v1/graphs/er/recompute", []byte(bad), nil); code != http.StatusBadRequest {
			t.Fatalf("invalid options %s: status %d, want 400", bad, code)
		}
	}
}

// TestRecomputeInheritsIngestOptions pins the override semantics: a
// recompute that only overrides damping keeps the configuration the graph
// was ingested with (here dangling redistribution and a custom partition
// size), instead of reverting to server defaults.
func TestRecomputeInheritsIngestOptions(t *testing.T) {
	_, ts := newTestServer(t)
	g := testGraph(t)
	body := edgeListBody(t, g)
	var info GraphInfo
	url := ts.URL + "/v1/graphs?name=er&partition=2048&redistribute=true"
	if code := doJSON(t, "POST", url, body, &info); code != http.StatusCreated {
		t.Fatalf("ingest status %d", code)
	}

	if code := doJSON(t, "POST", ts.URL+"/v1/graphs/er/recompute",
		[]byte(`{"damping":0.6,"wait":true}`), nil); code != http.StatusOK {
		t.Fatalf("recompute status %d", code)
	}

	opts := testOptions
	opts.PartitionBytes = 2048
	opts.RedistributeDangling = true
	opts.Damping = 0.6
	res, err := pcpm.Run(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := pcpm.TopK(res.Ranks, 5)
	var tk topkResponse
	doJSON(t, "GET", ts.URL+"/v1/graphs/er/topk?k=5", nil, &tk)
	for i, e := range tk.Ranks {
		if e.Node != want[i].Node || e.Rank != want[i].Rank {
			t.Fatalf("inherited-options topk[%d] = %+v, want {%d %v}",
				i, e, want[i].Node, want[i].Rank)
		}
	}
}

func TestUploadCapReturns413(t *testing.T) {
	s := New(Config{Defaults: testOptions, MaxUploadBytes: 64})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	g := testGraph(t)
	var e struct {
		Error string `json:"error"`
	}
	code := doJSON(t, "POST", ts.URL+"/v1/graphs?name=big", edgeListBody(t, g), &e)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload: status %d, want 413", code)
	}
	if !strings.Contains(e.Error, "64 bytes") {
		t.Fatalf("413 error = %q, want the limit named", e.Error)
	}
}

func TestRecomputeAsyncAndCoalescing(t *testing.T) {
	s, ts := newTestServer(t)
	g := testGraph(t)
	ingest(t, ts, "er", edgeListBody(t, g))

	// Gate the engine so the recompute stays observably in flight.
	release := make(chan struct{})
	s.computeFn = func(g *graph.Graph, o pcpm.Options) (*pcpm.Result, error) {
		res, err := pcpm.Run(g, o)
		<-release
		return res, err
	}

	var rec struct {
		Started   bool `json:"started"`
		Coalesced bool `json:"coalesced"`
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/graphs/er/recompute", nil, &rec); code != http.StatusAccepted {
		t.Fatalf("async recompute status %d, want 202", code)
	}
	if !rec.Started || rec.Coalesced {
		t.Fatalf("first recompute = %+v, want started", rec)
	}

	// Duplicate requests while one is in flight must coalesce, not queue.
	for i := 0; i < 3; i++ {
		if code := doJSON(t, "POST", ts.URL+"/v1/graphs/er/recompute", nil, &rec); code != http.StatusAccepted {
			t.Fatalf("coalesced recompute status %d, want 202", code)
		}
		if rec.Started || !rec.Coalesced {
			t.Fatalf("duplicate recompute = %+v, want coalesced", rec)
		}
	}

	var info GraphInfo
	doJSON(t, "GET", ts.URL+"/v1/graphs/er", nil, &info)
	if !info.Recomputing || info.Version != 1 {
		t.Fatalf("mid-flight info = %+v, want recomputing at version 1", info)
	}

	close(release)
	// Joining the in-flight run with wait=true returns only once it lands.
	var done struct {
		Version uint64 `json:"version"`
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/graphs/er/recompute?wait=true", nil, &done); code != http.StatusOK {
		t.Fatalf("wait recompute status %d", code)
	}
	if done.Version < 2 {
		t.Fatalf("post-release version = %d, want >= 2", done.Version)
	}
}

// TestAddGraphConcurrentDuplicateBurnsOneCompute is the TOCTOU regression:
// two concurrent ingests of the same name used to both pass the pre-compute
// existence check and both burn a full engine run. The name is now reserved
// before computing, so the duplicate fails immediately — while the first
// ingest's engine run is still in flight — and exactly one compute happens.
func TestAddGraphConcurrentDuplicateBurnsOneCompute(t *testing.T) {
	s := New(Config{Defaults: testOptions})
	g := testGraph(t)

	var computes atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.computeFn = func(g *graph.Graph, o pcpm.Options) (*pcpm.Result, error) {
		computes.Add(1)
		once.Do(func() { close(entered) })
		<-release
		return pcpm.Run(g, o)
	}

	firstDone := make(chan error, 1)
	go func() {
		_, err := s.AddGraph("dup", g, pcpm.Options{}, false)
		firstDone <- err
	}()
	<-entered

	// The duplicate must fail NOW, with the first compute still gated.
	if _, err := s.AddGraph("dup", g, pcpm.Options{}, false); !errors.Is(err, ErrExists) {
		t.Fatalf("concurrent duplicate ingest: err = %v, want ErrExists", err)
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("duplicate ingest burned a compute: %d engine runs, want 1", n)
	}

	close(release)
	if err := <-firstDone; err != nil {
		t.Fatalf("original ingest failed: %v", err)
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("%d engine runs after settle, want 1", n)
	}
	// The name is live; a later duplicate still conflicts, a replace works.
	if _, err := s.AddGraph("dup", g, pcpm.Options{}, false); !errors.Is(err, ErrExists) {
		t.Fatalf("post-settle duplicate: err = %v, want ErrExists", err)
	}
	if info, err := s.AddGraph("dup", g, pcpm.Options{}, true); err != nil || info.Version != 2 {
		t.Fatalf("replace after ingest: %+v, %v", info, err)
	}
}

// TestConcurrentReplacesSerialize pins that replace=true ingests racing an
// in-flight ingest wait their turn instead of conflicting — the loadtest's
// re-upload traffic runs concurrently and must not 409.
func TestConcurrentReplacesSerialize(t *testing.T) {
	s := New(Config{Defaults: testOptions})
	g := testGraph(t)
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.AddGraph("g", g, pcpm.Options{}, true)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent replace %d failed: %v", i, err)
		}
	}
	if _, snap, err := s.TopK("g", 1); err != nil || snap.Version != 4 {
		t.Fatalf("after 4 replaces: version = %d (err %v), want 4", snap.Version, err)
	}
}

// TestIngestValidatesOptionsBeforeBody is the validation regression: bad
// engine options in the ingest query must 400 before the body is read —
// and ?iterations=-5 must be rejected instead of silently running the
// default iteration count.
func TestIngestValidatesOptionsBeforeBody(t *testing.T) {
	_, ts := newTestServer(t)
	g := testGraph(t)
	body := edgeListBody(t, g)

	var e struct {
		Error string `json:"error"`
	}
	for _, bad := range []struct{ query, wantIn string }{
		{"iterations=-5", "iterations"},
		{"damping=1.5", "damping"},
		{"damping=0", "damping"},
		{"tolerance=-1", "tolerance"},
		{"partition=1000", "partition"},
		{"workers=-2", "workers"},
		{"method=bvgas", `"method"`},
		{"compact=true", `"compact"`},
		{"branching=true", `"branching"`},
	} {
		url := ts.URL + "/v1/graphs?name=g&" + bad.query
		if code := doJSON(t, "POST", url, body, &e); code != http.StatusBadRequest {
			t.Fatalf("?%s with a valid body: status %d, want 400", bad.query, code)
		}
		if !strings.Contains(e.Error, bad.wantIn) {
			t.Fatalf("?%s error = %q, want it to name %q", bad.query, e.Error, bad.wantIn)
		}
		// The same 400 with an unparseable body proves the options check runs
		// before the upload is read: the error is still about the option.
		if code := doJSON(t, "POST", url, []byte("not a graph"), &e); code != http.StatusBadRequest {
			t.Fatalf("?%s with a bad body: status %d, want 400", bad.query, code)
		}
		if !strings.Contains(e.Error, bad.wantIn) {
			t.Fatalf("?%s with a bad body: error %q blames the body, not the option", bad.query, e.Error)
		}
	}
	// Nothing got registered along the way.
	if code := doJSON(t, "GET", ts.URL+"/v1/graphs/g", nil, nil); code != http.StatusNotFound {
		t.Fatalf("graph exists after rejected ingests: status %d", code)
	}
}

// TestFillDefaultsBoolOverlay is the fillDefaults regression: programmatic
// AddGraph callers must inherit server-configured defaults, the boolean one
// included, while the HTTP path keeps its tri-state semantics — an explicit
// =false beats a true default, an explicit partition a default one.
func TestFillDefaultsBoolOverlay(t *testing.T) {
	opts := testOptions
	opts.RedistributeDangling = true
	opts.PartitionBytes = 4096
	s := New(Config{Defaults: opts})
	g := testGraph(t)

	if _, err := s.AddGraph("plain", g, pcpm.Options{}, false); err != nil {
		t.Fatal(err)
	}
	_, snap, err := s.TopK("plain", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Options.RedistributeDangling || snap.Options.PartitionBytes != 4096 {
		t.Fatalf("programmatic AddGraph lost defaults: %+v", snap.Options)
	}

	// HTTP ingest with explicit values must override the defaults.
	ts := newHTTPServer(t, s)
	var info GraphInfo
	url := ts + "/v1/graphs?name=explicit&redistribute=false&partition=2048"
	if code := doJSON(t, "POST", url, edgeListBody(t, g), &info); code != http.StatusCreated {
		t.Fatalf("ingest status %d", code)
	}
	_, snap, err = s.TopK("explicit", 0)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Options.RedistributeDangling || snap.Options.PartitionBytes != 2048 {
		t.Fatalf("explicit values lost to server defaults: %+v", snap.Options)
	}
}

// TestOptionKeysAreOverridesTags pins the one option surface: the keys the
// ingest query parser and the recompute body accept are exactly the JSON
// tags of Overrides (plus name/replace, resp. wait), so a field cannot be
// added to one parser and not the other, and a retired or misspelt key is
// refused by both instead of dropped.
func TestOptionKeysAreOverridesTags(t *testing.T) {
	_, ts := newTestServer(t)
	g := testGraph(t)
	body := edgeListBody(t, g)
	ingest(t, ts, "er", body)

	// A valid value per field type; 4 is a legal iteration count, worker
	// count and partition size alike.
	values := map[reflect.Kind]string{reflect.Float64: "0.5", reflect.Int: "4", reflect.Bool: "true"}
	rt := reflect.TypeOf(Overrides{})
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		val := values[f.Type.Elem().Kind()]
		if key == "" || val == "" {
			t.Fatalf("Overrides.%s: no JSON key or no sample value", f.Name)
		}
		url := fmt.Sprintf("%s/v1/graphs?name=q-%s&replace=false&%s=%s", ts.URL, key, key, val)
		if code := doJSON(t, "POST", url, body, nil); code != http.StatusCreated {
			t.Errorf("ingest ?%s=%s: status %d, want 201", key, val, code)
		}
		rec := fmt.Sprintf(`{"wait":true,%q:%s}`, key, val)
		if code := doJSON(t, "POST", ts.URL+"/v1/graphs/er/recompute", []byte(rec), nil); code != http.StatusOK {
			t.Errorf("recompute %s: status %d, want 200", rec, code)
		}
	}
	// The Go field names are not keys, nor is a key of the other surface.
	for _, key := range []string{"PartitionBytes", "Damping", "nope"} {
		url := fmt.Sprintf("%s/v1/graphs?name=bad&%s=4", ts.URL, key)
		if code := doJSON(t, "POST", url, body, nil); code != http.StatusBadRequest {
			t.Errorf("ingest ?%s=4: status %d, want 400", key, code)
		}
	}
	for _, rec := range []string{`{"name":"er"}`, `{"replace":true}`, `{"nope":4}`} {
		if code := doJSON(t, "POST", ts.URL+"/v1/graphs/er/recompute", []byte(rec), nil); code != http.StatusBadRequest {
			t.Errorf("recompute %s: status %d, want 400", rec, code)
		}
	}

	// Server defaults that select another solver are refused, not ignored.
	for _, d := range []pcpm.Options{
		{Method: pcpm.MethodBVGAS},
		{Method: pcpm.MethodPCPMCSR},
	} {
		s := New(Config{Defaults: d})
		if _, err := s.AddGraph("g", g, pcpm.Options{}, false); !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("Defaults %+v: AddGraph err = %v, want ErrInvalidOptions", d, err)
		}
		if _, err := s.IngestGraph("g", g, Overrides{}, false); !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("Defaults %+v: IngestGraph err = %v, want ErrInvalidOptions", d, err)
		}
		if _, err := New(Config{}).AddGraph("g", g, d, false); !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("AddGraph(%+v) err = %v, want ErrInvalidOptions", d, err)
		}
	}
}

func TestSnapshotTopKCacheConsistency(t *testing.T) {
	s := New(Config{Defaults: testOptions})
	g := testGraph(t)
	if _, err := s.AddGraph("er", g, pcpm.Options{}, false); err != nil {
		t.Fatal(err)
	}
	cached, _, err := s.TopK("er", 50)
	if err != nil {
		t.Fatal(err)
	}
	_, snap, _ := s.TopK("er", 0)
	full := pcpm.TopK(snap.Ranks, 50)
	for i := range full {
		if cached[i] != full[i] {
			t.Fatalf("cached topk[%d] = %+v, full sort gives %+v", i, cached[i], full[i])
		}
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

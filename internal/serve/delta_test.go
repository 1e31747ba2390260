package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	pcpm "repro"
	"repro/internal/delta"
	"repro/internal/graph"
)

// edgesBody builds the JSON body of POST .../edges.
func edgesBody(insert, del [][2]uint32) []byte {
	writePairs := func(b *[]byte, key string, pairs [][2]uint32) {
		*b = append(*b, fmt.Sprintf("%q:[", key)...)
		for i, p := range pairs {
			if i > 0 {
				*b = append(*b, ',')
			}
			*b = append(*b, fmt.Sprintf("[%d,%d]", p[0], p[1])...)
		}
		*b = append(*b, ']')
	}
	body := []byte{'{'}
	if len(insert) > 0 {
		writePairs(&body, "insert", insert)
	}
	if len(del) > 0 {
		if len(insert) > 0 {
			body = append(body, ',')
		}
		writePairs(&body, "delete", del)
	}
	return append(body, '}')
}

type edgesResponse struct {
	Graph      string  `json:"graph"`
	Version    uint64  `json:"version"`
	Mode       string  `json:"mode"`
	Reason     string  `json:"reason"`
	Inserted   int     `json:"inserted"`
	Deleted    int     `json:"deleted"`
	Changed    int     `json:"changed"`
	SeedL1     float64 `json:"seed_l1"`
	ResidualL1 float64 `json:"residual_l1"`
	Rounds     int     `json:"rounds"`
	Nodes      int     `json:"nodes"`
	Edges      int64   `json:"edges"`
}

// TestEdgesEndpointIncrementalRepair pins the endpoint end to end: the
// published snapshot after a delta carries exactly the ranks the facade's
// ApplyEdgeDelta produces from the same inputs (the repair is
// deterministic), under a bumped version, with the structure actually
// changed.
func TestEdgesEndpointIncrementalRepair(t *testing.T) {
	_, ts := newTestServer(t)
	g := testGraph(t)
	ingest(t, ts, "er", edgeListBody(t, g))

	edges := g.Edges()
	del := [][2]uint32{{edges[0].Src, edges[0].Dst}, {edges[7].Src, edges[7].Dst}}
	ins := [][2]uint32{{1, 2}, {3, 4}, {250, 11}}

	var resp edgesResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/graphs/er/edges", edgesBody(ins, del), &resp); code != http.StatusOK {
		t.Fatalf("edges status %d", code)
	}
	if resp.Mode != "incremental" || resp.Version != 2 {
		t.Fatalf("edges response = %+v, want incremental at version 2", resp)
	}
	if resp.Inserted != 3 || resp.Deleted != 2 {
		t.Fatalf("edges response counts = %+v", resp)
	}
	if resp.Edges != g.NumEdges()+3-2 || resp.Nodes != g.NumNodes() {
		t.Fatalf("post-delta shape = %d nodes / %d edges, want %d / %d",
			resp.Nodes, resp.Edges, g.NumNodes(), g.NumEdges()+1)
	}

	// Reference: the same delta applied through the facade to the same
	// baseline ranks (single-worker repair is deterministic).
	base, err := pcpm.Run(g, testOptions)
	if err != nil {
		t.Fatal(err)
	}
	d := pcpm.EdgeDelta{}
	for _, p := range ins {
		d.Insert = append(d.Insert, pcpm.Edge{Src: p[0], Dst: p[1], W: 1})
	}
	for _, p := range del {
		d.Delete = append(d.Delete, pcpm.Edge{Src: p[0], Dst: p[1], W: 1})
	}
	want, err := pcpm.ApplyEdgeDelta(g, base.Ranks, d, pcpm.DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want.FellBack {
		t.Fatalf("reference repair fell back: %s", want.Reason)
	}
	var rr struct {
		Rank    float32 `json:"rank"`
		Version uint64  `json:"version"`
	}
	for _, v := range []uint32{0, 1, 2, 17, uint32(g.NumNodes() - 1)} {
		url := fmt.Sprintf("%s/v1/graphs/er/rank/%d", ts.URL, v)
		if code := doJSON(t, "GET", url, nil, &rr); code != http.StatusOK {
			t.Fatalf("rank(%d) status %d", v, code)
		}
		if rr.Version != 2 || rr.Rank != want.Ranks[v] {
			t.Fatalf("rank(%d) = %v at version %d, want %v at version 2",
				v, rr.Rank, rr.Version, want.Ranks[v])
		}
	}
}

func TestEdgesEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t)
	g := testGraph(t)
	ingest(t, ts, "er", edgeListBody(t, g))
	n := uint32(g.NumNodes())

	var e struct {
		Error string `json:"error"`
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/graphs/nope/edges",
		edgesBody([][2]uint32{{0, 1}}, nil), &e); code != http.StatusNotFound {
		t.Fatalf("missing graph: status %d, want 404", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/graphs/er/edges", []byte(`{}`), &e); code != http.StatusBadRequest {
		t.Fatalf("empty delta: status %d, want 400", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/graphs/er/edges", []byte(`{"insert":[[1]]}`), &e); code != http.StatusBadRequest {
		t.Fatalf("malformed pair: status %d, want 400", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/graphs/er/edges", []byte(`{"nope":1}`), &e); code != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d, want 400", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/graphs/er/edges",
		edgesBody([][2]uint32{{0, n}}, nil), &e); code != http.StatusBadRequest {
		t.Fatalf("out-of-range endpoint: status %d, want 400 (node growth is a re-upload)", code)
	}
	// An absent (src,dst) pair for the delete error: self-loop unlikely in
	// the dedup'd test graph — find a vertex without one.
	var absent [2]uint32
	found := false
	for v := uint32(0); v < n && !found; v++ {
		selfLoop := false
		for _, u := range g.OutNeighbors(v) {
			if u == v {
				selfLoop = true
				break
			}
		}
		if !selfLoop {
			absent = [2]uint32{v, v}
			found = true
		}
	}
	if found {
		if code := doJSON(t, "POST", ts.URL+"/v1/graphs/er/edges",
			edgesBody(nil, [][2]uint32{absent}), &e); code != http.StatusBadRequest {
			t.Fatalf("absent-edge delete: status %d, want 400", code)
		}
	}

	// A graph info read after all those failures still serves version 1.
	var info GraphInfo
	doJSON(t, "GET", ts.URL+"/v1/graphs/er", nil, &info)
	if info.Version != 1 || info.Edges != g.NumEdges() {
		t.Fatalf("failed deltas must not mutate: info = %+v", info)
	}
}

func TestEdgesBatchLimit(t *testing.T) {
	s := New(Config{Defaults: testOptions, MaxDeltaEdges: 2})
	g := testGraph(t)
	if _, err := s.AddGraph("er", g, Overrides{}, false); err != nil {
		t.Fatal(err)
	}
	d := delta.EdgeDelta{Insert: []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}}}
	_, err := s.ApplyEdgeDelta("er", d)
	if err == nil {
		t.Fatal("3 changes with MaxDeltaEdges=2: want error")
	}
	// And over HTTP the limit maps to 413.
	ts := newHTTPServer(t, s)
	var e struct {
		Error string `json:"error"`
	}
	body := edgesBody([][2]uint32{{0, 1}, {1, 2}, {2, 3}}, nil)
	if code := doJSON(t, "POST", ts+"/v1/graphs/er/edges", body, &e); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch: status %d, want 413", code)
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// TestEdgesBodyCappedByEdgeLimit: an edges body far past what the batch
// limit allows gets its 413 once the body cap is read — deltaPairBytes per
// allowed change, plus one pair's budget — not after the whole body is
// decoded and its pairs counted.
func TestEdgesBodyCappedByEdgeLimit(t *testing.T) {
	const limit = 1000
	s := New(Config{Defaults: testOptions, MaxDeltaEdges: limit})
	if _, err := s.AddGraph("er", testGraph(t), Overrides{}, false); err != nil {
		t.Fatal(err)
	}
	pairs := make([][2]uint32, 100*limit)
	for i := range pairs {
		pairs[i] = [2]uint32{0, 1}
	}
	body := &countingReader{r: bytes.NewReader(edgesBody(pairs, nil))}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/graphs/er/edges", body))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413 (%s)", rec.Code, rec.Body)
	}
	// The cap's reader asks for at most one byte past the cap.
	if bodyCap := int64(limit+1) * deltaPairBytes; body.n > bodyCap+1 {
		t.Fatalf("read %d body bytes before answering, cap is %d", body.n, bodyCap)
	}
}

// TestPublishesKeepOrStrandPPRAnswers pins which publishes keep a graph's
// personalized answers: those over the same structure (a recompute, live or
// applied by a follower) keep them, and those that change it (an edge delta,
// incremental or fallback, live or applied, and a replace) strand them, so
// the repeat query computes afresh.
func TestPublishesKeepOrStrandPPRAnswers(t *testing.T) {
	edit := func(mode string, budget float64) func(*testing.T, *Server) {
		return func(t *testing.T, lead *Server) {
			lead.repairDrift = budget
			st, err := lead.ApplyEdgeDelta("g", delta.EdgeDelta{Insert: []graph.Edge{{Src: 0, Dst: 9}}})
			if err != nil {
				t.Fatal(err)
			}
			if st.Mode != mode {
				t.Fatalf("delta took the %s path, want %s", st.Mode, mode)
			}
		}
	}
	incremental, fallback := edit("incremental", maxRepairDrift), edit("recompute", 0)
	recompute := func(t *testing.T, lead *Server) {
		if _, err := lead.Recompute("g", Overrides{}, true); err != nil {
			t.Fatal(err)
		}
	}
	replace := func(t *testing.T, lead *Server) {
		if _, err := lead.AddGraph("g", testGraph(t), Overrides{}, true); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name     string
		follower bool // query a follower that applies the leader's publish
		publish  func(*testing.T, *Server)
		kept     bool
	}{
		{"incremental delta", false, incremental, false},
		{"fallback delta", false, fallback, false},
		{"recompute", false, recompute, true},
		{"replace", false, replace, false},
		{"applied incremental delta", true, incremental, false},
		{"applied fallback delta", true, fallback, false},
		{"applied recompute", true, recompute, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lead := New(Config{Defaults: testOptions})
			q := lead
			if tc.follower {
				c := newCluster(t, testOptions)
				lead, q = c.lead.srv, c.fs[0].srv
			}
			caughtUp := func() {
				if tc.follower {
					waitCaughtUp(t, lead, q)
				}
			}
			query := func() PPRAnswer {
				t.Helper()
				ans, err := q.Personalized("g", [][]uint32{{5}}, 5, 0)
				if err != nil {
					t.Fatal(err)
				}
				return ans[0]
			}
			if _, err := lead.AddGraph("g", testGraph(t), Overrides{}, false); err != nil {
				t.Fatal(err)
			}
			caughtUp()
			query()
			tc.publish(t, lead)
			caughtUp()
			want := 0
			if tc.kept {
				want = 1
			}
			if n, _ := q.PPRCacheLen("g"); n != want {
				t.Errorf("after the publish the graph holds %d answers, want %d", n, want)
			}
			if cached := query().Cached; cached != tc.kept {
				t.Errorf("repeat query cached = %v, want %v", cached, tc.kept)
			}
			if n, _ := q.PPRCacheLen("g"); n != 1 {
				t.Errorf("after the repeat the graph holds %d answers, want 1", n)
			}
		})
	}
}

// TestEdgesInvalidatesPPRStateAndVersions pins the cache-coherence contract:
// applying a delta clears the personalized-answer LRU, and subsequent
// queries answer against the new structure, bit-identically to a fresh run
// on the published graph.
func TestEdgesInvalidatesPPRStateAndVersions(t *testing.T) {
	s, ts := newTestServer(t)
	g := testGraph(t)
	ingest(t, ts, "er", edgeListBody(t, g))

	if _, err := s.Personalized("er", [][]uint32{{5}}, 5, 0); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.PPRCacheLen("er"); n != 1 {
		t.Fatalf("primed cache has %d entries, want 1", n)
	}

	if _, err := s.ApplyEdgeDelta("er", delta.EdgeDelta{
		Insert: []graph.Edge{{Src: 5, Dst: 9}},
	}); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.PPRCacheLen("er"); n != 0 {
		t.Fatalf("cache after delta has %d entries, want 0 (stale structure)", n)
	}

	// A fresh personalized query must compute against the new structure and
	// repopulate the cache.
	ans, err := s.Personalized("er", [][]uint32{{5}}, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ans[0].Cached {
		t.Fatal("post-delta personalized answer claims to be cached")
	}
	if n, _ := s.PPRCacheLen("er"); n != 1 {
		t.Fatalf("cache after fresh query has %d entries, want 1", n)
	}
	e, err := s.lookup("er")
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := pcpm.RunPersonalized(e.snap.Load().Graph, []uint32{5}, pcpm.PPRRunOptions{TopK: 5, TopOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	for j, want := range fresh.Top {
		if got := ans[0].Top[j]; got.Node != want.Node || got.Score != want.Score {
			t.Fatalf("post-delta top[%d] = {%d %g}, a fresh run on the new graph gives {%d %g}",
				j, got.Node, got.Score, want.Node, want.Score)
		}
	}
}

// TestDeltaFallsBackToRecompute pins the fallback wiring: a graph ingested
// under the redistribute-dangling formulation cannot be repaired
// incrementally, so the delta publishes a full engine rerun instead.
func TestDeltaFallsBackToRecompute(t *testing.T) {
	opts := testOptions
	opts.RedistributeDangling = true
	s := New(Config{Defaults: opts})
	g := testGraph(t)
	if _, err := s.AddGraph("er", g, Overrides{}, false); err != nil {
		t.Fatal(err)
	}
	st, err := s.ApplyEdgeDelta("er", delta.EdgeDelta{Insert: []graph.Edge{{Src: 0, Dst: 9}}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != "recompute" || st.Reason == "" || st.Version != 2 {
		t.Fatalf("delta status = %+v, want recompute fallback at version 2", st)
	}
	// The fallback must equal an engine run on the patched graph.
	ng, err := graph.Patch(g, []graph.Edge{{Src: 0, Dst: 9, W: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pcpm.Run(ng, opts)
	if err != nil {
		t.Fatal(err)
	}
	entries, snap, err := s.TopK("er", 5)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != 2 {
		t.Fatalf("snapshot version = %d, want 2", snap.Version)
	}
	want := pcpm.TopK(res.Ranks, 5)
	for i := range entries {
		if entries[i] != want[i] {
			t.Fatalf("fallback topk[%d] = %+v, want %+v", i, entries[i], want[i])
		}
	}
}

// TestRunsUseConfiguredSizing pins where partition size and worker count
// come from: the server's Config.Defaults, on every run. Snapshots whose
// logged options name others (written here by a server configured
// differently on the same data dir) are recomputed, and their delta
// fallback rerun, at the configured values; the rest of the logged options
// are inherited as before.
func TestRunsUseConfiguredSizing(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(t)
	logged := testOptions
	logged.PartitionBytes, logged.Workers = 4096, 3
	a, _ := newDurableServer(t, Config{Defaults: logged, DataDir: dir})
	redistribute := true // the dense dangling columns force every delta to fall back
	for _, name := range []string{"recompute", "fallback"} {
		if _, err := a.AddGraph(name, g, Overrides{RedistributeDangling: &redistribute}, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.CloseDurable(); err != nil {
		t.Fatal(err)
	}

	b, _ := newDurableServer(t, durableConfig(dir))
	var ran []pcpm.Options
	b.computeFn = func(g *graph.Graph, o pcpm.Options) (*pcpm.Result, error) {
		ran = append(ran, o)
		return pcpm.Run(g, o)
	}
	for _, name := range []string{"recompute", "fallback"} {
		if o := publishedSnap(t, b, name).Options; o.PartitionBytes != 4096 || o.Workers != 3 {
			t.Fatalf("%s: recovered options %+v, want the logged sizing", name, o)
		}
	}
	damping := 0.6
	if _, err := b.Recompute("recompute", Overrides{Damping: &damping}, true); err != nil {
		t.Fatal(err)
	}
	st, err := b.ApplyEdgeDelta("fallback", delta.EdgeDelta{Insert: []graph.Edge{{Src: 0, Dst: 9}}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != "recompute" {
		t.Fatalf("delta status = %+v, want a recompute fallback", st)
	}

	want := testOptions
	want.RedistributeDangling = true
	wantRecompute := want
	wantRecompute.Damping = damping
	if len(ran) != 2 || ran[0] != wantRecompute || ran[1] != want {
		t.Fatalf("engine runs %+v, want [%+v %+v]", ran, wantRecompute, want)
	}
	for i, name := range []string{"recompute", "fallback"} {
		if o := publishedSnap(t, b, name).Options; o != ran[i] {
			t.Errorf("%s: published options %+v, want the run's %+v", name, o, ran[i])
		}
	}
	res, err := pcpm.Run(g, wantRecompute)
	if err != nil {
		t.Fatal(err)
	}
	if !ranksBitEqual(publishedSnap(t, b, "recompute").Ranks, res.Ranks) {
		t.Error("recompute ranks differ from a run at the configured sizing")
	}
}

// TestDriftBudgetForcesRecompute pins the accumulated-error contract:
// incremental repairs sum their residual bounds into Snapshot.RepairDrift,
// and a delta that would push the sum past the budget takes the full
// recompute path, resetting the drift to zero.
func TestDriftBudgetForcesRecompute(t *testing.T) {
	s := New(Config{Defaults: testOptions})
	g := testGraph(t)
	if _, err := s.AddGraph("er", g, Overrides{}, false); err != nil {
		t.Fatal(err)
	}

	st, err := s.ApplyEdgeDelta("er", delta.EdgeDelta{Insert: []graph.Edge{{Src: 0, Dst: 9}}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != "incremental" || st.Drift <= 0 || st.Drift > maxRepairDrift {
		t.Fatalf("first delta: %+v, want incremental with a small positive drift", st)
	}

	// White-box: spend the budget, then mutate again.
	_, snap, err := s.TopK("er", 0)
	if err != nil {
		t.Fatal(err)
	}
	snap.RepairDrift = maxRepairDrift // single-threaded test; snapshot not yet re-read

	st, err = s.ApplyEdgeDelta("er", delta.EdgeDelta{Insert: []graph.Edge{{Src: 1, Dst: 7}}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != "recompute" || !strings.Contains(st.Reason, "drift") {
		t.Fatalf("over-budget delta: %+v, want drift-forced recompute", st)
	}
	if st.Drift != 0 {
		t.Fatalf("recompute must reset drift, got %g", st.Drift)
	}
	// And the next delta is incremental again.
	st, err = s.ApplyEdgeDelta("er", delta.EdgeDelta{Insert: []graph.Edge{{Src: 2, Dst: 5}}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != "incremental" {
		t.Fatalf("post-recompute delta: %+v, want incremental", st)
	}
}

// TestDeltaSerializesWithRecompute pins the mutation ordering: a delta
// arriving while a recompute is in flight waits for it, and recompute
// requests arriving while a (fallback) delta computes coalesce onto it.
func TestDeltaSerializesWithRecompute(t *testing.T) {
	s := New(Config{Defaults: testOptions})
	g := testGraph(t)
	if _, err := s.AddGraph("er", g, Overrides{}, false); err != nil {
		t.Fatal(err)
	}

	release := make(chan struct{})
	s.computeFn = func(g *graph.Graph, o pcpm.Options) (*pcpm.Result, error) {
		res, err := pcpm.Run(g, o)
		<-release
		return res, err
	}
	if st, err := s.Recompute("er", Overrides{}, false); err != nil || !st.Started {
		t.Fatalf("recompute start = %+v, %v", st, err)
	}

	deltaDone := make(chan DeltaStatus, 1)
	go func() {
		st, err := s.ApplyEdgeDelta("er", delta.EdgeDelta{Insert: []graph.Edge{{Src: 0, Dst: 9}}})
		if err != nil {
			t.Errorf("delta: %v", err)
		}
		deltaDone <- st
	}()

	select {
	case st := <-deltaDone:
		t.Fatalf("delta completed while recompute held the mutation slot: %+v", st)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	st := <-deltaDone
	if st.Version != 3 {
		t.Fatalf("delta version = %d, want 3 (after the recompute's 2)", st.Version)
	}
	if _, snap, _ := s.TopK("er", 1); snap.Graph.NumEdges() != g.NumEdges()+1 {
		t.Fatalf("final snapshot edges = %d, want %d", snap.Graph.NumEdges(), g.NumEdges()+1)
	}
}

// TestRecomputeCoalescesOntoDelta is the reverse ordering: while a
// fallback delta holds the mutation slot (its engine run gated), recompute
// requests coalesce instead of starting a second run.
func TestRecomputeCoalescesOntoDelta(t *testing.T) {
	opts := testOptions
	opts.RedistributeDangling = true // forces the delta onto the computeFn path
	s := New(Config{Defaults: opts})
	g := testGraph(t)
	if _, err := s.AddGraph("er", g, Overrides{}, false); err != nil {
		t.Fatal(err)
	}

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.computeFn = func(g *graph.Graph, o pcpm.Options) (*pcpm.Result, error) {
		once.Do(func() { close(entered) })
		res, err := pcpm.Run(g, o)
		<-release
		return res, err
	}

	deltaDone := make(chan struct{})
	go func() {
		defer close(deltaDone)
		if _, err := s.ApplyEdgeDelta("er", delta.EdgeDelta{Insert: []graph.Edge{{Src: 0, Dst: 9}}}); err != nil {
			t.Errorf("delta: %v", err)
		}
	}()
	<-entered

	st, err := s.Recompute("er", Overrides{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Started {
		t.Fatal("recompute during an in-flight delta must coalesce, not start")
	}
	close(release)
	<-deltaDone
}

// newHTTPServer wraps an already-configured Server in an httptest server.
func newHTTPServer(t *testing.T, s *Server) string {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	pcpm "repro"
	"repro/internal/gen"
	"repro/internal/graph"
)

// pprResultJSON mirrors the wire form of one answer for decoding.
type pprResultJSON struct {
	Seeds  []uint32 `json:"seeds"`
	K      int      `json:"k"`
	Scores []struct {
		Node  uint32  `json:"node"`
		Score float64 `json:"score"`
	} `json:"scores"`
	Rounds     int     `json:"rounds"`
	ResidualL1 float64 `json:"residual_l1"`
	Cached     bool    `json:"cached"`
}

func TestPPRSingleAndCache(t *testing.T) {
	s, ts := newTestServer(t)
	ingest(t, ts, "g", edgeListBody(t, testGraph(t)))

	body := []byte(`{"seeds":[3,1,3],"k":5}`)
	var resp struct {
		Graph  string        `json:"graph"`
		Result pprResultJSON `json:"result"`
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/graphs/g/ppr", body, &resp); code != http.StatusOK {
		t.Fatalf("ppr status %d", code)
	}
	r := resp.Result
	if r.Cached {
		t.Fatal("first query reported cached")
	}
	if len(r.Scores) != 5 || r.K != 5 {
		t.Fatalf("got %d scores, k=%d, want 5", len(r.Scores), r.K)
	}
	// Seeds canonicalize: sorted, deduplicated.
	if len(r.Seeds) != 2 || r.Seeds[0] != 1 || r.Seeds[1] != 3 {
		t.Fatalf("canonical seeds = %v, want [1 3]", r.Seeds)
	}
	for i := 1; i < len(r.Scores); i++ {
		if r.Scores[i].Score > r.Scores[i-1].Score {
			t.Fatal("scores not descending")
		}
	}

	// The same seed set in any order and multiplicity is a cache hit.
	var resp2 struct {
		Result pprResultJSON `json:"result"`
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/graphs/g/ppr", []byte(`{"seeds":[1,3],"k":5}`), &resp2); code != http.StatusOK {
		t.Fatalf("repeat ppr status %d", code)
	}
	if !resp2.Result.Cached {
		t.Fatal("repeat query missed the cache")
	}
	if resp2.Result.Scores[0] != r.Scores[0] {
		t.Fatal("cached answer differs from original")
	}
	if n, err := s.PPRCacheLen("g"); err != nil || n != 1 {
		t.Fatalf("cache len = %d (%v), want 1", n, err)
	}

	// A different k is a different query, not a stale hit.
	var resp3 struct {
		Result pprResultJSON `json:"result"`
	}
	doJSON(t, "POST", ts.URL+"/v1/graphs/g/ppr", []byte(`{"seeds":[1,3],"k":7}`), &resp3)
	if resp3.Result.Cached || len(resp3.Result.Scores) != 7 {
		t.Fatalf("k=7 query: cached=%v scores=%d", resp3.Result.Cached, len(resp3.Result.Scores))
	}
}

func TestPPRBatchEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	ingest(t, ts, "g", edgeListBody(t, testGraph(t)))

	// Warm one query so the batch mixes hits and misses.
	doJSON(t, "POST", ts.URL+"/v1/graphs/g/ppr", []byte(`{"seeds":[7],"k":3}`), nil)

	body := []byte(`{"batch":[[7],[10,20],[299]],"k":3}`)
	var resp struct {
		Graph   string          `json:"graph"`
		Results []pprResultJSON `json:"results"`
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/graphs/g/ppr", body, &resp); code != http.StatusOK {
		t.Fatalf("batch status %d", code)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(resp.Results))
	}
	if !resp.Results[0].Cached {
		t.Fatal("warmed batch member missed the cache")
	}
	if resp.Results[1].Cached || resp.Results[2].Cached {
		t.Fatal("cold batch members reported cached")
	}
	for i, r := range resp.Results {
		if len(r.Scores) != 3 {
			t.Fatalf("result %d: %d scores, want 3", i, len(r.Scores))
		}
		if r.ResidualL1 < 0 {
			t.Fatalf("result %d: negative residual", i)
		}
	}
}

func TestPPRBadRequests(t *testing.T) {
	_, ts := newTestServer(t)
	ingest(t, ts, "g", edgeListBody(t, testGraph(t))) // 300 nodes

	cases := []struct {
		name string
		body string
		want int
	}{
		{"seed out of range", `{"seeds":[300]}`, http.StatusBadRequest},
		{"batch member out of range", `{"batch":[[1],[5000]],"k":2}`, http.StatusBadRequest},
		{"empty seed set", `{"seeds":[]}`, http.StatusBadRequest},
		{"empty batch member", `{"batch":[[1],[]]}`, http.StatusBadRequest},
		{"both seeds and batch", `{"seeds":[1],"batch":[[2]]}`, http.StatusBadRequest},
		{"neither seeds nor batch", `{}`, http.StatusBadRequest},
		{"negative k", `{"seeds":[1],"k":-1}`, http.StatusBadRequest},
		{"negative epsilon", `{"seeds":[1],"epsilon":-0.5}`, http.StatusBadRequest},
		{"unknown field", `{"seeds":[1],"bogus":true}`, http.StatusBadRequest},
		{"malformed JSON", `{"seeds":[1`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		var errResp struct {
			Error string `json:"error"`
		}
		code := doJSON(t, "POST", ts.URL+"/v1/graphs/g/ppr", []byte(tc.body), &errResp)
		if code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, code, tc.want)
		}
		if errResp.Error == "" {
			t.Errorf("%s: missing error message", tc.name)
		}
	}

	if code := doJSON(t, "POST", ts.URL+"/v1/graphs/nope/ppr", []byte(`{"seeds":[1]}`), nil); code != http.StatusNotFound {
		t.Fatalf("missing graph: status %d, want 404", code)
	}
}

func TestPPRCacheEviction(t *testing.T) {
	s := New(Config{Defaults: testOptions})
	if _, err := s.AddGraph("g", testGraph(t), Overrides{}, false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pprCacheSize+6; i++ {
		if _, err := s.Personalized("g", [][]uint32{{uint32(i)}}, 3, 0); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := s.PPRCacheLen("g"); n != pprCacheSize {
		t.Fatalf("cache len = %d, want capacity %d", n, pprCacheSize)
	}
	// Least-recent (seed 0..5) evicted, most-recent still hot.
	ans, err := s.Personalized("g", [][]uint32{{pprCacheSize + 5}}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ans[0].Cached {
		t.Fatal("most-recent query evicted")
	}
	ans, err = s.Personalized("g", [][]uint32{{0}}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ans[0].Cached {
		t.Fatal("least-recent query survived eviction")
	}
}

func TestPPRBatchMatchesSingleQueries(t *testing.T) {
	s := New(Config{Defaults: testOptions})
	if _, err := s.AddGraph("g", testGraph(t), Overrides{}, false); err != nil {
		t.Fatal(err)
	}
	batch, err := s.Personalized("g", [][]uint32{{1}, {2, 4}}, 5, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	// Fresh server: recompute the same queries one at a time.
	s2 := New(Config{Defaults: testOptions})
	if _, err := s2.AddGraph("g", testGraph(t), Overrides{}, false); err != nil {
		t.Fatal(err)
	}
	for i, seeds := range [][]uint32{{1}, {2, 4}} {
		one, err := s2.Personalized("g", [][]uint32{seeds}, 5, 1e-8)
		if err != nil {
			t.Fatal(err)
		}
		for j := range one[0].Top {
			if one[0].Top[j].Node != batch[i].Top[j].Node {
				t.Fatalf("query %d entry %d: batch node %d vs single node %d",
					i, j, batch[i].Top[j].Node, one[0].Top[j].Node)
			}
			if d := one[0].Top[j].Score - batch[i].Top[j].Score; d > 1e-9 || d < -1e-9 {
				t.Fatalf("query %d entry %d: score diverges by %g", i, j, d)
			}
		}
	}
}

func TestPPRConcurrentQueries(t *testing.T) {
	s := New(Config{Defaults: testOptions})
	if _, err := s.AddGraph("g", testGraph(t), Overrides{}, false); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 16)
	for i := 0; i < 16; i++ {
		go func(i int) {
			_, err := s.Personalized("g", [][]uint32{{uint32(i % 5)}}, 3, 0)
			done <- err
		}(i)
	}
	for i := 0; i < 16; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestPPRAnswerJSONShape pins the wire contract the README documents.
func TestPPRAnswerJSONShape(t *testing.T) {
	ans := PPRAnswer{Seeds: []uint32{1}, K: 1, Top: []PPRScore{{Node: 2, Score: 0.5}}}
	b, err := json.Marshal(ans)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"seeds"`, `"k"`, `"scores"`, `"rounds"`, `"pushes"`, `"residual_l1"`, `"compute_ms"`, `"cached"`} {
		if !strings.Contains(string(b), key) {
			t.Fatalf("marshaled answer %s missing %s", b, key)
		}
	}
}

func TestPPRServeLimits(t *testing.T) {
	_, ts := newTestServer(t)
	ingest(t, ts, "g", edgeListBody(t, testGraph(t)))

	bigBatch := `{"batch":[`
	for i := 0; i < maxPPRBatchQueries+1; i++ {
		if i > 0 {
			bigBatch += ","
		}
		bigBatch += `[1]`
	}
	bigBatch += `],"k":1}`
	if code := doJSON(t, "POST", ts.URL+"/v1/graphs/g/ppr", []byte(bigBatch), nil); code != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d, want 400", code)
	}

	manySeeds := make([]uint32, maxPPRSeedsPerQuery+1)
	seedsJSON, _ := json.Marshal(map[string]any{"seeds": manySeeds})
	if code := doJSON(t, "POST", ts.URL+"/v1/graphs/g/ppr", seedsJSON, nil); code != http.StatusBadRequest {
		t.Fatalf("oversized seed set: status %d, want 400", code)
	}

	if code := doJSON(t, "POST", ts.URL+"/v1/graphs/g/ppr", []byte(`{"seeds":[1],"k":100000}`), nil); code != http.StatusBadRequest {
		t.Fatalf("oversized k: status %d, want 400", code)
	}

	// A sub-floor epsilon is clamped, not rejected — and keys the cache at
	// the clamped value, so two sub-floor requests share one entry.
	var first struct {
		Result pprResultJSON `json:"result"`
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/graphs/g/ppr", []byte(`{"seeds":[2],"epsilon":1e-300}`), &first); code != http.StatusOK {
		t.Fatalf("sub-floor epsilon: status %d, want 200", code)
	}
	var second struct {
		Result pprResultJSON `json:"result"`
	}
	doJSON(t, "POST", ts.URL+"/v1/graphs/g/ppr", []byte(`{"seeds":[2],"epsilon":1e-200}`), &second)
	if !second.Result.Cached {
		t.Fatal("clamped epsilons should share a cache entry")
	}
}

func TestPPRBatchDeduplicatesIdenticalQueries(t *testing.T) {
	s := New(Config{Defaults: testOptions})
	if _, err := s.AddGraph("g", testGraph(t), Overrides{}, false); err != nil {
		t.Fatal(err)
	}
	ans, err := s.Personalized("g", [][]uint32{{5}, {5, 5}, {6}}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Queries 0 and 1 canonicalize to the same seed set; both must be
	// answered (from one compute) and the cache holds two distinct entries.
	if ans[0].Top[0] != ans[1].Top[0] {
		t.Fatal("duplicate queries diverged")
	}
	if ans[0].Cached || ans[1].Cached || ans[2].Cached {
		t.Fatal("cold batch reported cached")
	}
	if n, _ := s.PPRCacheLen("g"); n != 2 {
		t.Fatalf("cache len = %d, want 2 distinct entries", n)
	}
}

// TestPPRCoalescesConcurrentIdenticalQueries: while one request computes a
// seed set, identical concurrent requests must attach to that run, not
// launch their own.
func TestPPRCoalescesConcurrentIdenticalQueries(t *testing.T) {
	s := New(Config{Defaults: testOptions})
	if _, err := s.AddGraph("g", testGraph(t), Overrides{}, false); err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int32
	release := make(chan struct{})
	orig := s.pprRunFn
	s.pprRunFn = func(g *graph.Graph, sets [][]uint32, ro pcpm.PPRRunOptions) ([]*pcpm.PPRResult, error) {
		calls.Add(1)
		<-release
		return orig(g, sets, ro)
	}

	const clients = 8
	answers := make([][]PPRAnswer, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			answers[c], errs[c] = s.Personalized("g", [][]uint32{{42}}, 3, 0)
		}(c)
	}
	// Let every client reach the owner-or-follower decision, then release
	// the single owned run.
	deadline := time.Now().Add(5 * time.Second)
	for calls.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // give followers time to attach
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("engine ran %d times for identical concurrent queries, want 1", got)
	}
	for c := 0; c < clients; c++ {
		if errs[c] != nil {
			t.Fatalf("client %d: %v", c, errs[c])
		}
		if answers[c][0].Top[0] != answers[0][0].Top[0] {
			t.Fatalf("client %d got a different answer", c)
		}
	}
}

// capPPRRounds makes every miss on s a one-pass run, which cannot reach an
// epsilon of 1e-9 on any graph here: truncation without relying on a slow
// damping.
func capPPRRounds(s *Server) {
	run := s.pprRunFn
	s.pprRunFn = func(g *graph.Graph, sets [][]uint32, ro pcpm.PPRRunOptions) ([]*pcpm.PPRResult, error) {
		ro.MaxRounds = 1
		return run(g, sets, ro)
	}
}

// TestPPRTruncatedRunsAreNotCached: a run stopped by the round cap (residual
// above the requested epsilon) must be served honestly but never cached.
func TestPPRTruncatedRunsAreNotCached(t *testing.T) {
	s := New(Config{Defaults: testOptions})
	if _, err := s.AddGraph("g", testGraph(t), Overrides{}, false); err != nil {
		t.Fatal(err)
	}
	capPPRRounds(s)
	ans, err := s.Personalized("g", [][]uint32{{1}}, 3, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if ans[0].ResidualL1 <= 1e-9 || !ans[0].Truncated {
		t.Fatalf("one-pass run converged (residual %g, truncated %v)", ans[0].ResidualL1, ans[0].Truncated)
	}
	if n, _ := s.PPRCacheLen("g"); n != 0 {
		t.Fatalf("truncated answer was cached (len %d)", n)
	}
	again, err := s.Personalized("g", [][]uint32{{1}}, 3, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if again[0].Cached {
		t.Fatal("repeat of truncated query reported cached")
	}
}

// TestPPRSlowDampingConvergesUnderTheCap: at damping 0.99 residual mass
// decays by ~1 % per plain sweep, so epsilon 1e-9 needs ~2,000 of them, past
// the serving cap. Leaking dangling mass and the Aitken step bring a query on
// the serving family well under it, and the converged answer is cached.
func TestPPRSlowDampingConvergesUnderTheCap(t *testing.T) {
	g, err := gen.PreferentialAttachmentMix(4096, 8, 0.2, 11, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions
	opts.Damping = 0.99
	s := New(Config{Defaults: opts})
	if _, err := s.AddGraph("g", g, Overrides{}, false); err != nil {
		t.Fatal(err)
	}
	ans, err := s.Personalized("g", [][]uint32{{4095}}, 10, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	a := ans[0]
	if a.Truncated || a.ResidualL1 > 1e-9 || a.Rounds >= maxPPRRounds {
		t.Fatalf("truncated %v after %d of %d rounds, residual %g", a.Truncated, a.Rounds, maxPPRRounds, a.ResidualL1)
	}
	if n, _ := s.PPRCacheLen("g"); n != 1 {
		t.Fatalf("converged answer not cached (len %d)", n)
	}
}

// TestPPRPanicReleasesInflight: a panicking engine run must not leave the
// inflight marker registered, or every future identical query would hang.
func TestPPRPanicReleasesInflight(t *testing.T) {
	s := New(Config{Defaults: testOptions})
	if _, err := s.AddGraph("g", testGraph(t), Overrides{}, false); err != nil {
		t.Fatal(err)
	}
	orig := s.pprRunFn
	s.pprRunFn = func(g *graph.Graph, sets [][]uint32, ro pcpm.PPRRunOptions) ([]*pcpm.PPRResult, error) {
		panic("engine bug")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected the panic to propagate")
			}
		}()
		s.Personalized("g", [][]uint32{{11}}, 3, 0) //nolint:errcheck // panics
	}()

	// The same query must now compute normally, not block on a dead marker.
	s.pprRunFn = orig
	done := make(chan error, 1)
	go func() {
		_, err := s.Personalized("g", [][]uint32{{11}}, 3, 0)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("query after panic deadlocked on leaked inflight marker")
	}
}

// TestPPRPoolSoakNoLeakage is the reset-correctness soak: goroutines with
// disjoint seed ranges hammer one graph through the miss path (every seed
// is queried once, so every query takes scratch some other goroutine just
// used from internal/ppr's pool), and every answer must equal a sequential
// reference computed first. Any score or residual state leaking across
// queries shows up as a score mismatch. Run with -race (CI does) to also
// exercise the synchronization.
func TestPPRPoolSoakNoLeakage(t *testing.T) {
	const (
		goroutines = 8
		perG       = 25
		k          = 3
	)
	g := testGraph(t) // 300 nodes, deterministic
	s := New(Config{Defaults: testOptions})
	if _, err := s.AddGraph("g", g, Overrides{}, false); err != nil {
		t.Fatal(err)
	}

	// Reference for every seed; a query is sequential, so the comparison can
	// be exact.
	refs := make([][]pcpm.PPREntry, goroutines*perG)
	for u := range refs {
		res, err := pcpm.RunPersonalized(g, []uint32{uint32(u)}, pcpm.PPRRunOptions{TopK: k, TopOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		refs[u] = res.Top
	}

	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				seed := uint32(gi*perG + j)
				ans, err := s.Personalized("g", [][]uint32{{seed}}, k, 0)
				if err != nil {
					errc <- fmt.Errorf("seed %d: %w", seed, err)
					return
				}
				got := ans[0].Top
				want := refs[seed]
				if len(got) != len(want) {
					errc <- fmt.Errorf("seed %d: %d top entries, want %d", seed, len(got), len(want))
					return
				}
				for i := range got {
					if got[i].Node != want[i].Node || got[i].Score != want[i].Score {
						errc <- fmt.Errorf("seed %d top[%d]: served {%d %g}, reference {%d %g} — state leaked across queries",
							seed, i, got[i].Node, got[i].Score, want[i].Node, want[i].Score)
						return
					}
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestCanonicalSeedsTable pins the serving-layer seed canonicalization:
// sorted, deduplicated, range-checked, ErrBadSeeds on anything the engine
// would reject.
func TestCanonicalSeedsTable(t *testing.T) {
	const n = 100
	cases := []struct {
		name  string
		seeds []uint32
		want  []uint32 // nil means expect ErrBadSeeds
	}{
		{"single", []uint32{7}, []uint32{7}},
		{"already canonical", []uint32{1, 2, 3}, []uint32{1, 2, 3}},
		{"unsorted", []uint32{9, 4, 6}, []uint32{4, 6, 9}},
		{"duplicates", []uint32{5, 5, 5}, []uint32{5}},
		{"duplicates mixed", []uint32{3, 1, 3, 1, 2}, []uint32{1, 2, 3}},
		{"boundary id", []uint32{n - 1}, []uint32{n - 1}},
		{"empty", []uint32{}, nil},
		{"out of range", []uint32{n}, nil},
		{"one bad among good", []uint32{1, 2, n + 5}, nil},
		{"max uint32", []uint32{^uint32(0)}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := canonicalSeeds(n, tc.seeds)
			if tc.want == nil {
				if err == nil {
					t.Fatalf("canonicalSeeds(%v) = %v, want ErrBadSeeds", tc.seeds, got)
				}
				if !isBadSeeds(err) {
					t.Fatalf("error %v does not wrap ErrBadSeeds", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("canonicalSeeds(%v): %v", tc.seeds, err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("canonicalSeeds(%v) = %v, want %v", tc.seeds, got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("canonicalSeeds(%v) = %v, want %v", tc.seeds, got, tc.want)
				}
			}
		})
	}
}

func isBadSeeds(err error) bool {
	for e := err; e != nil; {
		if e == ErrBadSeeds {
			return true
		}
		u, ok := e.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		e = u.Unwrap()
	}
	return false
}

// TestPPRKeyTable pins cache-key semantics: the key is stable under seed
// permutation/duplication (after canonicalization) and distinct whenever
// any query parameter differs.
func TestPPRKeyTable(t *testing.T) {
	const n = 1000
	canon := func(seeds []uint32) []uint32 {
		cs, err := canonicalSeeds(n, seeds)
		if err != nil {
			t.Fatal(err)
		}
		return cs
	}
	base := pprKey(0.85, 1e-7, 10, canon([]uint32{3, 1, 2}))

	// Stability: every permutation and duplication of the same seed set
	// produces the same key.
	for _, seeds := range [][]uint32{
		{1, 2, 3}, {2, 3, 1}, {3, 2, 1}, {1, 1, 2, 3, 3}, {3, 1, 2, 1},
	} {
		if got := pprKey(0.85, 1e-7, 10, canon(seeds)); got != base {
			t.Fatalf("seeds %v keyed %q, permutation-invariant key is %q", seeds, got, base)
		}
	}

	// Distinctness: changing any parameter changes the key, and ambiguous
	// seed concatenations do not collide.
	distinct := []string{
		base,
		pprKey(0.9, 1e-7, 10, canon([]uint32{1, 2, 3})),   // damping
		pprKey(0.85, 1e-6, 10, canon([]uint32{1, 2, 3})),  // epsilon
		pprKey(0.85, 1e-7, 11, canon([]uint32{1, 2, 3})),  // k
		pprKey(0.85, 1e-7, 10, canon([]uint32{1, 2})),     // subset
		pprKey(0.85, 1e-7, 10, canon([]uint32{12, 3})),    // "1|2|3" vs "12|3"
		pprKey(0.85, 1e-7, 10, canon([]uint32{1, 23})),    // "1|23"
		pprKey(0.85, 1e-7, 10, canon([]uint32{123})),      // "123"
		pprKey(0.85, 1e-7, 10, canon([]uint32{1, 2, 30})), // trailing digit
	}
	seen := map[string]int{}
	for i, k := range distinct {
		if j, dup := seen[k]; dup {
			t.Fatalf("key %d and %d collide: %q", i, j, k)
		}
		seen[k] = i
	}
}

// TestNormalizePPRLimitsTable pins the serving defaults and abuse clamps
// for k and epsilon.
func TestNormalizePPRLimitsTable(t *testing.T) {
	cases := []struct {
		name        string
		k           int
		epsilon     float64
		wantK       int
		wantEpsilon float64
		wantErr     bool
	}{
		{"zero k defaults", 0, 1e-7, defaultPPRTopK, 1e-7, false},
		{"negative k defaults", -3, 1e-7, defaultPPRTopK, 1e-7, false},
		{"explicit k kept", 25, 1e-7, 25, 1e-7, false},
		{"k at limit", maxPPRTopK, 1e-7, maxPPRTopK, 1e-7, false},
		{"k past limit rejected", maxPPRTopK + 1, 1e-7, 0, 0, true},
		{"zero epsilon defaults", 5, 0, 5, 1e-7, false},
		{"negative epsilon defaults", 5, -1, 5, 1e-7, false},
		{"sub-floor epsilon clamped", 5, 1e-300, 5, minPPREpsilon, false},
		{"floor epsilon kept", 5, minPPREpsilon, 5, minPPREpsilon, false},
		{"ordinary epsilon kept", 5, 1e-5, 5, 1e-5, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k, eps, err := normalizePPRLimits(tc.k, tc.epsilon)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("normalizePPRLimits(%d, %g) = (%d, %g), want error", tc.k, tc.epsilon, k, eps)
				}
				return
			}
			if err != nil {
				t.Fatalf("normalizePPRLimits(%d, %g): %v", tc.k, tc.epsilon, err)
			}
			if k != tc.wantK || eps != tc.wantEpsilon {
				t.Fatalf("normalizePPRLimits(%d, %g) = (%d, %g), want (%d, %g)",
					tc.k, tc.epsilon, k, eps, tc.wantK, tc.wantEpsilon)
			}
		})
	}

	// Two sub-floor epsilons must canonicalize to one cache key.
	a := pprKey(0.85, mustLimitEps(t, 1e-300), 10, []uint32{1})
	b := pprKey(0.85, mustLimitEps(t, 1e-200), 10, []uint32{1})
	if a != b {
		t.Fatalf("clamped epsilons key differently: %q vs %q", a, b)
	}
}

func mustLimitEps(t *testing.T, eps float64) float64 {
	t.Helper()
	_, out, err := normalizePPRLimits(1, eps)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPPRTruncatedSurfacedInJSON: a round-capped answer must carry
// "truncated": true on the wire so the caller can tell it from a converged
// one, and a converged answer must not.
func TestPPRTruncatedSurfacedInJSON(t *testing.T) {
	s := New(Config{Defaults: testOptions})
	ts := newTestServerFor(t, s)
	if _, err := s.AddGraph("g", testGraph(t), Overrides{}, false); err != nil {
		t.Fatal(err)
	}
	run := s.pprRunFn
	capPPRRounds(s)

	type answer struct {
		Result struct {
			pprResultJSON
			Truncated bool `json:"truncated"`
		} `json:"result"`
	}
	var resp answer
	body := []byte(`{"seeds":[1],"k":3,"epsilon":1e-9}`)
	if code := doJSON(t, "POST", ts+"/v1/graphs/g/ppr", body, &resp); code != http.StatusOK {
		t.Fatalf("ppr status %d", code)
	}
	if resp.Result.ResidualL1 <= 1e-9 {
		t.Fatalf("one-pass run converged (residual %g)", resp.Result.ResidualL1)
	}
	if !resp.Result.Truncated {
		t.Fatalf("round-capped answer (residual %g after %d rounds) not flagged truncated",
			resp.Result.ResidualL1, resp.Result.Rounds)
	}

	// The same query without the cap converges and must not be flagged.
	s.pprRunFn = run
	var ok answer
	if code := doJSON(t, "POST", ts+"/v1/graphs/g/ppr", body, &ok); code != http.StatusOK {
		t.Fatalf("uncapped ppr status %d", code)
	}
	if ok.Result.Truncated || ok.Result.ResidualL1 > 1e-9 {
		t.Fatalf("converged answer (residual %g) flagged truncated %v", ok.Result.ResidualL1, ok.Result.Truncated)
	}
}

// newTestServerFor wraps an existing Server in an httptest listener and
// returns its base URL.
func newTestServerFor(t *testing.T, s *Server) string {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// BenchmarkPPRServeMiss measures the serving layer's cache-miss path. Every
// iteration is a cache miss (distinct seed); the 20 bytes/node of push
// scratch a miss needs comes from internal/ppr's pool, so allocs/op counts
// what a miss costs beyond it.
func BenchmarkPPRServeMiss(b *testing.B) {
	g, err := gen.RMAT(gen.Graph500RMAT(14, 8, 3), graph.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	opts := pcpm.Options{Iterations: 2}
	s := New(Config{Defaults: opts})
	if _, err := s.AddGraph("g", g, Overrides{}, false); err != nil {
		b.Fatal(err)
	}
	n := uint32(g.NumNodes())
	// Warm the scratch pool outside the timer.
	if _, err := s.Personalized("g", [][]uint32{{0}}, 10, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed := uint32(i+1) % n
		if _, err := s.Personalized("g", [][]uint32{{seed}}, 10, 0); err != nil {
			b.Fatal(err)
		}
	}
}

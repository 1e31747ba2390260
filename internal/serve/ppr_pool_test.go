package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	pcpm "repro"
	"repro/internal/delta"
	"repro/internal/gen"
	"repro/internal/graph"
)

// TestPPRPoolReuseAndCap: cache-missed queries borrow pooled engines, the
// pool never retains more than its cap, and a disabled pool stays empty.
func TestPPRPoolReuseAndCap(t *testing.T) {
	s := New(Config{Defaults: testOptions, PPRCacheSize: 1, PPREnginePoolSize: 2})
	if _, err := s.AddGraph("g", testGraph(t), testOptions, false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := s.Personalized("g", [][]uint32{{uint32(i)}}, 3, 0); err != nil {
			t.Fatal(err)
		}
		n, err := s.PPREnginePoolLen("g")
		if err != nil {
			t.Fatal(err)
		}
		if n < 1 || n > 2 {
			t.Fatalf("after query %d: pool len = %d, want within [1,2]", i, n)
		}
	}
	// A batch of misses borrows several engines at once; all come back, but
	// retention stays within the cap.
	if _, err := s.Personalized("g", [][]uint32{{50}, {51}, {52}, {53}, {54}, {55}}, 3, 0); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.PPREnginePoolLen("g"); n > 2 {
		t.Fatalf("pool len = %d after batch, want <= cap 2", n)
	}

	off := New(Config{Defaults: testOptions, PPREnginePoolSize: -1})
	if _, err := off.AddGraph("g", testGraph(t), testOptions, false); err != nil {
		t.Fatal(err)
	}
	if _, err := off.Personalized("g", [][]uint32{{1}}, 3, 0); err != nil {
		t.Fatal(err)
	}
	if n, _ := off.PPREnginePoolLen("g"); n != 0 {
		t.Fatalf("disabled pool retained %d engines", n)
	}
}

// TestEnginePoolStaleTakeDoesNotEvict: a request that loaded its snapshot
// before an edge delta still holds an engine bound to the old graph when the
// delta publishes. That must not disturb the idle engines, and on return the
// straggler's engine is rebound to the current graph rather than pooled with
// the retired one.
func TestEnginePoolStaleTakeDoesNotEvict(t *testing.T) {
	s := New(Config{Defaults: testOptions})
	if _, err := s.AddGraph("g", testGraph(t), testOptions, false); err != nil {
		t.Fatal(err)
	}
	e, err := s.lookup("g")
	if err != nil {
		t.Fatal(err)
	}
	old := e.snap.Load()
	idle, err := s.borrowEngine(e, old)
	if err != nil {
		t.Fatal(err)
	}
	straggler, err := s.borrowEngine(e, old)
	if err != nil {
		t.Fatal(err)
	}
	s.returnEngine(e, idle)
	if _, err := s.ApplyEdgeDelta("g", delta.EdgeDelta{Insert: []graph.Edge{{Src: 0, Dst: 9, W: 1}}}); err != nil {
		t.Fatal(err)
	}
	cur := e.snap.Load().Graph
	if straggler.Graph() != old.Graph {
		t.Fatal("a publish rebound an engine that was out on loan")
	}
	if e.pool.len() != 1 || e.pool.free[0] != idle || idle.Graph() != cur {
		t.Fatalf("after the delta the pool holds %d engines; want the idle one, on the current graph", e.pool.len())
	}
	s.returnEngine(e, straggler)
	if e.pool.len() != 2 || straggler.Graph() != cur {
		t.Fatal("the straggler's engine was not pooled on the current graph")
	}
}

// TestPoolSurvivesPublish: an entry's pooled engines outlive every publish.
// A recompute (ranks only) leaves them as they are; an edge delta rebinds
// them, so none keeps a retired snapshot's graph alive, and an engine
// borrowed afterwards answers bit-identically to a fresh one on the new
// graph.
func TestPoolSurvivesPublish(t *testing.T) {
	s := New(Config{Defaults: testOptions, PPRCacheSize: 1})
	if _, err := s.AddGraph("g", testGraph(t), testOptions, false); err != nil {
		t.Fatal(err)
	}
	e, err := s.lookup("g")
	if err != nil {
		t.Fatal(err)
	}
	// Two idle engines: one left by a query, one handed in directly.
	if _, err := s.Personalized("g", [][]uint32{{1}}, 3, 0); err != nil {
		t.Fatal(err)
	}
	extra, err := pcpm.NewPPREngine(e.snap.Load().Graph)
	if err != nil {
		t.Fatal(err)
	}
	s.returnEngine(e, extra)
	pooled := append([]*pcpm.PPREngine(nil), e.pool.free...)
	if len(pooled) != 2 {
		t.Fatalf("pool holds %d engines, want 2", len(pooled))
	}

	damping := 0.8
	if _, err := s.Recompute("g", Overrides{Damping: &damping}, true); err != nil {
		t.Fatal(err)
	}
	if e.pool.len() != 2 || e.pool.free[0] != pooled[0] || e.pool.free[1] != pooled[1] {
		t.Fatal("a rank-only publish disturbed the pool")
	}

	retired := map[*graph.Graph]bool{}
	for i := uint32(0); i < 5; i++ {
		retired[e.snap.Load().Graph] = true
		d := delta.EdgeDelta{Insert: []graph.Edge{{Src: i, Dst: 100 + i, W: 1}}}
		if _, err := s.ApplyEdgeDelta("g", d); err != nil {
			t.Fatal(err)
		}
		if e.pool.len() != 2 {
			t.Fatalf("delta %d: pool holds %d engines, want 2", i, e.pool.len())
		}
		for _, eng := range e.pool.free {
			if retired[eng.Graph()] {
				t.Fatalf("delta %d: a pooled engine still holds a retired snapshot's graph", i)
			}
		}

		ans, err := s.Personalized("g", [][]uint32{{i, 7}}, 5, 0)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := pcpm.RunPersonalized(e.snap.Load().Graph, []uint32{i, 7},
			pcpm.PPRRunOptions{Damping: damping, TopK: 5, TopOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		for j, want := range fresh.Top {
			if got := ans[0].Top[j]; got.Node != want.Node || got.Score != want.Score {
				t.Fatalf("delta %d top[%d]: pooled engine answered {%d %g}, fresh engine {%d %g}",
					i, j, got.Node, got.Score, want.Node, want.Score)
			}
		}
	}
}

// TestPPRPoolSoakNoLeakage is the reset-correctness soak: goroutines with
// disjoint seed ranges hammer one graph through the pooled miss path (cache
// capacity 1, so nearly every query borrows an engine some other goroutine
// just used), and every answer must equal a fresh-engine reference. Any
// score or residual state leaking across borrowers shows up as a score
// mismatch. Run with -race (CI does) to also exercise the synchronization.
func TestPPRPoolSoakNoLeakage(t *testing.T) {
	const (
		goroutines = 8
		perG       = 25
		k          = 3
	)
	g := testGraph(t) // 300 nodes, deterministic
	s := New(Config{Defaults: testOptions, PPRCacheSize: 1, PPREnginePoolSize: 2})
	if _, err := s.AddGraph("g", g, testOptions, false); err != nil {
		t.Fatal(err)
	}

	// Fresh-engine reference for every seed; a query is sequential, so the
	// comparison can be exact.
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
						errc <- fmt.Errorf("seed %d top[%d]: borrowed engine answered {%d %g}, fresh engine {%d %g} — state leaked across queries",
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
	if n, _ := s.PPREnginePoolLen("g"); n > 2 {
		t.Fatalf("pool retained %d engines, cap is 2", n)
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
	// Damping this close to 1 decays residual mass by ~0.1% per round; the
	// serving cap of 1000 rounds cannot reach epsilon 1e-9, so the run is
	// truncated.
	opts := testOptions
	opts.Damping = 0.999
	if _, err := s.AddGraph("g", testGraph(t), opts, false); err != nil {
		t.Fatal(err)
	}

	var resp struct {
		Result struct {
			pprResultJSON
			Truncated bool `json:"truncated"`
		} `json:"result"`
	}
	body := []byte(`{"seeds":[1],"k":3,"epsilon":1e-9}`)
	if code := doJSON(t, "POST", ts+"/v1/graphs/g/ppr", body, &resp); code != http.StatusOK {
		t.Fatalf("ppr status %d", code)
	}
	if resp.Result.ResidualL1 <= 1e-9 {
		t.Skipf("run converged (residual %g); cannot exercise truncation here", resp.Result.ResidualL1)
	}
	if !resp.Result.Truncated {
		t.Fatalf("round-capped answer (residual %g after %d rounds) not flagged truncated",
			resp.Result.ResidualL1, resp.Result.Rounds)
	}

	// A converged query on the same graph must not be flagged. At damping
	// 0.999 residual mass decays ~0.1% per round, so after the 1000-round
	// cap about 0.999^1000 ≈ 0.37 remains — epsilon 0.6 is reachable.
	var ok struct {
		Result struct {
			pprResultJSON
			Truncated bool `json:"truncated"`
		} `json:"result"`
	}
	if code := doJSON(t, "POST", ts+"/v1/graphs/g/ppr", []byte(`{"seeds":[2],"k":3,"epsilon":0.6}`), &ok); code != http.StatusOK {
		t.Fatalf("loose-epsilon ppr status %d", code)
	}
	if ok.Result.Truncated {
		t.Fatalf("converged answer (residual %g) flagged truncated", ok.Result.ResidualL1)
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

// BenchmarkPPRServeMiss measures the serving layer's cache-miss path with
// pooled engines against the fresh-engine baseline (pooling disabled).
// Every iteration is a cache miss (distinct seed), so the difference is
// exactly the per-miss engine scratch: pooled borrows 16 bytes/node of
// warm arrays, fresh allocates them.
func BenchmarkPPRServeMiss(b *testing.B) {
	g, err := gen.RMAT(gen.Graph500RMAT(14, 8, 3), graph.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	opts := pcpm.Options{Iterations: 2}
	for _, mode := range []struct {
		name string
		pool int
	}{
		{"pooled", 8},
		{"fresh", -1},
	} {
		b.Run(mode.name, func(b *testing.B) {
			s := New(Config{Defaults: opts, PPRCacheSize: 1, PPREnginePoolSize: mode.pool})
			if _, err := s.AddGraph("g", g, opts, false); err != nil {
				b.Fatal(err)
			}
			n := uint32(g.NumNodes())
			// Warm the pool (and one cache slot) outside the timer.
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
		})
	}
}

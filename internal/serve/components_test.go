package serve

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	pcpm "repro"
	"repro/internal/delta"
	"repro/internal/gen"
	"repro/internal/graph"
)

// Component stats are lazy: no publish path decomposes the graph, and the
// first GraphInfo of a structure fills a memo every snapshot of that
// structure shares. These tests hold the lazy answer to a from-scratch
// decomposition of the very graph each version serves, on every kind of
// server that publishes (live, recovered, follower), and count the fills.
// The scenario checks (scenario_test.go) compare the counts everywhere.

// TestInfoComponentsTrackStructure: two 3-cycles joined by 2→3. A back
// edge merges them, deleting it splits them, deleting a cycle edge splits
// one into singletons; every step checks each copy's answer against a
// from-scratch decomposition. On every generator family an ingest and a
// stream of edge deltas merge and split components under the same checks.
func TestInfoComponentsTrackStructure(t *testing.T) {
	t.Parallel()
	t.Run("two-cycles", func(t *testing.T) {
		g, err := graph.FromEdges(6, []graph.Edge{
			{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0},
			{Src: 3, Dst: 4}, {Src: 4, Dst: 5}, {Src: 5, Dst: 3},
			{Src: 2, Dst: 3},
		}, false, graph.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		back := []graph.Edge{{Src: 3, Dst: 2}}
		runScenario(t, scenario{[]step{
			add("g", g),
			edit("g", delta.EdgeDelta{Insert: back}, ""),
			edit("g", delta.EdgeDelta{Delete: back}, ""),
			edit("g", delta.EdgeDelta{Delete: []graph.Edge{{Src: 4, Dst: 5}}}, ""),
		}, func(t *testing.T, c *cluster) {
			if info, _ := c.lead.srv.Info("g"); info.Components != 4 || info.LargestComp != 3 {
				t.Errorf("%d components (largest %d), want 4 (3)", info.Components, info.LargestComp)
			}
		}})
	})
	onFamilies(t, false, []int{1}, func(t *testing.T, opts pcpm.Options, g *graph.Graph) {
		newCluster(t, opts).run(t, add("g", g), deltas("g", 12, 97))
	})
}

// TestPublishPathsDoNotDecompose counts the fills on a cluster's leader,
// follower and recovered copy, so it runs no scenario check: that asks for
// the components itself.
func TestPublishPathsDoNotDecompose(t *testing.T) {
	g := testGraph(t)
	c := newCluster(t, testOptions)
	lead, f := c.lead, c.fs[0].srv
	if _, err := lead.srv.AddGraph("g", g, Overrides{}, false); err != nil {
		t.Fatal(err)
	}
	// The ingest answered with a GraphInfo: that is this structure's one fill.
	base := lead.srv.sccFills.Load()
	if base != 1 {
		t.Fatalf("ingest filled the memo %d times, want 1", base)
	}
	fills := func(who string, s *Server, want int64) {
		t.Helper()
		if got := s.sccFills.Load(); got != want {
			t.Errorf("%s: %d decompositions, want %d", who, got, want)
		}
	}

	batches := mutationStream(t, g, 21, 97)
	for i, d := range batches[:20] {
		if _, err := lead.srv.ApplyEdgeDelta("g", d); err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		if i == 9 { // so the copy below recovers a snapshot plus a log tail
			if err := lead.srv.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	rec, _ := c.recoverCopy(t)
	waitCaughtUp(t, lead.srv, f)
	fills("leader after 20 deltas and a checkpoint", lead.srv, base)
	fills("recovered server", rec, 0)
	fills("caught-up follower", f, 0)

	// One fill per structure per server, whoever asks and however often.
	for _, s := range []*Server{lead.srv, rec, f} {
		assertInfoComponents(t, "first info", s, "g")
	}
	fills("leader after its first Info", lead.srv, base+1)
	fills("recovered server after its first Info", rec, 1)
	fills("follower after its first Info", f, 1)
	lead.srv.List()
	f.List()
	fills("leader after a second read", lead.srv, base+1)
	fills("follower after a second read", f, 1)

	// A recompute republishes ranks over the same structure — live through
	// runRecompute, on the follower through republish — and shares the memo.
	damping := 0.8
	if _, err := lead.srv.Recompute("g", Overrides{Damping: &damping}, true); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, lead.srv, f)
	for _, s := range []*Server{lead.srv, f} {
		assertInfoComponents(t, "after recompute", s, "g")
	}
	fills("leader after a rank-only recompute", lead.srv, base+1)
	fills("follower after a rank-only recompute", f, 1)

	// The next delta is a new structure: its first Info pays again, once.
	if _, err := lead.srv.ApplyEdgeDelta("g", batches[20]); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, lead.srv, f)
	fills("leader after the next delta, before anyone asks", lead.srv, base+1)
	for _, s := range []*Server{lead.srv, f} {
		assertInfoComponents(t, "after the next delta", s, "g")
		assertInfoComponents(t, "after the next delta, again", s, "g")
	}
	fills("leader after the next delta and Info", lead.srv, base+2)
	fills("follower after the next delta and Info", f, 2)
}

// TestInfoPollersBesideDeltas runs an Info and a List poller beside a delta
// stream: whatever version a poller catches, the component fields it reads
// belong to that version's graph.
func TestInfoPollersBesideDeltas(t *testing.T) {
	s := New(Config{Defaults: testOptions})
	g, err := gen.ErdosRenyi(300, 600, 7, graph.BuildOptions{Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddGraph("g", g, Overrides{}, false); err != nil {
		t.Fatal(err)
	}
	type triple struct {
		version             uint64
		components, largest int
	}
	record := func() triple {
		c, l := wantComponents(t, s, "g")
		return triple{publishedSnap(t, s, "g").Version, c, l}
	}
	want := map[uint64]triple{}
	first := record()
	want[first.version] = first

	var wg sync.WaitGroup
	done := make(chan struct{})
	seen := make([][]triple, 2)
	var reads [2]atomic.Int64
	for p := range seen {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				var info GraphInfo
				if p == 0 {
					info, _ = s.Info("g")
				} else {
					info = s.List()[0]
				}
				seen[p] = append(seen[p], triple{info.Version, info.Components, info.LargestComp})
				reads[p].Add(1)
			}
		}()
	}
	// The writer is the only publisher, so what it reads back after each
	// delta is that delta's version. Before the next delta each poller
	// finishes two more reads, the second begun after the publish: the
	// writer never blocks, so without the wait a loaded scheduler can run
	// the whole stream before a poller gets a turn.
	for i, d := range mutationStream(t, g, 30, 5) {
		if _, err := s.ApplyEdgeDelta("g", d); err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		tr := record()
		want[tr.version] = tr
		for p := range reads {
			for start := reads[p].Load(); reads[p].Load() < start+2; {
				runtime.Gosched()
			}
		}
	}
	close(done)
	wg.Wait()

	distinct := map[triple]bool{}
	for p, got := range seen {
		for _, tr := range got {
			if tr != want[tr.version] {
				t.Fatalf("poller %d read %+v, version %d's graph has %+v", p, tr, tr.version, want[tr.version])
			}
			distinct[tr] = true
		}
	}
	if len(distinct) < 2 {
		t.Errorf("the pollers only ever saw %d version(s)", len(distinct))
	}
}

// BenchmarkApplyEdgeDelta is the mutation path end to end on a durable
// server over the serving family at 2¹⁷ nodes: 1–4-edge batches at random
// vertices, inserted on even iterations and deleted on odd ones. scc_fills/op
// is the decompositions the stream caused and must print 0.
func BenchmarkApplyEdgeDelta(b *testing.B) {
	const n = 1 << 17
	g, err := gen.PreferentialAttachmentMix(n, 8, 0.2, 100, graph.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	s := New(Config{DataDir: b.TempDir()})
	if _, err := s.Recover(); err != nil {
		b.Fatal(err)
	}
	defer s.CloseDurable()
	if _, err := s.AddGraph("g", g, Overrides{}, false); err != nil {
		b.Fatal(err)
	}
	fills := s.sccFills.Load()
	var batch []graph.Edge
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := delta.EdgeDelta{Delete: batch}
		if i%2 == 0 {
			batch = batch[:0]
			for j := 0; j <= i/2%4; j++ {
				src := uint32(i*2654435761+j*40503) % n
				batch = append(batch, graph.Edge{Src: src, Dst: (src*7 + 1 + uint32(j)) % n})
			}
			d = delta.EdgeDelta{Insert: batch}
		}
		if _, err := s.ApplyEdgeDelta("g", d); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer() // the deferred close checkpoints
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/op")
	b.ReportMetric(float64(s.sccFills.Load()-fills)/float64(b.N), "scc_fills/op")
}

package serve

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/delta"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/scc"
)

// Component stats are lazy: no publish path decomposes the graph, and the
// first GraphInfo of a structure fills a memo every snapshot of that
// structure shares. These tests hold the lazy answer to a from-scratch
// decomposition of the very graph each version serves, on every kind of
// server that publishes (live, recovered, follower), and count the fills.

// wantComponents is the from-scratch answer for the graph s serves now.
func wantComponents(t *testing.T, s *Server, name string) (components, largest int) {
	t.Helper()
	g := publishedSnap(t, s, name).Graph
	st := scc.StatsFor(g, scc.Decompose(g, 1))
	return st.Components, st.LargestComponent
}

// assertInfoComponents checks s.Info(name) against wantComponents.
func assertInfoComponents(t *testing.T, who string, s *Server, name string) GraphInfo {
	t.Helper()
	info, err := s.Info(name)
	if err != nil {
		t.Fatalf("%s: Info: %v", who, err)
	}
	if c, l := wantComponents(t, s, name); info.Components != c || info.LargestComp != l {
		t.Errorf("%s at version %d: Info reports %d components (largest %d), a from-scratch decomposition %d (largest %d)",
			who, info.Version, info.Components, info.LargestComp, c, l)
	}
	return info
}

// recoverCopy recovers a new server from a copy of the live leader's data
// directory (every append is fsynced, so the copy is a crash image).
func recoverCopy(t *testing.T, dir string) *Server {
	t.Helper()
	cp := t.TempDir()
	if err := os.CopyFS(cp, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	s, _ := newDurableServer(t, durableConfig(cp))
	return s
}

// assertComponentsEverywhere checks the live leader, a server recovered from
// its directory and the caught-up follower, which must agree with one another.
func assertComponentsEverywhere(t *testing.T, step string, lead *leaderHarness, dir string, f *Server) {
	t.Helper()
	live := assertInfoComponents(t, step+": live", lead.srv, "g")
	rec := assertInfoComponents(t, step+": recovered", recoverCopy(t, dir), "g")
	waitCaughtUp(t, lead.srv, f)
	fol := assertInfoComponents(t, step+": follower", f, "g")
	for _, o := range []GraphInfo{rec, fol} {
		if o.Version != live.Version || o.Components != live.Components || o.LargestComp != live.LargestComp {
			t.Errorf("%s: (version, components, largest) live %d/%d/%d, elsewhere %d/%d/%d", step,
				live.Version, live.Components, live.LargestComp, o.Version, o.Components, o.LargestComp)
		}
	}
}

func TestInfoComponentsTrackStructure(t *testing.T) {
	t.Run("two-cycles", func(t *testing.T) {
		// Two 3-cycles joined by 2→3.
		g, err := graph.FromEdges(6, []graph.Edge{
			{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0},
			{Src: 3, Dst: 4}, {Src: 4, Dst: 5}, {Src: 5, Dst: 3},
			{Src: 2, Dst: 3},
		}, false, graph.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		lead := startLeader(t, dir)
		f := New(followerConfig(lead.url))
		startFollower(t, f)
		info, err := lead.srv.AddGraph("g", g, Overrides{}, false)
		if err != nil {
			t.Fatal(err)
		}
		if info.Components != 2 || info.LargestComp != 3 {
			t.Fatalf("ingest answered %d components (largest %d), want 2 (3)", info.Components, info.LargestComp)
		}
		back := []graph.Edge{{Src: 3, Dst: 2}}
		for _, step := range []struct {
			name                string
			d                   delta.EdgeDelta
			components, largest int
		}{
			{"insert the back edge", delta.EdgeDelta{Insert: back}, 1, 6},
			{"delete the back edge", delta.EdgeDelta{Delete: back}, 2, 3},
			{"delete a cycle edge", delta.EdgeDelta{Delete: []graph.Edge{{Src: 4, Dst: 5}}}, 4, 3},
		} {
			if _, err := lead.srv.ApplyEdgeDelta("g", step.d); err != nil {
				t.Fatalf("%s: %v", step.name, err)
			}
			assertComponentsEverywhere(t, step.name, lead, dir, f)
			if info, _ := lead.srv.Info("g"); info.Components != step.components || info.LargestComp != step.largest {
				t.Errorf("%s: %d components (largest %d), want %d (%d)",
					step.name, info.Components, info.LargestComp, step.components, step.largest)
			}
		}
	})

	dedup := graph.BuildOptions{Dedup: true, DropSelfLoops: true}
	for name, build := range map[string]func() (*graph.Graph, error){
		"erdos-renyi": func() (*graph.Graph, error) { return gen.ErdosRenyi(300, 900, 11, dedup) },
		"rmat":        func() (*graph.Graph, error) { return gen.RMAT(gen.Graph500RMAT(8, 4, 13), dedup) },
		"pref-attach": func() (*graph.Graph, error) { return gen.PreferentialAttachmentMix(300, 4, 0.3, 17, dedup) },
		"copying": func() (*graph.Graph, error) {
			return gen.Copying(gen.CopyingConfig{N: 300, OutDegree: 4, CopyProb: 0.5, Locality: 0.5, Seed: 19}, dedup)
		},
		"dag-communities": func() (*graph.Graph, error) {
			return gen.DAGCommunities(gen.DAGCommunitiesConfig{
				Clusters: 8, ClusterSize: 30, IntraDegree: 2, BridgeDegree: 3, Seed: 23,
			}, dedup)
		},
	} {
		t.Run(name, func(t *testing.T) {
			g, err := build()
			if err != nil {
				t.Fatalf("generating: %v", err)
			}
			dir := t.TempDir()
			lead := startLeader(t, dir)
			f := New(followerConfig(lead.url))
			startFollower(t, f)
			if _, err := lead.srv.AddGraph("g", g, Overrides{}, false); err != nil {
				t.Fatal(err)
			}
			assertComponentsEverywhere(t, "ingest", lead, dir, f)
			for i, d := range mutationStream(t, g, 12, 97) {
				if _, err := lead.srv.ApplyEdgeDelta("g", d); err != nil {
					t.Fatalf("delta %d: %v", i, err)
				}
				assertComponentsEverywhere(t, fmt.Sprintf("delta %d", i), lead, dir, f)
			}
		})
	}
}

func TestPublishPathsDoNotDecompose(t *testing.T) {
	g := testGraph(t)
	dir := t.TempDir()
	lead := startLeader(t, dir)
	f := New(followerConfig(lead.url))
	startFollower(t, f)
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
	rec := recoverCopy(t, dir)
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

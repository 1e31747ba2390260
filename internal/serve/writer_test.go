package serve

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	pcpm "repro"
	"repro/internal/delta"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/wal"
)

// assertSameEverywhere requires the live leader, a server recovered from its
// directory and the caught-up follower to hold the same graphs, each at the
// same version and log position with bit-identical ranks (assertConverged).
func assertSameEverywhere(t *testing.T, lead *Server, dir string, f *Server) {
	t.Helper()
	waitCaughtUp(t, lead, f)
	want := strings.Join(lead.Names(), ",")
	for who, s := range map[string]*Server{"recovered copy": recoverCopy(t, dir), "follower": f} {
		if got := strings.Join(s.Names(), ","); got != want {
			t.Errorf("%s holds graphs %q, live %q", who, got, want)
			continue
		}
		for _, name := range lead.Names() {
			t.Logf("comparing the %s of %s", who, name)
			assertConverged(t, lead, s, name)
		}
	}
}

// waitUntil polls cond until it holds, failing the test after 10 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestWriterSlotReplaceWaitsForRecompute is the interleaving where a replace
// used to publish a version no copy of the log ever reaches: a recompute of
// the old graph appends after the replace's add record but publishes before
// the replace installs its entry, and the replace then numbered itself past
// the recompute that recovery and followers skip as orphaned (live version 3,
// recovered 2, both at LSN 2). A replace now waits for the recompute's slot
// and never reaches its engine run while the recompute is gated; if it does,
// the test holds the registry lock across the replace's append and releases
// the recompute inside that window.
func TestWriterSlotReplaceWaitsForRecompute(t *testing.T) {
	dir := t.TempDir()
	lead := startLeader(t, dir)
	s := lead.srv
	f := New(followerConfig(lead.url))
	startFollower(t, f)
	g := testGraph(t)
	g2, err := gen.ErdosRenyi(200, 1600, 3, graph.BuildOptions{Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddGraph("g", g, Overrides{}, false); err != nil {
		t.Fatal(err)
	}
	old, err := s.lookup("g")
	if err != nil {
		t.Fatal(err)
	}

	recEntered, recRelease := make(chan struct{}), make(chan struct{})
	replaceHolds := make(chan struct{})
	var calls atomic.Int32
	s.computeFn = func(g *graph.Graph, o pcpm.Options) (*pcpm.Result, error) {
		switch calls.Add(1) {
		case 1: // the recompute
			close(recEntered)
			<-recRelease
		case 2: // the replace
			select {
			case <-recRelease:
			default:
				// Reached only while the recompute is gated: keep the registry
				// locked past this run and the replace's append.
				s.mu.Lock()
				close(replaceHolds)
			}
		}
		return pcpm.Run(g, o)
	}
	if _, err := s.Recompute("g", Overrides{}, false); err != nil {
		t.Fatal(err)
	}
	<-recEntered
	next := s.wal.Load().NextLSN()
	replaced := make(chan error, 1)
	go func() {
		_, err := s.AddGraph("g", g2, Overrides{}, true)
		replaced <- err
	}()
	select {
	case <-replaceHolds:
		waitUntil(t, "the replace's append", func() bool { return s.wal.Load().NextLSN() > next })
		close(recRelease)
		waitUntil(t, "the recompute's publish", func() bool { return old.snap.Load().WalLSN > next })
		s.mu.Unlock()
	case <-time.After(100 * time.Millisecond):
		close(recRelease)
	}
	if err := <-replaced; err != nil {
		t.Fatal(err)
	}

	info, err := s.Info("g")
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 3 || info.Nodes != g2.NumNodes() {
		t.Errorf("after recompute then replace: version %d on %d nodes, want 3 on %d",
			info.Version, info.Nodes, g2.NumNodes())
	}
	assertSameEverywhere(t, s, dir, f)
}

// TestWriterSlotFourWriters runs every kind of writer on one name at once —
// replaces, removals each followed by a re-ingest, recomputes and edge
// deltas — against a durable leader with a follower. Whatever order the
// writers take, every version the leader published must be one the log
// rebuilds: the live server, a recovered copy and the caught-up follower end
// on the same version, log position and rank bits.
func TestWriterSlotFourWriters(t *testing.T) {
	dir := t.TempDir()
	lead := startLeader(t, dir)
	s := lead.srv
	f := New(followerConfig(lead.url))
	startFollower(t, f)
	g := testGraph(t)
	g2, err := gen.ErdosRenyi(200, 1600, 3, graph.BuildOptions{Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddGraph("g", g, Overrides{}, false); err != nil {
		t.Fatal(err)
	}

	// A writer that finds the name gone, a re-ingest that finds it back and
	// a delta naming an edge the current structure lacks are legal outcomes
	// of the race; anything else fails the test.
	tolerated := func(err error) bool {
		return err == nil || errors.Is(err, ErrNotFound) || errors.Is(err, ErrExists) || errors.Is(err, ErrBadDelta)
	}
	const rounds = 6
	var published atomic.Int64
	writers := map[string]func(i int) error{
		"replace": func(i int) error {
			_, err := s.AddGraph("g", [...]*graph.Graph{g, g2}[i%2], Overrides{}, true)
			return err
		},
		"remove": func(i int) error {
			if err := s.Remove("g"); err != nil {
				return err
			}
			_, err := s.AddGraph("g", g, Overrides{}, false)
			return err
		},
		"recompute": func(i int) error {
			damping := 0.8 + 0.01*float64(i)
			_, err := s.Recompute("g", Overrides{Damping: &damping}, i%2 == 0)
			return err
		},
		"delta": func(i int) error {
			_, err := s.ApplyEdgeDelta("g", delta.EdgeDelta{Insert: []graph.Edge{{Src: uint32(i), Dst: uint32(i + 7)}}})
			return err
		},
	}
	var wg sync.WaitGroup
	for kind, write := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rounds {
				err := write(i)
				if !tolerated(err) {
					t.Errorf("%s %d: %v", kind, i, err)
				}
				if err == nil {
					published.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	// An unawaited recompute may still hold the slot; a waited one joins it.
	if _, err := s.Recompute("g", Overrides{}, true); err != nil && !errors.Is(err, ErrNotFound) {
		t.Fatal(err)
	}
	if published.Load() == 0 {
		t.Fatal("no writer succeeded")
	}
	assertSameEverywhere(t, s, dir, f)
}

// TestWriterSlotRacingRemovesLogOnce: two removals of one name take its
// writer slot in turn, so one succeeds, the other finds the name gone, and
// the log holds exactly one removal record.
func TestWriterSlotRacingRemovesLogOnce(t *testing.T) {
	s, _ := newDurableServer(t, durableConfig(t.TempDir()))
	if _, err := s.AddGraph("g", testGraph(t), Overrides{}, false); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			errs[i] = s.Remove("g")
		}()
	}
	close(start)
	wg.Wait()
	if (errs[0] == nil) == (errs[1] == nil) || !errors.Is(errors.Join(errs...), ErrNotFound) {
		t.Fatalf("racing removals returned %v and %v, want one success and one ErrNotFound", errs[0], errs[1])
	}
	var removes int
	err := s.wal.Load().ReadFrom(1, func(rec *wal.Record) error {
		if rec.Type == wal.RecRemoveGraph {
			removes++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if removes != 1 {
		t.Errorf("log holds %d removal records, want 1", removes)
	}
}

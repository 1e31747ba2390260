package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	pcpm "repro"
	"repro/internal/delta"
	"repro/internal/graph"
	"repro/internal/wal"
)

// Each graph name has one writer at a time. These scenarios race writers on
// one name: whatever order they take, every version the leader publishes
// must be one its log rebuilds, which the check closing every step holds
// the live server, a recovered copy and the caught-up follower to.

// TestWriterSlotReplaceWaitsForRecompute is the interleaving where a replace
// used to publish a version no copy of the log ever reaches: a recompute of
// the old graph appends after the replace's add record but publishes before
// the replace installs its entry, and the replace then numbered itself past
// the recompute that recovery and followers skip as orphaned (live version 3,
// recovered 2, both at LSN 2). A replace now waits for the recompute's slot
// and never reaches its engine run while the recompute is gated; if it does,
// the step holds the registry lock across the replace's append and releases
// the recompute inside that window. The twin runs the recompute, then the
// replace.
func TestWriterSlotReplaceWaitsForRecompute(t *testing.T) {
	const name = "g"
	g2 := smallGraph(t)
	racing := step{name: "replace during a recompute", do: func(t *testing.T, c *cluster) {
		s := c.lead.srv
		old, err := s.lookup(name)
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
					// Reached only while the recompute is gated: keep the
					// registry locked past this run and the replace's append.
					s.mu.Lock()
					close(replaceHolds)
				}
			}
			return pcpm.Run(g, o)
		}
		if _, err := s.Recompute(name, Overrides{}, false); err != nil {
			t.Fatal(err)
		}
		<-recEntered
		next := s.wal.Load().NextLSN()
		replaced := make(chan error, 1)
		go func() {
			_, err := s.AddGraph(name, g2, Overrides{}, true)
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
		if _, err := c.twin.Recompute(name, Overrides{}, true); err != nil {
			t.Fatal(err)
		}
		if _, err := c.twin.AddGraph(name, g2, Overrides{}, true); err != nil {
			t.Fatal(err)
		}
	}}
	runScenario(t, scenario{steps: []step{add(name, testGraph(t)), racing}})
}

// TestWriterSlotFourWriters runs every kind of writer on one name at once:
// replaces, removals each followed by a re-ingest, recomputes and edge
// deltas. The order they take is the scheduler's, so the twin cannot follow.
func TestWriterSlotFourWriters(t *testing.T) {
	const name = "g"
	g, g2 := testGraph(t), smallGraph(t)
	writers4 := step{name: "four writers", do: func(t *testing.T, c *cluster) {
		s := c.lead.srv
		c.twin = nil
		// A writer that finds the name gone, a re-ingest that finds it back
		// and a delta naming an edge the current structure lacks are legal
		// outcomes of the race; anything else fails the test.
		tolerated := func(err error) bool {
			return err == nil || errors.Is(err, ErrNotFound) || errors.Is(err, ErrExists) || errors.Is(err, ErrBadDelta)
		}
		const rounds = 6
		var published atomic.Int64
		writers := map[string]func(i int) error{
			"replace": func(i int) error {
				_, err := s.AddGraph(name, [...]*graph.Graph{g, g2}[i%2], Overrides{}, true)
				return err
			},
			"remove": func(i int) error {
				if err := s.Remove(name); err != nil {
					return err
				}
				_, err := s.AddGraph(name, g, Overrides{}, false)
				return err
			},
			"recompute": func(i int) error {
				damping := 0.8 + 0.01*float64(i)
				_, err := s.Recompute(name, Overrides{Damping: &damping}, i%2 == 0)
				return err
			},
			"delta": func(i int) error {
				_, err := s.ApplyEdgeDelta(name, delta.EdgeDelta{Insert: []graph.Edge{{Src: uint32(i), Dst: uint32(i + 7)}}})
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
		if _, err := s.Recompute(name, Overrides{}, true); err != nil && !errors.Is(err, ErrNotFound) {
			t.Fatal(err)
		}
		if published.Load() == 0 {
			t.Fatal("no writer succeeded")
		}
	}}
	runScenario(t, scenario{steps: []step{add(name, g), writers4}})
}

// TestWriterSlotRacingRemovesLogOnce: two removals of one name take its
// writer slot in turn, so one succeeds, the other finds the name gone, and
// the log holds exactly one removal record.
func TestWriterSlotRacingRemovesLogOnce(t *testing.T) {
	const name = "g"
	removes := step{name: "racing removes", do: func(t *testing.T, c *cluster) {
		s := c.lead.srv
		var wg sync.WaitGroup
		start := make(chan struct{})
		errs := make([]error, 2)
		for i := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				errs[i] = s.Remove(name)
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
		if err := c.twin.Remove(name); err != nil {
			t.Fatal(err)
		}
	}}
	runScenario(t, scenario{steps: []step{add(name, testGraph(t)), removes}})
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

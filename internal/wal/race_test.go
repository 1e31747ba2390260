package wal

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestConcurrentAppendCheckpointRead hammers one store from four sides at
// once — appenders, a checkpointer (which rotates and prunes segments),
// ReadFrom tailers (the replication feed), and Replay — under the race
// detector. The invariants: no data race, every acknowledged LSN unique,
// tailers see only in-order records or ErrPruned, and the directory replays
// as a contiguous chain afterwards.
func TestConcurrentAppendCheckpointRead(t *testing.T) {
	dir := t.TempDir()

	// Seed a few records and reopen, so the concurrent Replay calls have an
	// Open-time prefix with real segments to read.
	seed := mustOpen(t, dir, Options{})
	for i := 0; i < 3; i++ {
		mustAppend(t, seed, RecEdgeDelta, []byte(`{"name":"g","seed":true}`), nil)
	}
	if err := seed.Close(); err != nil {
		t.Fatalf("closing seed store: %v", err)
	}

	s := mustOpen(t, dir, Options{SyncEvery: -1}) // no fsync: the test is about locking

	const (
		appenders   = 4
		perAppender = 50
	)
	var (
		appWg   sync.WaitGroup
		auxWg   sync.WaitGroup
		maxSeen atomic.Uint64
		lsnSeen sync.Map // lsn -> true, for uniqueness
	)
	stopAux := make(chan struct{})

	for a := 0; a < appenders; a++ {
		appWg.Add(1)
		go func(a int) {
			defer appWg.Done()
			for i := 0; i < perAppender; i++ {
				meta := fmt.Sprintf(`{"name":"g","appender":%d,"i":%d}`, a, i)
				lsn, err := s.Append(RecEdgeDelta, []byte(meta), []byte("blob"))
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				if _, dup := lsnSeen.LoadOrStore(lsn, true); dup {
					t.Errorf("LSN %d acknowledged twice", lsn)
				}
				for {
					cur := maxSeen.Load()
					if lsn <= cur || maxSeen.CompareAndSwap(cur, lsn) {
						break
					}
				}
			}
		}(a)
	}

	// The checkpointer rotates and prunes concurrently with everything else.
	auxWg.Add(1)
	go func() {
		defer auxWg.Done()
		for {
			select {
			case <-stopAux:
				return
			default:
			}
			covered := maxSeen.Load()
			if covered == 0 {
				runtime.Gosched()
				continue
			}
			err := s.Checkpoint([]CheckpointEntry{{
				Name: "g", LSN: covered, Snap: testSnap(t, fmt.Sprintf(`{"lsn":%d}`, covered)),
			}})
			if err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
		}
	}()

	// Tailers follow the log like a replication follower would: a prune
	// outrunning the cursor is legal (re-bootstrap), anything else is not.
	for r := 0; r < 2; r++ {
		auxWg.Add(1)
		go func() {
			defer auxWg.Done()
			cursor := uint64(1)
			for {
				select {
				case <-stopAux:
					return
				default:
				}
				want := cursor
				err := s.ReadFrom(cursor, func(rec *Record) error {
					if rec.LSN < want {
						t.Errorf("ReadFrom(%d) went backwards: LSN %d after %d", cursor, rec.LSN, want)
						return ErrStop
					}
					want = rec.LSN + 1
					return nil
				})
				switch {
				case err == nil:
					cursor = want
				case errors.Is(err, ErrPruned):
					cursor = s.OldestLSN()
				default:
					t.Errorf("ReadFrom(%d): %v", cursor, err)
					return
				}
				runtime.Gosched()
			}
		}()
	}

	// Replay covers the Open-time prefix; it must stay callable while the
	// log churns. A checkpoint may prune an Open-time segment out from under
	// it — that surfaces as ENOENT and is the one legal failure.
	auxWg.Add(1)
	go func() {
		defer auxWg.Done()
		for {
			select {
			case <-stopAux:
				return
			default:
			}
			err := s.Replay(func(*Record) error { return nil })
			if err != nil && !errors.Is(err, os.ErrNotExist) {
				t.Errorf("replay: %v", err)
				return
			}
			runtime.Gosched()
		}
	}()

	// A long-poll waiter churns Wait at the head alongside the appends.
	auxWg.Add(1)
	go func() {
		defer auxWg.Done()
		for {
			select {
			case <-stopAux:
				return
			default:
			}
			from := s.NextLSN()
			ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
			next, err := s.Wait(ctx, from)
			cancel()
			if err == nil && next <= from {
				t.Errorf("Wait(%d) returned with next LSN %d", from, next)
				return
			}
		}
	}()

	appWg.Wait()
	close(stopAux)
	auxWg.Wait()

	var acked int
	lsnSeen.Range(func(_, _ any) bool { acked++; return true })
	if acked != appenders*perAppender && !t.Failed() {
		t.Fatalf("%d LSNs acknowledged, want %d", acked, appenders*perAppender)
	}

	if err := s.Close(); err != nil {
		t.Fatalf("close after churn: %v", err)
	}

	// The surviving log must reopen cleanly and replay as a contiguous chain.
	re := mustOpen(t, dir, Options{})
	defer re.Close()
	prev := uint64(0)
	if err := re.Replay(func(rec *Record) error {
		if prev != 0 && rec.LSN != prev+1 {
			t.Errorf("gap after concurrent churn: LSN %d follows %d", rec.LSN, prev)
		}
		prev = rec.LSN
		return nil
	}); err != nil {
		t.Fatalf("replay after churn: %v", err)
	}
	if prev+1 != re.NextLSN() {
		t.Fatalf("replay ended at LSN %d but the store resumes at %d", prev, re.NextLSN())
	}
}

// TestIntervalSyncStopsOnClose pins the fsync ticker's lifecycle: a store
// opened with a positive SyncEvery runs a background goroutine, and Close
// must stop it — no goroutine leak, no late Sync against a closed file.
func TestIntervalSyncStopsOnClose(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		s := mustOpen(t, t.TempDir(), Options{SyncEvery: time.Millisecond})
		mustAppend(t, s, RecEdgeDelta, []byte(`{"name":"g"}`), nil)
		time.Sleep(3 * time.Millisecond) // let the ticker fire at least once
		if err := s.Close(); err != nil {
			t.Fatalf("close %d: %v", i, err)
		}
	}
	// The sync goroutines must be gone; allow scheduler slack before
	// declaring a leak.
	deadline := time.After(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			return
		}
		select {
		case <-deadline:
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked after Close: %d -> %d\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		default:
			time.Sleep(10 * time.Millisecond)
		}
	}
}

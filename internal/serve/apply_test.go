package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	pcpm "repro"
	"repro/internal/graph"
	"repro/internal/wal"
)

// Tests of applyRecord's contract through both of its record sources: a
// record is applied by installing the state it ships, never by re-running
// an engine or a repair, and a record that ships none fails closed.

// forbidEngine makes any engine run on s a test failure.
func forbidEngine(t *testing.T, s *Server) {
	t.Helper()
	s.computeFn = func(*graph.Graph, pcpm.Options) (*pcpm.Result, error) {
		t.Error("applying a record ran an engine")
		return nil, errors.New("engine run forbidden")
	}
}

// rawRecord is one hand-built log record.
type rawRecord struct {
	typ  wal.RecordType
	meta any
	blob []byte
}

func (r rawRecord) appendTo(t *testing.T, st *wal.Store) uint64 {
	t.Helper()
	mb, err := json.Marshal(r.meta)
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := st.Append(r.typ, mb, r.blob)
	if err != nil {
		t.Fatalf("appending hand-built record: %v", err)
	}
	return lsn
}

// recoverRaw crash-stops the writer a, appends r to its log, and recovers a
// fresh, engine-less server from the directory. It returns that server,
// Recover's result, and r's LSN.
func recoverRaw(t *testing.T, a *Server, r rawRecord) (*Server, *RecoveryReport, error, uint64) {
	t.Helper()
	dir := a.cfg.DataDir
	crashStop(t, a)
	st, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lsn := r.appendTo(t, st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	b := New(durableConfig(dir))
	forbidEngine(t, b)
	rep, err := b.Recover()
	if err == nil {
		t.Cleanup(func() { b.CloseDurable() })
	}
	return b, rep, err, lsn
}

// waitReplStatus blocks until f's replication status satisfies reached.
func waitReplStatus(t *testing.T, f *Server, what string, reached func(ReplStatus) bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !reached(f.ReplStatus()) {
		if time.Now().After(deadline) {
			t.Fatalf("follower never %s: %+v", what, f.ReplStatus())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// assertNamesRecord requires msg to name the failing record's LSN and type.
func assertNamesRecord(t *testing.T, msg string, lsn uint64, typ wal.RecordType) {
	t.Helper()
	for _, want := range []string{fmt.Sprintf("record %d", lsn), fmt.Sprintf("type %d", typ)} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not name %q", msg, want)
		}
	}
}

// TestApplyRecordRejectsStatelessRecords hand-builds the record shapes that
// ship no state — the ones an applier could only honor by re-executing the
// mutation — plus a truncated rank vector, and feeds each through recovery
// and through a follower: the apply must fail naming the record, leave the
// snapshot published before it in place, and never run an engine. The
// 0-node row is the boundary on the other side: there an empty blob IS the
// whole shipped vector (a live writer emits exactly this record), so it
// applies.
func TestApplyRecordRejectsStatelessRecords(t *testing.T) {
	g := testGraph(t)
	empty, err := graph.FromEdges(0, nil, false, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var bare bytes.Buffer
	if err := graph.WriteBinary(&bare, g); err != nil {
		t.Fatal(err)
	}
	d := mutationStream(t, g, 1, 5)[0]

	cases := []struct {
		name, graph string
		// build makes the record against the target graph's published
		// snapshot (for its WalLSN parent link and its ranks).
		build   func(cur *Snapshot) rawRecord
		wantErr bool
	}{
		{"add-graph carrying a bare binary graph", "g", func(*Snapshot) rawRecord {
			return rawRecord{wal.RecAddGraph, addMeta{Name: "g", Replace: true, Options: testOptions}, bare.Bytes()}
		}, true},
		{"edge delta with neither a snapshot nor a rank vector", "g", func(cur *Snapshot) rawRecord {
			return rawRecord{wal.RecEdgeDelta, deltaMeta{Name: "g", Parent: cur.WalLSN, Insert: d.Insert, Delete: d.Delete}, nil}
		}, true},
		{"recompute without a rank vector", "g", func(cur *Snapshot) rawRecord {
			return rawRecord{wal.RecRecompute, recomputeMeta{Name: "g", Parent: cur.WalLSN, Options: testOptions}, nil}
		}, true},
		{"recompute with a short rank vector", "g", func(cur *Snapshot) rawRecord {
			return rawRecord{wal.RecRecompute, recomputeMeta{Name: "g", Parent: cur.WalLSN, Options: testOptions},
				encodeRanks(cur.Ranks[:len(cur.Ranks)-1])}
		}, true},
		{"0-node recompute with an empty rank vector", "z", func(cur *Snapshot) rawRecord {
			return rawRecord{wal.RecRecompute, recomputeMeta{Name: "z", Parent: cur.WalLSN, Options: testOptions}, nil}
		}, false},
	}
	// writer returns a durable server holding "g" and the 0-node "z".
	writer := func(t *testing.T) *leaderHarness {
		lead := startLeader(t, t.TempDir())
		if _, err := lead.srv.AddGraph("g", g, pcpm.Options{}, false); err != nil {
			t.Fatal(err)
		}
		if _, err := lead.srv.AddGraph("z", empty, pcpm.Options{}, false); err != nil {
			t.Fatal(err)
		}
		return lead
	}

	for _, tc := range cases {
		t.Run(tc.name+"/recovery", func(t *testing.T) {
			a := writer(t).srv
			pre := publishedSnap(t, a, tc.graph)
			b, rep, err, lsn := recoverRaw(t, a, tc.build(pre))
			// The failed apply happened inside Recover, so the pre-record
			// pointer is not observable; WalLSN is the stand-in — anything
			// the record published would carry the record's LSN.
			got := publishedSnap(t, b, tc.graph)
			if !tc.wantErr {
				if err != nil {
					t.Fatalf("Recover: %v", err)
				}
				if rep.Replayed != 3 || got.WalLSN != lsn {
					t.Errorf("replayed %d records, snapshot at LSN %d; want 3 and %d", rep.Replayed, got.WalLSN, lsn)
				}
				return
			}
			if err == nil {
				t.Fatal("Recover accepted a record that ships no state")
			}
			assertNamesRecord(t, err.Error(), lsn, tc.build(pre).typ)
			if got.WalLSN != pre.WalLSN || got.Version != pre.Version || !ranksBitEqual(got.Ranks, pre.Ranks) {
				t.Errorf("rejected record still published: LSN %d version %d, want %d/%d with the writer's ranks",
					got.WalLSN, got.Version, pre.WalLSN, pre.Version)
			}
		})

		t.Run(tc.name+"/follower", func(t *testing.T) {
			lead := writer(t)
			f := New(followerConfig(lead.url))
			forbidEngine(t, f)
			startFollower(t, f)
			waitCaughtUp(t, lead.srv, f)
			pre := publishedSnap(t, f, tc.graph)
			rec := tc.build(publishedSnap(t, lead.srv, tc.graph))
			if tc.wantErr {
				// Park the re-bootstrap the failure triggers, so the registry
				// (and last_error) stay as the failed apply left them.
				inner := lead.srv.Handler()
				lead.swap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if r.URL.Path == "/v1/repl/bootstrap" {
						<-r.Context().Done()
						return
					}
					inner.ServeHTTP(w, r)
				}))
			}
			lsn := rec.appendTo(t, lead.srv.wal.Load())
			if !tc.wantErr {
				waitCaughtUp(t, lead.srv, f)
				if st := f.ReplStatus(); st.Corruptions != 0 || st.Bootstraps != 1 {
					t.Errorf("valid record disturbed the follower: %+v", st)
				}
				if got := publishedSnap(t, f, tc.graph); got.WalLSN != lsn {
					t.Errorf("follower snapshot at LSN %d, want the applied record's %d", got.WalLSN, lsn)
				}
				return
			}
			waitReplStatus(t, f, "counted the corruption", func(st ReplStatus) bool { return st.Corruptions >= 1 })
			assertNamesRecord(t, f.ReplStatus().LastError, lsn, rec.typ)
			if got := publishedSnap(t, f, tc.graph); got != pre {
				t.Errorf("rejected record replaced the served snapshot (LSN %d → %d)", pre.WalLSN, got.WalLSN)
			}
		})
	}
}

// TestApplyRecordRejectsMisnamedSnapshot is the regression test for the
// snapshot-name check: a record for graph "a" whose blob is a snapshot of
// "b" must not install b's state under a's name. Recovery fails closed; a
// follower counts it as corruption and re-bootstraps.
func TestApplyRecordRejectsMisnamedSnapshot(t *testing.T) {
	ga := testGraph(t)
	gb, err := graph.FromEdges(3, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}}, false, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	writer := func(t *testing.T) *leaderHarness {
		lead := startLeader(t, t.TempDir())
		if _, err := lead.srv.AddGraph("a", ga, pcpm.Options{}, false); err != nil {
			t.Fatal(err)
		}
		if _, err := lead.srv.AddGraph("b", gb, pcpm.Options{}, false); err != nil {
			t.Fatal(err)
		}
		return lead
	}
	misnamed := func(t *testing.T, s *Server) rawRecord {
		blob, err := snapshotBlob("b", publishedSnap(t, s, "b"))
		if err != nil {
			t.Fatal(err)
		}
		return rawRecord{wal.RecAddGraph, addMeta{Name: "a", Replace: true, Options: testOptions}, blob}
	}
	unharmed := func(t *testing.T, s *Server) {
		t.Helper()
		if got := publishedSnap(t, s, "a"); got.Graph.NumNodes() != ga.NumNodes() {
			t.Errorf("graph a now has %d nodes: b's snapshot was installed under its name", got.Graph.NumNodes())
		}
	}

	t.Run("recovery", func(t *testing.T) {
		a := writer(t).srv
		rec := misnamed(t, a)
		b, _, err, lsn := recoverRaw(t, a, rec)
		if err == nil {
			t.Fatal("Recover installed a snapshot of b under a's record")
		}
		assertNamesRecord(t, err.Error(), lsn, rec.typ)
		unharmed(t, b)
	})

	t.Run("follower", func(t *testing.T) {
		lead := writer(t)
		f := New(followerConfig(lead.url))
		startFollower(t, f)
		waitCaughtUp(t, lead.srv, f)
		misnamed(t, lead.srv).appendTo(t, lead.srv.wal.Load())
		// The record stays in the leader's log, so every re-bootstrap meets
		// it again; what matters is that each round rejects it.
		waitReplStatus(t, f, "re-bootstrapped after the corruption", func(st ReplStatus) bool {
			return st.Corruptions >= 1 && st.Bootstraps >= 2
		})
		unharmed(t, f)
		assertConverged(t, lead.srv, f, "a")
	})
}

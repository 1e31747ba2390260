package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	pcpm "repro"
	"repro/internal/graph"
	"repro/internal/wal"
)

// Data dirs and leaders from before the serving path ran one solver hold
// snapshots and records that name whichever engine or ablation produced
// them. The metas below are spelled as that writer's encoder emitted them,
// not built from today's structs, so the test keeps meaning what it says if
// those structs change.
const (
	legacySnapMeta = `{"name":"g","lsn":%d,"version":1,"options":{"Method":"componentwise","Damping":0.85,"PartitionBytes":1024,"Workers":1,"Iterations":15,"Tolerance":1e-09,"MaxIterations":0,"RedistributeDangling":false,"BranchingGather":false,"CompactIDs":false},"method":"componentwise","iterations":37,"delta":4e-10,"drift":0,"computed_at":"2026-01-02T03:04:05Z"}`
	legacyRecMeta  = `{"name":"g","parent":%d,"options":{"Method":"bvgas","Damping":0.85,"PartitionBytes":1024,"Workers":1,"Iterations":15,"Tolerance":1e-09,"MaxIterations":0,"RedistributeDangling":false,"BranchingGather":false,"CompactIDs":true},"method":"bvgas","iterations":15,"delta":0.001}`
	// A retired shard-fleet coordinator cleared options.Method and labelled
	// the snapshot it published pcpm-sharded.
	shardedRecMeta = `{"name":"g","parent":%d,"options":{"Method":"","Damping":0.85,"PartitionBytes":1024,"Workers":1,"Iterations":15,"Tolerance":1e-09,"MaxIterations":0,"RedistributeDangling":false},"method":"pcpm-sharded","iterations":41,"delta":8e-10}`
)

// legacyRecompute is a full-vector RecRecompute of "g" against the snapshot
// at parent, labelled bvgas with the since-retired CompactIDs option set (a
// key today's options struct no longer has, so the decoder skips it).
func legacyRecompute(parent uint64, ranks []float32) rawRecord {
	return rawRecord{wal.RecRecompute, json.RawMessage(fmt.Sprintf(legacyRecMeta, parent)), encodeRanks(ranks)}
}

// shardedRecompute is a full-vector RecRecompute of "g" against the snapshot
// at parent, as a sharded coordinator logged it.
func shardedRecompute(parent uint64, ranks []float32) rawRecord {
	return rawRecord{wal.RecRecompute, json.RawMessage(fmt.Sprintf(shardedRecMeta, parent)), encodeRanks(ranks)}
}

// TestLegacyMethodMetasInstallAsShipped: such state is installed as shipped
// — bit-identical ranks, the label it came with — by recovery and by a
// follower, without running anything; the method it names is never
// consulted, so the next recompute runs PCPM and says so.
func TestLegacyMethodMetasInstallAsShipped(t *testing.T) {
	g := testGraph(t)
	n := g.NumNodes()
	// Three recognisable vectors no engine here would produce.
	snapRanks, recRanks, shardRanks := make([]float32, n), make([]float32, n), make([]float32, n)
	for i := range snapRanks {
		snapRanks[i] = float32(i+1) / float32(n*n)
		recRanks[i] = float32(n-i) / float32(n*n)
		shardRanks[i] = float32(i%7+1) / float32(n*n)
	}
	// legacyDir returns a data dir whose only content is a checkpoint
	// snapshot of "g" labelled componentwise, and the LSN it covers.
	legacyDir := func(t *testing.T) (string, uint64) {
		dir := t.TempDir()
		a := New(durableConfig(dir))
		if _, err := a.Recover(); err != nil {
			t.Fatal(err)
		}
		if _, err := a.AddGraph("g", g, pcpm.Options{}, false); err != nil {
			t.Fatal(err)
		}
		lsn := publishedSnap(t, a, "g").WalLSN
		crashStop(t, a)
		st, err := wal.Open(dir, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		meta := fmt.Sprintf(legacySnapMeta, lsn)
		if err := st.Checkpoint([]wal.CheckpointEntry{{Name: "g", LSN: lsn,
			Snap: &graph.Snapshot{Graph: g, Ranks: snapRanks, Meta: []byte(meta)}}}); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		return dir, lsn
	}
	// assertInstalled checks the label and options.method "g" was shipped
	// with (optMethod), and its ranks.
	assertInstalled := func(t *testing.T, s *Server, method, optMethod pcpm.Method, ranks []float32) {
		t.Helper()
		info, err := s.Info("g")
		if err != nil {
			t.Fatal(err)
		}
		snap := publishedSnap(t, s, "g")
		if info.Method != method || snap.Options.Method != optMethod {
			t.Errorf("installed as method %q with options %+v, want %q (options %q) as shipped",
				info.Method, snap.Options, method, optMethod)
		}
		if !ranksBitEqual(snap.Ranks, ranks) {
			t.Errorf("installed ranks are not the shipped vector")
		}
	}
	// assertRecomputesAsPCPM re-runs "g" on s with nothing overridden.
	assertRecomputesAsPCPM := func(t *testing.T, s *Server) {
		t.Helper()
		st, err := s.Recompute("g", Overrides{}, true)
		if err != nil {
			t.Fatalf("recompute over a legacy snapshot: %v", err)
		}
		want, err := pcpm.Run(g, pcpm.Options{Damping: 0.85, PartitionBytes: 1024, Workers: 1, Iterations: 15, Tolerance: 1e-9})
		if err != nil {
			t.Fatal(err)
		}
		got := st.Snapshot
		if got.Method != pcpm.MethodPCPM || got.Options.Method != "" {
			t.Errorf("recompute reports method %q with options %+v, want a plain pcpm run", got.Method, got.Options)
		}
		if !ranksBitEqual(got.Ranks, want.Ranks) {
			t.Errorf("recompute over a legacy snapshot is not the pcpm run of its other options")
		}
	}

	t.Run("recovery", func(t *testing.T) {
		dir, lsn := legacyDir(t)
		a := New(durableConfig(dir))
		forbidEngine(t, a)
		if rep, err := a.Recover(); err != nil || rep.Snapshots != 1 {
			t.Fatalf("Recover: %+v, %v", rep, err)
		}
		assertInstalled(t, a, "componentwise", "componentwise", snapRanks)

		b, rep, err, _ := recoverRaw(t, a, legacyRecompute(lsn, recRanks))
		if err != nil || rep.Replayed != 1 {
			t.Fatalf("Recover with the legacy record: %+v, %v", rep, err)
		}
		assertInstalled(t, b, "bvgas", "bvgas", recRanks)

		b.computeFn = pcpm.Run
		assertRecomputesAsPCPM(t, b)

		c, rep, err, _ := recoverRaw(t, b, shardedRecompute(publishedSnap(t, b, "g").WalLSN, shardRanks))
		// The tail is now the bvgas record, b's recompute and the sharded record.
		if err != nil || rep.Replayed != 3 {
			t.Fatalf("Recover with the sharded record: %+v, %v", rep, err)
		}
		assertInstalled(t, c, "pcpm-sharded", "", shardRanks)

		c.computeFn = pcpm.Run
		assertRecomputesAsPCPM(t, c)
	})

	t.Run("follower", func(t *testing.T) {
		dir, _ := legacyDir(t)
		lead := startLeader(t, dir)
		f := New(followerConfig(lead.url))
		forbidEngine(t, f)
		startFollower(t, f)
		waitCaughtUp(t, lead.srv, f)
		assertInstalled(t, f, "componentwise", "componentwise", snapRanks)

		assertRecomputesAsPCPM(t, lead.srv)
		waitCaughtUp(t, lead.srv, f)
		assertConverged(t, lead.srv, f, "g")

		lsn := legacyRecompute(publishedSnap(t, lead.srv, "g").WalLSN, recRanks).appendTo(t, lead.srv.wal.Load())
		waitCaughtUp(t, lead.srv, f)
		assertInstalled(t, f, "bvgas", "bvgas", recRanks)

		shardedRecompute(lsn, shardRanks).appendTo(t, lead.srv.wal.Load())
		waitCaughtUp(t, lead.srv, f)
		assertInstalled(t, f, "pcpm-sharded", "", shardRanks)
		if st := f.ReplStatus(); st.Corruptions != 0 || st.Bootstraps != 1 {
			t.Errorf("legacy state disturbed the follower: %+v", st)
		}
	})
}

// TestRetiredComponentwiseKeyIsRefused: the option key older clients used
// to select the solver is now unknown to both surfaces, like the method,
// compact and branching rows of the bad-option tables in serve_test.go —
// refused by name, before an ingest body is read, rather than dropped.
func TestRetiredComponentwiseKeyIsRefused(t *testing.T) {
	_, ts := newTestServer(t)
	ingest(t, ts, "er", edgeListBody(t, testGraph(t)))
	var e struct {
		Error string `json:"error"`
	}
	url := ts.URL + "/v1/graphs?name=g&componentwise=true"
	if code := doJSON(t, "POST", url, []byte("not a graph"), &e); code != http.StatusBadRequest ||
		!strings.Contains(e.Error, `"componentwise"`) {
		t.Errorf("ingest ?componentwise=true: status %d, error %q; want 400 naming the key", code, e.Error)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/graphs/er/recompute", []byte(`{"componentwise":true}`), &e); code != http.StatusBadRequest ||
		!strings.Contains(e.Error, `"componentwise"`) {
		t.Errorf("recompute {componentwise}: status %d, error %q; want 400 naming the key", code, e.Error)
	}
}

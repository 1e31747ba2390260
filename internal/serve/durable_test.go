package serve

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/delta"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/wal"
)

// durableConfig is the test Config for durability tests: the deterministic
// single-worker options plus a WAL under dir, fsynced on every append.
func durableConfig(dir string) Config {
	return Config{Defaults: testOptions, DataDir: dir}
}

// newDurableServer builds a server and runs recovery, failing the test on
// any error. Cleanup closes the store gracefully unless the test already
// crash-stopped it.
func newDurableServer(t *testing.T, cfg Config) (*Server, *RecoveryReport) {
	t.Helper()
	s := New(cfg)
	rep, err := s.Recover()
	if err != nil {
		t.Fatalf("Recover(%s): %v", cfg.DataDir, err)
	}
	t.Cleanup(func() { s.CloseDurable() })
	return s, rep
}

// crashStop simulates a crash: it closes the log WITHOUT the graceful
// shutdown checkpoint, so the next Recover has to replay the tail.
func crashStop(t *testing.T, s *Server) {
	t.Helper()
	st := s.wal.Load()
	if st == nil {
		t.Fatal("crashStop: durability is off")
	}
	if err := st.Close(); err != nil {
		t.Fatalf("closing wal: %v", err)
	}
	s.wal.Store(nil)
}

// publishedSnap returns name's current published snapshot.
func publishedSnap(t *testing.T, s *Server, name string) *Snapshot {
	t.Helper()
	_, snap, err := s.TopK(name, 1)
	if err != nil {
		t.Fatalf("snapshot of %s: %v", name, err)
	}
	return snap
}

// ranksBitEqual reports whether two rank vectors are byte-identical — the
// double-replay determinism bar, stricter than any epsilon.
func ranksBitEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// mutationStream derives count deterministic, always-valid edge-delta
// batches against g's evolving edge set: every delete targets an edge
// present at that point of the stream, every insert a pair that is not.
func mutationStream(t *testing.T, g *graph.Graph, count int, seed int64) []delta.EdgeDelta {
	t.Helper()
	n := uint32(g.NumNodes())
	present := make(map[[2]uint32]bool)
	var pool [][2]uint32
	for _, e := range g.Edges() {
		k := [2]uint32{e.Src, e.Dst}
		if !present[k] {
			present[k] = true
			pool = append(pool, k)
		}
	}
	r := rand.New(rand.NewSource(seed))
	batches := make([]delta.EdgeDelta, 0, count)
	for range count {
		var d delta.EdgeDelta
		// Deletes only pick edges that predate this batch (graph.Patch
		// applies a source's deletes before its inserts, so deleting an
		// edge inserted by the same batch would be rejected).
		preBatch := len(pool)
		for len(d.Insert) < 3 {
			k := [2]uint32{r.Uint32() % n, r.Uint32() % n}
			if present[k] {
				continue
			}
			present[k] = true
			pool = append(pool, k)
			d.Insert = append(d.Insert, graph.Edge{Src: k[0], Dst: k[1]})
		}
		for len(d.Delete) < 2 {
			k := pool[r.Intn(preBatch)]
			if !present[k] {
				continue
			}
			present[k] = false
			d.Delete = append(d.Delete, graph.Edge{Src: k[0], Dst: k[1]})
		}
		batches = append(batches, d)
	}
	return batches
}

// TestDurableRecoverBasic pins the graceful path: mutate, shut down with a
// checkpoint, restart. Everything comes back from the snapshot, and the
// recovered server keeps logging mutations, so a copy of its dir recovers
// one snapshot and replays the one delta logged after the restart.
func TestDurableRecoverBasic(t *testing.T) {
	runScenario(t, scenario{[]step{
		add("g", testGraph(t)), deltas("g", 3, 1), recompute("g", 0.9), restart(true), deltas("g", 1, 2),
	}, wantRecovered(1, 1, -1)})
}

// TestServeCrashPointSweep truncates the data directory's log at every
// byte boundary of the final record and recovers: every cut must come up
// serving, with exactly the pre-final state (torn tail discarded) until
// the record is whole again.
func TestServeCrashPointSweep(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(t)
	batches := mutationStream(t, g, 4, 5)

	a, _ := newDurableServer(t, durableConfig(dir))
	if _, err := a.AddGraph("g", g, Overrides{}, false); err != nil {
		t.Fatal(err)
	}
	for _, d := range batches[:3] {
		if _, err := a.ApplyEdgeDelta("g", d); err != nil {
			t.Fatal(err)
		}
	}
	before := publishedSnap(t, a, "g")
	if _, err := a.ApplyEdgeDelta("g", batches[3]); err != nil {
		t.Fatal(err)
	}
	after := publishedSnap(t, a, "g")
	crashStop(t, a)

	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one segment, got %v (%v)", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Base(segs[0])
	firstLSN, err := strconv.ParseUint(strings.TrimSuffix(base, ".wal"), 16, 64)
	if err != nil {
		t.Fatalf("segment name %q: %v", base, err)
	}
	var finalStart int64
	res, err := wal.Scan(bytes.NewReader(data), int64(len(data)), firstLSN, func(rec *wal.Record) error {
		finalStart = rec.Offset
		return nil
	})
	if err != nil || res.Torn || res.Records != 5 {
		t.Fatalf("scanning healthy log: res=%+v err=%v", res, err)
	}

	for cut := finalStart; cut <= int64(len(data)); cut++ {
		cutDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cutDir, base), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s := New(durableConfig(cutDir))
		if _, err := s.Recover(); err != nil {
			t.Fatalf("cut at byte %d: recovery failed: %v", cut, err)
		}
		want := before
		if cut == int64(len(data)) {
			want = after
		}
		got := publishedSnap(t, s, "g")
		if !ranksBitEqual(want.Ranks, got.Ranks) || got.Version != want.Version {
			t.Fatalf("cut at byte %d: recovered version %d, want %d with identical ranks",
				cut, got.Version, want.Version)
		}
		crashStop(t, s)
	}
}

// TestReplayedDriftForcesRecompute is the regression test for drift
// tracking through recovery: a budget sized between the largest single
// repair residual and the stream's cumulative residual must force the same
// full recomputes during replay that it forced live — without the drift
// re-accumulation, replay would serve unbudgeted repaired ranks.
func TestReplayedDriftForcesRecompute(t *testing.T) {
	g := testGraph(t)
	stream := mutationStream(t, g, 30, 41)
	// A probe run (durability off, default budget) measures the residuals.
	probe := New(Config{Defaults: testOptions})
	if _, err := probe.AddGraph("g", g, Overrides{}, false); err != nil {
		t.Fatal(err)
	}
	var total, largest float64
	for i, d := range stream {
		st, err := probe.ApplyEdgeDelta("g", d)
		if err != nil || st.Mode != "incremental" {
			t.Fatalf("probe delta %d: %+v, %v; the stream must repair incrementally", i, st, err)
		}
		total, largest = total+st.ResidualL1, max(largest, st.ResidualL1)
	}
	budget := largest * 1.5
	if budget >= total {
		t.Fatalf("stream too short to trip the budget: largest residual %.3g, total %.3g", largest, total)
	}
	next, live := 0, 0
	runScenario(t, scenario{[]step{
		add("g", g),
		{name: "set the drift budget", do: func(t *testing.T, c *cluster) {
			c.lead.srv.repairDrift, c.twin.repairDrift = budget, budget
		}},
		{name: "delta under the drift budget", times: len(stream), do: func(t *testing.T, c *cluster) {
			st, err := c.lead.srv.ApplyEdgeDelta("g", stream[next])
			if err != nil {
				t.Fatal(err)
			}
			if st.Mode == "recompute" {
				if !strings.Contains(st.Reason, "drift") {
					t.Fatalf("delta %d fell back for %q, not drift", next, st.Reason)
				}
				live++
			}
			if _, err := c.twin.ApplyEdgeDelta("g", stream[next]); err != nil {
				t.Fatal(err)
			}
			next++
		}},
	}, func(t *testing.T, c *cluster) {
		if live == 0 || c.recovered.DriftRecomputes != live {
			t.Errorf("replay forced %d drift recomputes, live forced %d (want equal, and some)",
				c.recovered.DriftRecomputes, live)
		}
	}})
}

// TestCheckpointCoversPrefixAndPrunes: a mid-stream checkpoint must leave
// recovery loading the snapshot and replaying only the post-checkpoint tail.
func TestCheckpointCoversPrefixAndPrunes(t *testing.T) {
	runScenario(t, scenario{[]step{
		add("g", testGraph(t)), deltas("g", 5, 29), checkpoint(), deltas("g", 5, 31),
	}, wantRecovered(1, 5, -1)})
}

// TestRecoverReplaysRemoveAndReplace: removals and replace re-uploads in
// the log tail must land the recovered registry on the live end state —
// the replaced graph's new structure, the removed graph gone.
func TestRecoverReplaysRemoveAndReplace(t *testing.T) {
	g1, g2 := testGraph(t), smallGraph(t)
	runScenario(t, scenario{[]step{
		add("keep", g1), add("drop", g2), deltas("keep", 1, 7), remove("drop"),
		replace("keep", g2), deltas("keep", 1, 9),
	}, nil})
}

// TestRecoverSkipsCoveredRemove: a remove and a re-add of g that g's
// checkpointed snapshot covers stay in the retained log while an older
// graph's snapshot holds the prune back. Recovery must pass over both, as
// over every record below a snapshot's position. Skipped: both adds of g,
// the remove, hold's add and the marker.
func TestRecoverSkipsCoveredRemove(t *testing.T) {
	g1, g2 := testGraph(t), smallGraph(t)
	runScenario(t, scenario{[]step{
		add("hold", g1), add("g", g1), remove("g"), add("g", g2), checkpoint(),
	}, wantRecovered(2, 0, 5)})
}

// TestFailedAppendConsumesNoVersion: a run whose log append fails is never
// published, so it must not consume a version either. Otherwise the live
// daemon runs ahead of every copy rebuilt from its log, and a client's
// freshness cursor goes backwards across a restart or a failover.
func TestFailedAppendConsumesNoVersion(t *testing.T) {
	g := testGraph(t)
	d := mutationStream(t, g, 1, 41)[0]
	for name, w := range map[string]step{
		"recompute":         recompute("g", 0),
		"incremental delta": edit("g", d, "incremental"),
	} {
		t.Run(name, func(t *testing.T) {
			runScenario(t, scenario{[]step{add("g", g), recompute("g", 0), failAppend(w), w}, nil})
		})
	}
}

// TestShipRanksCrossover holds shipRanks, which sizes the residual from the
// changed count before it builds one, to the rule it ships by: the residual
// exactly when it is strictly smaller than the full vector and
// reconstructible, the full vector otherwise, byte for byte. At n = 1000
// the residual (4 + 12·k bytes) is smaller below k = 333 changed entries.
func TestShipRanksCrossover(t *testing.T) {
	const n = 1000
	prev := make([]float32, n)
	for i := range prev {
		prev[i] = float32(i+1) / n
	}
	edit := func(k int) []float32 {
		next := append([]float32(nil), prev...)
		for i := 0; i < k; i++ {
			next[i*n/max(k, 1)] *= 1.5
		}
		return next
	}
	negZero := append([]float32(nil), prev...)
	negZero[7] = float32(math.Copysign(0, -1)) // no float addition reaches −0
	cases := map[string]struct {
		next []float32
		enc  string
	}{
		"unchanged":       {edit(0), ranksEncResidual},
		"one":             {edit(1), ranksEncResidual},
		"just below":      {edit(332), ranksEncResidual},
		"at the crossing": {edit(333), ranksEncFull},
		"just above":      {edit(334), ranksEncFull},
		"all":             {edit(n), ranksEncFull},
		"unencodable":     {negZero, ranksEncFull},
	}
	for name, c := range cases {
		enc, blob := shipRanks(prev, c.next)
		if enc != c.enc {
			t.Errorf("%s: shipped %s, want %s", name, enc, c.enc)
			continue
		}
		want := encodeRanks(c.next)
		if enc == ranksEncResidual {
			want, _ = delta.EncodeResidual(prev, c.next)
		}
		if !bytes.Equal(blob, want) {
			t.Errorf("%s: %s record differs from its encoder's bytes", name, enc)
		}
	}
}

// BenchmarkSnapshotBlob encodes and decodes the snapshot blob a logged
// ingest and a bootstrap frame carry, for the 300-node test graph and a
// 2^17-node preferential-attachment graph; allocation should follow the
// blob's size.
func BenchmarkSnapshotBlob(b *testing.B) {
	small, err := gen.ErdosRenyi(300, 2400, 7, graph.BuildOptions{Dedup: true}) // testGraph
	if err != nil {
		b.Fatal(err)
	}
	big, err := gen.PreferentialAttachment(1<<17, 8, 42, graph.BuildOptions{Dedup: true, DropSelfLoops: true})
	if err != nil {
		b.Fatal(err)
	}
	for _, g := range []*graph.Graph{small, big} {
		snap := &Snapshot{Graph: g, Ranks: make([]float32, g.NumNodes()), Options: testOptions, Version: 3, WalLSN: 7}
		for i := range snap.Ranks {
			snap.Ranks[i] = float32(i+1) / float32(g.NumNodes())
		}
		blob, err := snapshotBlob("g", snap)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("encode/n=%d", g.NumNodes()), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(blob)))
			for b.Loop() {
				if _, err := snapshotBlob("g", snap); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("decode/n=%d", g.NumNodes()), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(blob)))
			for b.Loop() {
				if _, _, err := decodeSnapshotBlob(blob, "g"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package serve

import (
	"bytes"
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

func l1Diff(t *testing.T, a, b []float32) float64 {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("rank vectors differ in length: %d vs %d", len(a), len(b))
	}
	var sum float64
	for i := range a {
		sum += math.Abs(float64(a[i]) - float64(b[i]))
	}
	return sum
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
// checkpoint, restart — everything comes back from snapshots with an empty
// log tail, and the recovered server keeps accepting durable mutations.
func TestDurableRecoverBasic(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(t)
	batches := mutationStream(t, g, 3, 1)

	a, _ := newDurableServer(t, durableConfig(dir))
	if _, err := a.AddGraph("g", g, Overrides{}, false); err != nil {
		t.Fatal(err)
	}
	for i, d := range batches {
		if _, err := a.ApplyEdgeDelta("g", d); err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
	}
	damping := 0.9
	if _, err := a.Recompute("g", Overrides{Damping: &damping}, true); err != nil {
		t.Fatalf("recompute: %v", err)
	}
	want := publishedSnap(t, a, "g")
	if err := a.CloseDurable(); err != nil {
		t.Fatalf("graceful close: %v", err)
	}

	b, rep := newDurableServer(t, durableConfig(dir))
	if rep.Snapshots != 1 || rep.Replayed != 0 {
		t.Errorf("after graceful shutdown: %d snapshots, %d replayed; want 1 and 0", rep.Snapshots, rep.Replayed)
	}
	got := publishedSnap(t, b, "g")
	if !ranksBitEqual(want.Ranks, got.Ranks) {
		t.Error("recovered ranks differ from the pre-shutdown snapshot")
	}
	if got.Version != want.Version || got.Options.Damping != 0.9 {
		t.Errorf("recovered snapshot version=%d damping=%v, want version=%d damping=0.9",
			got.Version, got.Options.Damping, want.Version)
	}
	// Versions continue, and the recovered server logs further mutations.
	st, err := b.ApplyEdgeDelta("g", mutationStream(t, got.Graph, 1, 2)[0])
	if err != nil {
		t.Fatalf("post-recovery delta: %v", err)
	}
	if st.Version != want.Version+1 {
		t.Errorf("post-recovery version = %d, want %d", st.Version, want.Version+1)
	}
	if publishedSnap(t, b, "g").WalLSN == got.WalLSN {
		t.Error("post-recovery delta did not append to the log")
	}
}

// TestGoldenRecoveryAllFamilies is the golden restart test: on every
// generator family, ingest plus 50 mutation batches, crash, recover — the
// recovered ranks must sit within 1e-6 L1 of a daemon that never
// restarted, and replaying the same log twice must be byte-identical.
func TestGoldenRecoveryAllFamilies(t *testing.T) {
	dedup := graph.BuildOptions{Dedup: true, DropSelfLoops: true}
	families := []struct {
		name  string
		build func() (*graph.Graph, error)
	}{
		{"erdos-renyi", func() (*graph.Graph, error) {
			return gen.ErdosRenyi(400, 3200, 11, dedup)
		}},
		{"rmat", func() (*graph.Graph, error) {
			return gen.RMAT(gen.Graph500RMAT(8, 8, 13), dedup)
		}},
		{"pref-attach", func() (*graph.Graph, error) {
			return gen.PreferentialAttachment(400, 6, 17, dedup)
		}},
		{"copying", func() (*graph.Graph, error) {
			return gen.Copying(gen.CopyingConfig{
				N: 400, OutDegree: 6, CopyProb: 0.5, Locality: 0.5, Seed: 19,
			}, dedup)
		}},
		{"dag-communities", func() (*graph.Graph, error) {
			return gen.DAGCommunities(gen.DAGCommunitiesConfig{
				Clusters: 8, ClusterSize: 50, IntraDegree: 4, BridgeDegree: 6, Seed: 23,
			}, dedup)
		}},
	}
	for _, f := range families {
		t.Run(f.name, func(t *testing.T) {
			g, err := f.build()
			if err != nil {
				t.Fatalf("generating: %v", err)
			}
			batches := mutationStream(t, g, 50, 97)

			// The never-restarted daemon, durability off.
			live := New(Config{Defaults: testOptions})
			if _, err := live.AddGraph("g", g, Overrides{}, false); err != nil {
				t.Fatal(err)
			}
			for i, d := range batches {
				if _, err := live.ApplyEdgeDelta("g", d); err != nil {
					t.Fatalf("live delta %d: %v", i, err)
				}
			}
			want := publishedSnap(t, live, "g")

			// The durable daemon follows the same trajectory, then crashes.
			dir := t.TempDir()
			a, _ := newDurableServer(t, durableConfig(dir))
			if _, err := a.AddGraph("g", g, Overrides{}, false); err != nil {
				t.Fatal(err)
			}
			for i, d := range batches {
				if _, err := a.ApplyEdgeDelta("g", d); err != nil {
					t.Fatalf("durable delta %d: %v", i, err)
				}
			}
			crashStop(t, a)

			b, rep := newDurableServer(t, durableConfig(dir))
			if rep.Replayed != len(batches)+1 {
				t.Errorf("replayed %d records, want %d", rep.Replayed, len(batches)+1)
			}
			got := publishedSnap(t, b, "g")
			if l1 := l1Diff(t, want.Ranks, got.Ranks); l1 > 1e-6 {
				t.Errorf("recovered ranks drift %.3g L1 from the never-restarted daemon (budget 1e-6)", l1)
			}
			if got.Version != want.Version {
				t.Errorf("recovered version %d, want %d", got.Version, want.Version)
			}
			crashStop(t, b)

			// Double replay: byte-identical rank snapshot, same positions.
			c, _ := newDurableServer(t, durableConfig(dir))
			again := publishedSnap(t, c, "g")
			if !ranksBitEqual(got.Ranks, again.Ranks) {
				t.Error("double replay is not byte-identical")
			}
			if again.Version != got.Version || again.WalLSN != got.WalLSN {
				t.Errorf("double replay moved: version %d→%d, lsn %d→%d",
					got.Version, again.Version, got.WalLSN, again.WalLSN)
			}
		})
	}
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
// repair residual and the stream's cumulative residual must force the
// same full recomputes during replay that it forced live — without the
// drift re-accumulation, replay would serve unbudgeted repaired ranks.
func TestReplayedDriftForcesRecompute(t *testing.T) {
	g := testGraph(t)
	batches := mutationStream(t, g, 30, 41)

	// Probe run (durability off, default budget) measures the residuals.
	probe := New(Config{Defaults: testOptions})
	if _, err := probe.AddGraph("g", g, Overrides{}, false); err != nil {
		t.Fatal(err)
	}
	var total, maxSingle float64
	for i, d := range batches {
		st, err := probe.ApplyEdgeDelta("g", d)
		if err != nil {
			t.Fatalf("probe delta %d: %v", i, err)
		}
		if st.Mode != "incremental" {
			t.Fatalf("probe delta %d fell back (%s); the stream must repair incrementally", i, st.Reason)
		}
		total += st.ResidualL1
		maxSingle = math.Max(maxSingle, st.ResidualL1)
	}
	budget := maxSingle * 1.5
	if budget >= total {
		t.Fatalf("stream too short to trip the budget: max residual %.3g, total %.3g", maxSingle, total)
	}

	dir := t.TempDir()
	cfg := durableConfig(dir)
	a, _ := newDurableServer(t, cfg)
	a.repairDrift = budget
	if _, err := a.AddGraph("g", g, Overrides{}, false); err != nil {
		t.Fatal(err)
	}
	liveRecomputes := 0
	for i, d := range batches {
		st, err := a.ApplyEdgeDelta("g", d)
		if err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		if st.Mode == "recompute" {
			if !strings.Contains(st.Reason, "drift") {
				t.Fatalf("delta %d fell back for %q, not drift", i, st.Reason)
			}
			liveRecomputes++
		}
	}
	if liveRecomputes == 0 {
		t.Fatal("budget never tripped live; the test has no teeth")
	}
	want := publishedSnap(t, a, "g")
	crashStop(t, a)

	b, rep := newDurableServer(t, cfg)
	if rep.DriftRecomputes != liveRecomputes {
		t.Errorf("replay forced %d drift recomputes, live forced %d", rep.DriftRecomputes, liveRecomputes)
	}
	got := publishedSnap(t, b, "g")
	if !ranksBitEqual(want.Ranks, got.Ranks) {
		t.Error("recovered ranks differ from the live daemon's")
	}
	if got.RepairDrift != want.RepairDrift {
		t.Errorf("recovered drift %.3g, live drift %.3g", got.RepairDrift, want.RepairDrift)
	}
}

// TestCheckpointCoversPrefixAndPrunes: a mid-stream checkpoint must leave
// recovery loading the snapshot and replaying only the post-checkpoint
// tail, with the pre-checkpoint segments pruned from disk.
func TestCheckpointCoversPrefixAndPrunes(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(t)
	batches := mutationStream(t, g, 10, 29)

	a, _ := newDurableServer(t, durableConfig(dir))
	if _, err := a.AddGraph("g", g, Overrides{}, false); err != nil {
		t.Fatal(err)
	}
	for _, d := range batches[:5] {
		if _, err := a.ApplyEdgeDelta("g", d); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	for _, d := range batches[5:] {
		if _, err := a.ApplyEdgeDelta("g", d); err != nil {
			t.Fatal(err)
		}
	}
	want := publishedSnap(t, a, "g")
	crashStop(t, a)

	b, rep := newDurableServer(t, durableConfig(dir))
	if rep.Snapshots != 1 {
		t.Errorf("loaded %d snapshots, want 1", rep.Snapshots)
	}
	if rep.Replayed != 5 {
		t.Errorf("replayed %d records, want the 5 post-checkpoint deltas", rep.Replayed)
	}
	got := publishedSnap(t, b, "g")
	if !ranksBitEqual(want.Ranks, got.Ranks) || got.Version != want.Version {
		t.Errorf("recovered version %d, want %d with identical ranks", got.Version, want.Version)
	}
}

// TestRecoverReplaysRemoveAndReplace: removals and replace re-uploads in
// the log tail must land the recovered registry on the live end state —
// the replaced graph's new structure, the removed graph gone.
func TestRecoverReplaysRemoveAndReplace(t *testing.T) {
	dir := t.TempDir()
	g1 := testGraph(t)
	g2, err := gen.ErdosRenyi(200, 1600, 3, graph.BuildOptions{Dedup: true})
	if err != nil {
		t.Fatal(err)
	}

	a, _ := newDurableServer(t, durableConfig(dir))
	if _, err := a.AddGraph("keep", g1, Overrides{}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := a.AddGraph("drop", g2, Overrides{}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ApplyEdgeDelta("keep", mutationStream(t, g1, 1, 7)[0]); err != nil {
		t.Fatal(err)
	}
	if err := a.Remove("drop"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.AddGraph("keep", g2, Overrides{}, true); err != nil {
		t.Fatalf("replace: %v", err)
	}
	if _, err := a.ApplyEdgeDelta("keep", mutationStream(t, g2, 1, 9)[0]); err != nil {
		t.Fatal(err)
	}
	want := publishedSnap(t, a, "keep")
	crashStop(t, a)

	b, rep := newDurableServer(t, durableConfig(dir))
	if b.NumGraphs() != 1 {
		t.Fatalf("recovered %d graphs, want just \"keep\"", b.NumGraphs())
	}
	if _, err := b.Info("drop"); err == nil {
		t.Error("removed graph came back")
	}
	got := publishedSnap(t, b, "keep")
	if !ranksBitEqual(want.Ranks, got.Ranks) || got.Version != want.Version {
		t.Errorf("recovered version %d, want %d with identical ranks", got.Version, want.Version)
	}
	if rep.Replayed == 0 {
		t.Error("nothing replayed")
	}
}

// TestRecoverSkipsCoveredRemove: a remove and a re-add of g that g's
// checkpointed snapshot covers stay in the retained log while an older
// graph's snapshot holds the prune back. Recovery must pass over both, as
// over every record below a snapshot's position, and land on the live
// registry.
func TestRecoverSkipsCoveredRemove(t *testing.T) {
	dir := t.TempDir()
	g1 := testGraph(t)
	g2, err := gen.ErdosRenyi(200, 1600, 3, graph.BuildOptions{Dedup: true})
	if err != nil {
		t.Fatal(err)
	}

	a, _ := newDurableServer(t, durableConfig(dir))
	for i, step := range []func() error{
		func() error { _, err := a.AddGraph("hold", g1, Overrides{}, false); return err },
		func() error { _, err := a.AddGraph("g", g1, Overrides{}, false); return err },
		func() error { return a.Remove("g") },
		func() error { _, err := a.AddGraph("g", g2, Overrides{}, false); return err },
		a.Checkpoint,
	} {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	crashStop(t, a)

	b, rep := newDurableServer(t, durableConfig(dir))
	// Skipped: both adds of g, the remove, hold's add and the marker.
	if rep.Snapshots != 2 || rep.Replayed != 0 || rep.Skipped != 5 {
		t.Errorf("recovery loaded %d snapshots, replayed %d, skipped %d; want 2, 0, 5",
			rep.Snapshots, rep.Replayed, rep.Skipped)
	}
	if got, want := strings.Join(b.Names(), ","), strings.Join(a.Names(), ","); got != want {
		t.Fatalf("recovered graphs %q, live %q", got, want)
	}
	for _, name := range a.Names() {
		want, got := publishedSnap(t, a, name), publishedSnap(t, b, name)
		if !ranksBitEqual(want.Ranks, got.Ranks) || got.Version != want.Version || got.WalLSN != want.WalLSN {
			t.Errorf("%s: recovered version %d at LSN %d, live version %d at LSN %d (ranks equal: %v)",
				name, got.Version, got.WalLSN, want.Version, want.WalLSN, ranksBitEqual(want.Ranks, got.Ranks))
		}
	}
}

// TestFailedAppendConsumesNoVersion: a run whose log append fails is never
// published, so it must not consume a version either. Otherwise the live
// daemon runs ahead of every copy rebuilt from its log, and a client's
// freshness cursor goes backwards across a restart or a failover.
func TestFailedAppendConsumesNoVersion(t *testing.T) {
	g := testGraph(t)
	d := mutationStream(t, g, 1, 41)[0]
	for _, row := range []struct {
		name string
		op   func(t *testing.T, s *Server) error
	}{
		{"recompute", func(t *testing.T, s *Server) error {
			_, err := s.Recompute("g", Overrides{}, true)
			return err
		}},
		{"incremental delta", func(t *testing.T, s *Server) error {
			st, err := s.ApplyEdgeDelta("g", d)
			if err == nil && st.Mode != "incremental" {
				t.Fatalf("delta took the %s path, want incremental", st.Mode)
			}
			return err
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			dir := t.TempDir()
			lead := startLeader(t, dir)
			f := New(followerConfig(lead.url))
			startFollower(t, f)
			if _, err := lead.srv.AddGraph("g", g, Overrides{}, false); err != nil {
				t.Fatal(err)
			}
			if _, err := lead.srv.Recompute("g", Overrides{}, true); err != nil {
				t.Fatal(err)
			}
			// Close the store under the server so the next append fails, then
			// reopen the directory and run the operation again.
			if err := lead.srv.wal.Load().Close(); err != nil {
				t.Fatal(err)
			}
			if err := row.op(t, lead.srv); err == nil {
				t.Fatal("operation succeeded with a closed store")
			}
			st, err := wal.Open(dir, wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			lead.srv.wal.Store(st)
			if err := row.op(t, lead.srv); err != nil {
				t.Fatal(err)
			}

			waitCaughtUp(t, lead.srv, f)
			versions := make([]uint64, 0, 3)
			for _, s := range []*Server{lead.srv, recoverCopy(t, dir), f} {
				info, err := s.Info("g")
				if err != nil {
					t.Fatal(err)
				}
				versions = append(versions, info.Version)
			}
			if versions[0] != 3 || versions[1] != 3 || versions[2] != 3 {
				t.Errorf("versions live %d, recovered %d, follower %d; want 3 everywhere",
					versions[0], versions[1], versions[2])
			}
		})
	}
}

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/delta"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/repl"
	"repro/internal/wal"
)

// Promotion and residual-shipping verification. The failover bar is the
// same determinism bar the replication tests set: a promoted follower that
// keeps serving the write stream must land bit-equal (at Workers:1) to a
// leader that never failed at all.

// promoteFamilies are the generator families the promotion golden runs on
// (the same five shapes as the convergence golden, fresh seeds).
func promoteFamilies() []struct {
	name  string
	build func() (*graph.Graph, error)
} {
	dedup := graph.BuildOptions{Dedup: true, DropSelfLoops: true}
	return []struct {
		name  string
		build func() (*graph.Graph, error)
	}{
		{"erdos-renyi", func() (*graph.Graph, error) {
			return gen.ErdosRenyi(400, 3200, 101, dedup)
		}},
		{"rmat", func() (*graph.Graph, error) {
			return gen.RMAT(gen.Graph500RMAT(8, 8, 103), dedup)
		}},
		{"pref-attach", func() (*graph.Graph, error) {
			return gen.PreferentialAttachment(400, 6, 107, dedup)
		}},
		{"copying", func() (*graph.Graph, error) {
			return gen.Copying(gen.CopyingConfig{
				N: 400, OutDegree: 6, CopyProb: 0.5, Locality: 0.5, Seed: 109,
			}, dedup)
		}},
		{"dag-communities", func() (*graph.Graph, error) {
			return gen.DAGCommunities(gen.DAGCommunitiesConfig{
				Clusters: 8, ClusterSize: 50, IntraDegree: 4, BridgeDegree: 6, Seed: 113,
			}, dedup)
		}},
	}
}

// killLeader simulates the leader's process death: the URL keeps answering
// (connection refused would look the same to the client: a transport-class
// failure) while the WAL goes away without a shutdown checkpoint.
func killLeader(t *testing.T, lead *leaderHarness) {
	t.Helper()
	lead.swap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "leader down", http.StatusBadGateway)
	}))
	crashStop(t, lead.srv)
}

// edgesJSON marshals a delta into the edges endpoint's request body.
func edgesJSON(t *testing.T, d delta.EdgeDelta) []byte {
	t.Helper()
	var body struct {
		Insert [][]uint32 `json:"insert,omitempty"`
		Delete [][]uint32 `json:"delete,omitempty"`
	}
	for _, e := range d.Insert {
		body.Insert = append(body.Insert, []uint32{e.Src, e.Dst})
	}
	for _, e := range d.Delete {
		body.Delete = append(body.Delete, []uint32{e.Src, e.Dst})
	}
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestPromotionGoldenAllFamilies is the failover golden: on every generator
// family, a leader that dies mid-stream and hands the rest of the write
// stream to a promoted follower must produce final ranks bit-equal (at
// Workers:1) to one never-failed server that applied the whole stream.
func TestPromotionGoldenAllFamilies(t *testing.T) {
	for _, fam := range promoteFamilies() {
		t.Run(fam.name, func(t *testing.T) {
			g, err := fam.build()
			if err != nil {
				t.Fatalf("generating: %v", err)
			}
			batches := mutationStream(t, g, 20, 151)

			// Reference: one server, no failure, the whole stream.
			ref := New(Config{Defaults: testOptions})
			if _, err := ref.AddGraph("g", g, Overrides{}, false); err != nil {
				t.Fatal(err)
			}
			for i, d := range batches {
				if _, err := ref.ApplyEdgeDelta("g", d); err != nil {
					t.Fatalf("reference delta %d: %v", i, err)
				}
			}
			want := publishedSnap(t, ref, "g")

			// Scenario: leader takes the first half, dies; the promoted
			// follower takes the second half.
			lead := startLeader(t, t.TempDir())
			if _, err := lead.srv.AddGraph("g", g, Overrides{}, false); err != nil {
				t.Fatal(err)
			}
			for i, d := range batches[:10] {
				if _, err := lead.srv.ApplyEdgeDelta("g", d); err != nil {
					t.Fatalf("leader delta %d: %v", i, err)
				}
			}

			fcfg := followerConfig(lead.url)
			fcfg.DataDir = t.TempDir()
			f, _ := newDurableServer(t, fcfg) // Recover leaves the dir dormant
			startFollower(t, f)
			waitCaughtUp(t, lead.srv, f)
			killLeader(t, lead)

			rep, err := f.Promote()
			if err != nil {
				t.Fatalf("Promote: %v", err)
			}
			if !rep.Promoted || rep.Role != "leader" {
				t.Fatalf("promote report %+v, want a fresh leader", rep)
			}
			for i, d := range batches[10:] {
				if _, err := f.ApplyEdgeDelta("g", d); err != nil {
					t.Fatalf("post-promotion delta %d: %v", i, err)
				}
			}

			got := publishedSnap(t, f, "g")
			if l1 := l1Diff(t, want.Ranks, got.Ranks); l1 > 1e-6 {
				t.Errorf("promoted lineage drifts %.3g L1 from the never-failed one (budget 1e-6)", l1)
			}
			if !ranksBitEqual(want.Ranks, got.Ranks) {
				t.Errorf("promoted lineage not bit-equal to the never-failed one at Workers:1")
			}
			if got.RepairDrift != want.RepairDrift {
				t.Errorf("drift accounting diverged across failover: %g vs %g",
					got.RepairDrift, want.RepairDrift)
			}
		})
	}
}

// TestPromotionChaos is the full failover story over HTTP: the leader dies
// mid-stream, one follower is promoted and takes writes, the surviving
// follower (whose cursor predates the promotion cut) re-aims and must
// re-bootstrap through the 410 path, and the dead leader's host rejoins as
// a follower of the new leader — refusing promotion into its stale dir.
func TestPromotionChaos(t *testing.T) {
	g := testGraph(t)
	dirA := t.TempDir()
	lead := startLeader(t, dirA)
	if _, err := lead.srv.AddGraph("g", g, Overrides{}, false); err != nil {
		t.Fatal(err)
	}
	batches := mutationStream(t, g, 18, 163)
	for _, d := range batches[:6] {
		if _, err := lead.srv.ApplyEdgeDelta("g", d); err != nil {
			t.Fatal(err)
		}
	}

	f1cfg := followerConfig(lead.url)
	f1cfg.DataDir = t.TempDir()
	f1, _ := newDurableServer(t, f1cfg)
	startFollower(t, f1)

	f2 := New(followerConfig(lead.url))
	gate := make(chan struct{})
	parked := make(chan struct{})
	var gated atomic.Bool
	var parkedOnce sync.Once
	f2.follower.pollGate = func() {
		if gated.Load() {
			parkedOnce.Do(func() { close(parked) })
			<-gate
		}
	}
	startFollower(t, f2)
	waitCaughtUp(t, lead.srv, f1)
	waitCaughtUp(t, lead.srv, f2)

	// Park f2 BEFORE the next writes so its cursor predates the promotion
	// cut (parking after an in-flight poll streamed them would let it skip
	// the re-bootstrap this test is about).
	gated.Store(true)
	<-parked
	for _, d := range batches[6:12] {
		if _, err := lead.srv.ApplyEdgeDelta("g", d); err != nil {
			t.Fatal(err)
		}
	}
	waitCaughtUp(t, lead.srv, f1)
	cutCursor := f2.ReplStatus().AppliedLSN
	killLeader(t, lead)

	// Promote f1 over HTTP and keep writing — to the same mux that was
	// answering 503 a moment ago.
	f1srv := httptest.NewServer(f1.Handler())
	defer f1srv.Close()
	resp, err := http.Post(f1srv.URL+"/v1/repl/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rep PromoteReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !rep.Promoted {
		t.Fatalf("promote: status %d report %+v, want 200 + promoted", resp.StatusCode, rep)
	}
	if rep.CutLSN <= cutCursor {
		t.Fatalf("promotion cut %d does not outrun the parked follower's cursor %d; test proves nothing",
			rep.CutLSN, cutCursor)
	}
	for i, d := range batches[12:] {
		resp, err := http.Post(f1srv.URL+"/v1/graphs/g/edges", "application/json",
			bytes.NewReader(edgesJSON(t, d)))
		if err != nil {
			t.Fatalf("write %d to new leader: %v", i, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("write %d to new leader: status %d, want 200", i, resp.StatusCode)
		}
	}

	// Re-aim the survivor. Its parked cursor is below the new leader's
	// oldest LSN, so catching up MUST go through 410 → re-bootstrap.
	f2srv := httptest.NewServer(f2.Handler())
	defer f2srv.Close()
	resp, err = http.Post(f2srv.URL+"/v1/repl/reaim", "application/json",
		bytes.NewReader([]byte(fmt.Sprintf(`{"leader":%q}`, f1srv.URL))))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reaim: status %d, want 200", resp.StatusCode)
	}
	gated.Store(false)
	close(gate)
	waitCaughtUp(t, f1, f2)
	assertConverged(t, f1, f2, "g")
	if st := f2.ReplStatus(); st.Bootstraps < 2 {
		t.Errorf("survivor caught up with %d bootstraps, want >= 2 (cursor below the cut must re-bootstrap)",
			st.Bootstraps)
	} else if st.Reaims != 1 {
		t.Errorf("survivor reports %d re-aims, want 1", st.Reaims)
	}

	// The dead leader's host rejoins as a follower of the new leader. Its
	// stale data dir stays dormant — and is exactly why promoting IT must
	// now be refused.
	obCfg := durableConfig(dirA)
	obCfg.FollowAddr = f1srv.URL
	obCfg.FollowPollWait = 100 * time.Millisecond
	ob, _ := newDurableServer(t, obCfg)
	startFollower(t, ob)
	waitCaughtUp(t, f1, ob)
	assertConverged(t, f1, ob, "g")
	if _, err := ob.Promote(); !errors.Is(err, ErrNotPromotable) {
		t.Errorf("promotion into a stale data dir: err = %v, want ErrNotPromotable", err)
	}

	if st := f1.ReplStatus(); st.Role != "leader" || !st.Promoted {
		t.Errorf("new leader status %+v, want a promoted leader", st)
	}
}

// TestPromoteGuards pins the promotion preconditions and idempotency.
func TestPromoteGuards(t *testing.T) {
	// A standalone server has no leader to take over from.
	if _, err := New(Config{Defaults: testOptions}).Promote(); !errors.Is(err, ErrNotPromotable) {
		t.Errorf("standalone promote: err = %v, want ErrNotPromotable", err)
	}

	// A follower without a data dir has nothing to adopt.
	if _, err := New(followerConfig("http://127.0.0.1:1")).Promote(); !errors.Is(err, ErrNotPromotable) {
		t.Errorf("dirless promote: err = %v, want ErrNotPromotable", err)
	}

	// Re-aim is a follower-only verb and validates its address.
	lead := startLeader(t, t.TempDir())
	if err := lead.srv.Reaim("http://127.0.0.1:1"); !errors.Is(err, ErrNotPromotable) {
		t.Errorf("re-aiming a leader: err = %v, want ErrNotPromotable", err)
	}
	f := New(followerConfig(lead.url))
	if err := f.Reaim("not a url"); err == nil {
		t.Error("re-aim accepted a garbage leader address")
	}

	// Promoting twice: the second call observes a leader, does nothing.
	fcfg := followerConfig(lead.url)
	fcfg.DataDir = t.TempDir()
	fp, _ := newDurableServer(t, fcfg)
	startFollower(t, fp)
	waitCaughtUp(t, lead.srv, fp)
	rep1, err := fp.Promote()
	if err != nil || !rep1.Promoted {
		t.Fatalf("first promote: %+v, %v", rep1, err)
	}
	rep2, err := fp.Promote()
	if err != nil {
		t.Fatalf("second promote: %v", err)
	}
	if rep2.Promoted || rep2.Role != "leader" {
		t.Errorf("second promote report %+v, want an idempotent already-leader answer", rep2)
	}
}

// TestLeaderOnlyGateFlip verifies the write gate is read per request, not
// baked into the handler chain: concurrent writers hammer one mux while the
// role flips follower → leader, and every request issued after the flip
// must pass the gate.
func TestLeaderOnlyGateFlip(t *testing.T) {
	s := New(followerConfig("http://127.0.0.1:1"))
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	var flipped atomic.Bool
	var saw503, sawPost atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				after := flipped.Load()
				resp, err := http.Post(hs.URL+"/v1/graphs/g/edges", "application/json",
					bytes.NewReader([]byte(`{"insert":[[0,1]]}`)))
				if err != nil {
					t.Errorf("write: %v", err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode == http.StatusServiceUnavailable {
					saw503.Add(1)
					if after {
						t.Error("request issued after the role flip still hit the follower gate")
						return
					}
				} else {
					sawPost.Add(1)
				}
			}
		}()
	}
	time.Sleep(30 * time.Millisecond)
	s.gateFollower.Store(false) // what Promote does, minus the WAL adoption
	flipped.Store(true)
	time.Sleep(30 * time.Millisecond)
	close(stop)
	wg.Wait()

	if saw503.Load() == 0 {
		t.Error("no request observed the follower gate; the flip raced the start")
	}
	if sawPost.Load() == 0 {
		t.Error("no request passed the gate after the flip")
	}
}

// TestFollowerBootstrapAtomicSwap is the satellite-1 regression: a bootstrap
// that fails mid-stream — after decodable frames already arrived — must not
// leave a partially re-installed registry behind. The staged swap publishes
// all or nothing.
func TestFollowerBootstrapAtomicSwap(t *testing.T) {
	lead := startLeader(t, t.TempDir())
	for _, name := range []string{"a", "b"} {
		if _, err := lead.srv.AddGraph(name, testGraph(t), Overrides{}, false); err != nil {
			t.Fatal(err)
		}
	}

	f := New(followerConfig(lead.url))
	if _, err := f.followBootstrap(context.Background()); err != nil {
		t.Fatalf("clean bootstrap: %v", err)
	}
	snapA := publishedSnap(t, f, "a")
	snapB := publishedSnap(t, f, "b")

	// A poisoned leader: graph "a" streams a perfectly valid record, graph
	// "b" a frame whose CRC is fine but whose blob is garbage — the failure
	// lands mid-install, after "a" already decoded.
	blobA, err := snapshotBlob("a", snapA)
	if err != nil {
		t.Fatal(err)
	}
	metaA, _ := json.Marshal(addMeta{Name: "a"})
	metaB, _ := json.Marshal(addMeta{Name: "b"})
	end, _ := json.Marshal(repl.BootstrapEnd{From: 999})
	var stream []byte
	stream = append(stream, wal.EncodeFrame(nil, &wal.Record{
		LSN: snapA.WalLSN, Type: wal.RecAddGraph, Meta: metaA, Blob: blobA})...)
	stream = append(stream, wal.EncodeFrame(nil, &wal.Record{
		LSN: snapB.WalLSN + 1, Type: wal.RecAddGraph, Meta: metaB, Blob: []byte("not a snapshot")})...)
	terminator := wal.EncodeFrame(nil, &wal.Record{LSN: 999, Type: wal.RecCheckpoint, Meta: end})

	var truncate atomic.Bool
	poison := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/repl/bootstrap" {
			http.NotFound(w, r)
			return
		}
		if truncate.Load() {
			// Variant two: the stream dies before the terminator — one
			// complete, valid record arrived and must still not install.
			w.Write(stream[:len(stream)/2]) //nolint:errcheck // test transport
			return
		}
		w.Write(append(stream, terminator...)) //nolint:errcheck // test transport
	}))
	defer poison.Close()

	for _, variant := range []struct {
		name     string
		truncate bool
	}{{"undecodable-record", false}, {"stream-dies-pre-terminator", true}} {
		truncate.Store(variant.truncate)
		f.follower.setLeader(poison.URL)
		if _, err := f.followBootstrap(context.Background()); err == nil {
			t.Fatalf("%s: poisoned bootstrap did not fail", variant.name)
		}
		// The registry must be byte-for-byte the pre-failure one: same
		// snapshot pointers, both graphs present.
		if got := publishedSnap(t, f, "a"); got != snapA {
			t.Errorf("%s: graph a was re-installed by a FAILED bootstrap", variant.name)
		}
		if got := publishedSnap(t, f, "b"); got != snapB {
			t.Errorf("%s: graph b changed under a failed bootstrap", variant.name)
		}
	}

	// And the real leader still bootstraps fine afterwards.
	f.follower.setLeader(lead.url)
	if _, err := f.followBootstrap(context.Background()); err != nil {
		t.Fatalf("re-bootstrap after poisoning: %v", err)
	}
}

// TestWALTailServerCancel is the satellite-2 regression: a tail poll whose
// request context dies server-side (shutdown, promotion) must answer like
// the timeout path — 204 + X-Repl-Next-LSN — not a bare 200 empty body a
// client would misread as a caught-up stream.
func TestWALTailServerCancel(t *testing.T) {
	lead := startLeader(t, t.TempDir())
	if _, err := lead.srv.AddGraph("g", testGraph(t), Overrides{}, false); err != nil {
		t.Fatal(err)
	}
	head := lead.srv.wal.Load().NextLSN()

	// Middleware that kills the request context mid-poll, as a server
	// shutdown would.
	inner := lead.srv.Handler()
	lead.swap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/wal" {
			ctx, cancel := context.WithCancel(r.Context())
			defer cancel()
			time.AfterFunc(30*time.Millisecond, cancel)
			r = r.WithContext(ctx)
		}
		inner.ServeHTTP(w, r)
	}))

	resp, err := http.Get(fmt.Sprintf("%s/v1/wal?from=%d&wait=30s", lead.url, head))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Errorf("canceled poll: status %d, want 204", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Repl-Next-LSN"); got != fmt.Sprint(head) {
		t.Errorf("canceled poll: X-Repl-Next-LSN = %q, want %d", got, head)
	}

	// Client side: the round must come back as caught-up-no-progress, with
	// the cursor parked — not as a successful empty stream of unknown head.
	client := repl.Client{Base: lead.url, PollWait: 30 * time.Second}
	res, err := client.Tail(context.Background(), head, func(*wal.Record) error {
		t.Error("canceled poll delivered a record")
		return nil
	})
	if err != nil {
		t.Fatalf("Tail through canceled poll: %v", err)
	}
	if !res.CaughtUp || res.Next != head || res.LeaderNext != head || res.Records != 0 {
		t.Errorf("canceled poll result %+v, want caught-up at cursor %d", res, head)
	}
}

// walShippingCounts scans a leader's log and tallies how recomputes and
// deltas shipped their rank vectors.
type walShippingCounts struct {
	residRecs, fullRecs     int // RecRankResidual vs RecRecompute
	residDeltas, fullDeltas int // RecEdgeDelta meta ranks_enc
}

func countShipping(t *testing.T, s *Server) walShippingCounts {
	t.Helper()
	var c walShippingCounts
	err := s.wal.Load().ReadFrom(1, func(rec *wal.Record) error {
		switch rec.Type {
		case wal.RecRankResidual:
			c.residRecs++
		case wal.RecRecompute:
			c.fullRecs++
		case wal.RecEdgeDelta:
			var m deltaMeta
			if err := json.Unmarshal(rec.Meta, &m); err != nil {
				return err
			}
			switch m.RanksEnc {
			case ranksEncResidual:
				c.residDeltas++
			case ranksEncFull:
				c.fullDeltas++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("scanning WAL: %v", err)
	}
	return c
}

// TestResidualShippingByteIdentical runs one write stream that the size
// rule itself splits across both rank encodings — small edge batches and a
// recompute on converged ranks touch few entries and ship as residuals, a
// recompute under a changed damping moves every entry and ships the full
// vector — and requires the follower to land byte-identical to the leader
// with identical drift accounting. (The codec's own round trip is pinned by
// internal/delta/residual_test.go.)
func TestResidualShippingByteIdentical(t *testing.T) {
	// A bigger, sparser graph than testGraph: a 5-edge batch dirties a
	// neighborhood far below n/3 vertices here, so the sparse residual
	// encoding (12 bytes/entry vs 4 dense) actually wins and deltas ship
	// as residuals rather than tripping the size-guard fallback.
	g, err := gen.PreferentialAttachment(2000, 6, 227, graph.BuildOptions{Dedup: true, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	batches := mutationStream(t, g, 15, 211)

	lead := startLeader(t, t.TempDir())
	if _, err := lead.srv.AddGraph("g", g, Overrides{}, false); err != nil {
		t.Fatal(err)
	}
	f := New(followerConfig(lead.url))
	startFollower(t, f)
	for i, d := range batches {
		if _, err := lead.srv.ApplyEdgeDelta("g", d); err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
	}
	// A recompute with unchanged options, then a second one landing on the
	// first's result: bit-identical, so its residual is empty.
	for i := 0; i < 2; i++ {
		if _, err := lead.srv.Recompute("g", Overrides{}, true); err != nil {
			t.Fatalf("recompute %d: %v", i, err)
		}
	}
	damping := 0.6
	if _, err := lead.srv.Recompute("g", Overrides{Damping: &damping}, true); err != nil {
		t.Fatalf("recompute at damping %v: %v", damping, err)
	}
	// And more deltas on top of the fully-shipped vector.
	for i, d := range mutationStream(t, publishedSnap(t, lead.srv, "g").Graph, 3, 223) {
		if _, err := lead.srv.ApplyEdgeDelta("g", d); err != nil {
			t.Fatalf("post-recompute delta %d: %v", i, err)
		}
	}
	waitCaughtUp(t, lead.srv, f)

	assertConverged(t, lead.srv, f, "g")
	want, got := publishedSnap(t, lead.srv, "g"), publishedSnap(t, f, "g")
	if want.RepairDrift != got.RepairDrift {
		t.Errorf("drift accounting diverged (%g vs %g)", want.RepairDrift, got.RepairDrift)
	}
	if got.Options.Damping != damping {
		t.Errorf("follower serves damping %v, leader recomputed at %v", got.Options.Damping, damping)
	}

	c := countShipping(t, lead.srv)
	if c.residDeltas == 0 || c.residRecs == 0 {
		t.Errorf("size rule never picked the residual encoding (counts %+v)", c)
	}
	if c.fullRecs == 0 {
		t.Errorf("size rule never picked the full vector: the damping change moved every rank (counts %+v)", c)
	}
}

// TestReplStatusHammerDuringRebootstrap races status readers and snapshot
// readers against repeated corruption-forced re-bootstrap swaps (run it
// with -race). The staged swap must keep every read consistent: the graph
// never vanishes and status never tears.
func TestReplStatusHammerDuringRebootstrap(t *testing.T) {
	g := testGraph(t)
	lead := startLeader(t, t.TempDir())
	if _, err := lead.srv.AddGraph("g", g, Overrides{}, false); err != nil {
		t.Fatal(err)
	}

	f := New(followerConfig(lead.url))
	startFollower(t, f)
	waitCaughtUp(t, lead.srv, f)

	// Corrupt every other tail stream: each hit forces a full re-bootstrap
	// swap while the readers below keep hammering.
	var armed atomic.Bool
	var streams atomic.Int64
	lead.swap(bufferingRewriter(lead.srv.Handler(), func(body []byte) []byte {
		if armed.Load() && streams.Add(1)%2 == 1 {
			body[len(body)/2] ^= 0x20
		}
		return body
	}))
	armed.Store(true)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := f.ReplStatus()
				if st.Role != "follower" {
					t.Errorf("follower status tore: role %q", st.Role)
					return
				}
				if _, _, err := f.TopK("g", 5); err != nil {
					t.Errorf("graph vanished during re-bootstrap swap: %v", err)
					return
				}
			}
		}()
	}

	for i, d := range mutationStream(t, g, 30, 223) {
		if _, err := lead.srv.ApplyEdgeDelta("g", d); err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	armed.Store(false)
	waitCaughtUp(t, lead.srv, f)
	close(stop)
	wg.Wait()

	assertConverged(t, lead.srv, f, "g")
	if st := f.ReplStatus(); st.Corruptions == 0 || st.Bootstraps < 2 {
		t.Errorf("hammer ran without a re-bootstrap (corruptions %d, bootstraps %d); test proves nothing",
			st.Corruptions, st.Bootstraps)
	}
}

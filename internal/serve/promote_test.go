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

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/repl"
	"repro/internal/wal"
)

// Promotion and residual-shipping verification. The failover bar is the
// same determinism bar the replication tests set: a promoted follower that
// keeps serving the write stream must land bit-equal to a leader that never
// failed at all (the twin of every scenario, scenario_test.go).

// TestPromotionChaos is the full failover story over HTTP: the leader dies
// mid-stream, one follower is promoted and takes writes, the surviving
// follower, parked before the writes the promotion cut covers, re-aims at
// the new leader, whose log starts past its cursor, and must re-bootstrap
// through 410; the dead leader's host rejoins as a follower of the new
// leader.
func TestPromotionChaos(t *testing.T) {
	runScenario(t, scenario{[]step{
		add("g", testGraph(t)), deltas("g", 4, 163),
		{name: "add a follower", do: func(t *testing.T, c *cluster) { c.addFollower(t, t.TempDir()) }},
		parked(1, deltas("g", 4, 167), promote(), deltas("g", 4, 173)),
	}, wantStatus("a re-aim and a re-bootstrap", func(st ReplStatus) bool {
		return st.Bootstraps >= 2 && st.Reaims == 1
	})})
}

// TestRetriedPromotionReportsItsCut: a promotion retried after the promoted
// leader took writes answers the cut it folded in, not its newest record;
// after a restart the cut is gone and the answer is 0. The retry used to
// answer next_lsn − 1 as the cut.
func TestRetriedPromotionReportsItsCut(t *testing.T) {
	runScenario(t, scenario{[]step{
		add("g", testGraph(t)), deltas("g", 2, 191), promote(), deltas("g", 2, 193), retryPromotion(),
		restart(true), retryPromotion(),
	}, nil})
}

// TestRefusedPromotionKeepsFollowing: the dead leader's host rejoins with
// its old data dir, so promoting it is refused, and it must go on applying
// the new leader's writes. Promote used to stop the tail loop before it
// checked the dir, leaving a refused follower that never applied another
// record while its status read steady with no lag.
func TestRefusedPromotionKeepsFollowing(t *testing.T) {
	runScenario(t, scenario{[]step{
		add("g", testGraph(t)), promote(), refusePromotion(), deltas("g", 3, 179),
	}, nil})
}

// TestFailedPromotionKeepsFollowing: a promotion whose checkpoint fails
// must leave the follower applying the leader's writes, and its data dir
// empty, so that a retry once the fault clears succeeds. With two graphs
// the first snapshot is on disk when the second fails.
func TestFailedPromotionKeepsFollowing(t *testing.T) {
	t.Run("one graph", func(t *testing.T) {
		runScenario(t, scenario{[]step{
			add("g", testGraph(t)), failPromotion("g"), deltas("g", 3, 181), promote(),
		}, nil})
	})
	t.Run("second graph blocked", func(t *testing.T) {
		runScenario(t, scenario{[]step{
			add("a", testGraph(t)), add("b", smallGraph(t)), failPromotion("b"), promote(),
		}, nil})
	})
}

// TestResidualShippingByteIdentical runs one write stream the size rule
// splits across both rank encodings: small edge batches and recomputes on
// converged ranks touch few entries and ship residuals; a recompute at a new
// damping moves every entry and ships the full vector. Every copy must land
// byte-identical with identical drift accounting. The graph is larger and
// sparser than testGraph, so a batch dirties far fewer than n/3 vertices.
// (The codec's own round trip is pinned by internal/delta/residual_test.go.)
func TestResidualShippingByteIdentical(t *testing.T) {
	g, err := gen.PreferentialAttachment(2000, 6, 227, graph.BuildOptions{Dedup: true, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	runScenario(t, scenario{[]step{
		add("g", g), deltas("g", 8, 211),
		recompute("g", 0), recompute("g", 0), recompute("g", 0.6),
		deltas("g", 3, 223),
	}, func(t *testing.T, c *cluster) {
		counts := countShipping(t, c.lead.srv)
		if counts.residDeltas == 0 || counts.residRecs == 0 || counts.fullRecs == 0 {
			t.Errorf("the size rule did not pick both encodings: %+v", counts)
		}
	}})
}

// TestPromoteGuards pins the promotion preconditions.
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
	c := newCluster(t, testOptions)
	if err := c.lead.srv.Reaim("http://127.0.0.1:1"); !errors.Is(err, ErrNotPromotable) {
		t.Errorf("re-aiming a leader: err = %v, want ErrNotPromotable", err)
	}
	if err := c.fs[0].srv.Reaim("not a url"); err == nil {
		t.Error("re-aim accepted a garbage leader address")
	}
	// One tail loop per follower: once the cluster's has bootstrapped, a
	// second is refused.
	f := c.fs[0].srv
	waitReplStatus(t, f, "bootstrapped", func(st ReplStatus) bool { return st.Bootstraps > 0 })
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.Follow(ctx); err == nil || ctx.Err() != nil {
		t.Errorf("a second Follow beside the running one returned %v", err)
	}
	// Promoting twice is the promote step's (scenario_test.go).
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
	c := newCluster(t, testOptions)
	c.run(t, add("a", testGraph(t)), add("b", testGraph(t)))

	// A follower whose loop is not running, so the test drives its bootstraps.
	f := New(followerConfig(c.lead.url))
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
	f.follower.setLeader(c.lead.url)
	if _, err := f.followBootstrap(context.Background()); err != nil {
		t.Fatalf("re-bootstrap after poisoning: %v", err)
	}
}

// TestWALTailServerCancel is the satellite-2 regression: a tail poll whose
// request context dies server-side (shutdown, promotion) must answer like
// the timeout path — 204 + X-Repl-Next-LSN — not a bare 200 empty body a
// client would misread as a caught-up stream.
func TestWALTailServerCancel(t *testing.T) {
	c := newCluster(t, testOptions)
	c.run(t, add("g", testGraph(t)))
	lead := c.lead
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

// TestWALTailAnswersOnStoreClose: a poll parked at the head answers as soon
// as the leader's log closes, not when its window ends.
func TestWALTailAnswersOnStoreClose(t *testing.T) {
	s, _ := newDurableServer(t, durableConfig(t.TempDir()))
	lead := listen(t, s)
	answered := make(chan time.Time, 1)
	go func() {
		resp, err := http.Get(lead.url + "/v1/wal?from=1&wait=3s")
		if err != nil {
			t.Error(err)
		} else {
			resp.Body.Close()
		}
		answered <- time.Now()
	}()
	time.Sleep(100 * time.Millisecond) // the poll parks
	closed := time.Now()
	crashStop(t, s)
	if d := (<-answered).Sub(closed); d > 250*time.Millisecond {
		t.Errorf("parked poll answered %v after its log closed, want within 250ms", d)
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

// TestReplStatusHammerDuringRebootstrap races status readers and snapshot
// readers against repeated corruption-forced re-bootstrap swaps (run it
// with -race). The staged swap must keep every read consistent: the graph
// never vanishes and status never tears.
func TestReplStatusHammerDuringRebootstrap(t *testing.T) {
	g := testGraph(t)
	c := newCluster(t, testOptions)
	c.run(t, add("g", g))
	lead, f := c.lead, c.fs[0].srv

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

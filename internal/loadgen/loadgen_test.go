package loadgen

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	pcpm "repro"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/serve"
)

// testTarget spins up a real serving daemon with one 500-node graph and
// returns a ready Config pointed at it.
func testTarget(t *testing.T) Config {
	t.Helper()
	g, err := gen.ErdosRenyi(500, 4000, 7, graph.BuildOptions{Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	opts := pcpm.Options{Iterations: 3, Workers: 1, PartitionBytes: 1 << 10}
	s := serve.New(serve.Config{Defaults: opts})
	if _, err := s.AddGraph("load", g, opts, false); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	var bin bytes.Buffer
	if err := pcpm.SaveBinary(&bin, g); err != nil {
		t.Fatal(err)
	}
	return Config{
		BaseURL:    ts.URL,
		Graph:      "load",
		Seed:       42,
		Ops:        150,
		Nodes:      500,
		UploadBody: bin.Bytes(),
	}
}

func TestScheduleDeterministicPerSeed(t *testing.T) {
	cfg := Config{BaseURL: "http://x", Graph: "g", Seed: 9, Ops: 400, Nodes: 1000, UploadBody: []byte{1}}
	a, err := Schedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Schedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same config produced different schedules")
	}
	cfg.Seed = 10
	c, err := Schedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestScheduleShape(t *testing.T) {
	cfg := Config{
		BaseURL: "http://x", Graph: "g", Seed: 3, Ops: 2000, Nodes: 200,
		BatchSize: 5, UploadBody: []byte{1},
	}
	ops, err := Schedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 2000 {
		t.Fatalf("schedule has %d ops, want 2000", len(ops))
	}
	counts := map[OpKind]int{}
	zeroSeedHits := 0
	tailSeedHits := 0
	for _, op := range ops {
		counts[op.Kind]++
		switch op.Kind {
		case OpPPR:
			if len(op.Seeds) != 1 || len(op.Seeds[0]) < 1 || len(op.Seeds[0]) > 3 {
				t.Fatalf("ppr op has malformed seeds %v", op.Seeds)
			}
		case OpPPRBatch:
			if len(op.Seeds) != 5 {
				t.Fatalf("batch op has %d queries, want 5", len(op.Seeds))
			}
		}
		for _, set := range op.Seeds {
			for _, s := range set {
				if int(s) >= cfg.Nodes {
					t.Fatalf("seed %d out of range [0,%d)", s, cfg.Nodes)
				}
				if s == 0 {
					zeroSeedHits++
				}
				if int(s) >= cfg.Nodes/2 {
					tailSeedHits++
				}
			}
		}
	}
	// Every positively-weighted kind of the default mix appears in a
	// 2000-op schedule (mutate defaults to weight 0 — it conflicts with
	// upload — so it must be absent).
	mix := DefaultMix()
	for _, k := range opKinds {
		if w := mix.weight(k); w > 0 && counts[k] == 0 {
			t.Fatalf("kind %s absent from schedule (counts %v)", k, counts)
		} else if w == 0 && counts[k] != 0 {
			t.Fatalf("zero-weight kind %s scheduled %d times", k, counts[k])
		}
	}
	// The default mix is read-heavy: topk dominates mutations.
	if counts[OpTopK] <= counts[OpRecompute]+counts[OpUpload] {
		t.Fatalf("mix not read-heavy: %v", counts)
	}
	// Zipf skew: the single hottest vertex (0) draws more queries than the
	// entire top half of the ID space combined.
	if zeroSeedHits <= tailSeedHits {
		t.Fatalf("seed skew missing: vertex 0 drawn %d times, tail half %d", zeroSeedHits, tailSeedHits)
	}
}

func TestParseMix(t *testing.T) {
	m, err := ParseMix("topk=10, ppr=5,batch=2,mutate=3,upload=1,follower=2,promote=1")
	if err != nil {
		t.Fatal(err)
	}
	want := Mix{TopK: 10, PPR: 5, PPRBatch: 2, Mutate: 3, Upload: 1, FollowerRead: 2, Promote: 1}
	if m != want {
		t.Fatalf("ParseMix = %+v, want %+v", m, want)
	}
	for _, bad := range []string{"nope=1", "topk", "topk=x", "topk=-1"} {
		if _, err := ParseMix(bad); err == nil {
			t.Fatalf("ParseMix(%q) should fail", bad)
		}
	}
}

// TestReplayAgainstServe drives the full mixed workload against a live
// serving daemon: every request must succeed and every scheduled op must be
// accounted to an endpoint.
func TestReplayAgainstServe(t *testing.T) {
	cfg := testTarget(t)
	cfg.Concurrency = 4
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("replay saw %d errors: %+v", rep.Errors, rep.Endpoints)
	}
	if rep.Ops != cfg.Ops {
		t.Fatalf("report counts %d ops, want %d", rep.Ops, cfg.Ops)
	}
	total := 0
	for _, ep := range rep.Endpoints {
		total += ep.Count
		if ep.Count > 0 && (ep.P50MS < 0 || ep.P99MS < ep.P50MS || ep.MaxMS < ep.P99MS) {
			t.Fatalf("endpoint %s has inconsistent percentiles: %+v", ep.Endpoint, ep)
		}
	}
	if total != cfg.Ops {
		t.Fatalf("endpoint counts sum to %d, want %d", total, cfg.Ops)
	}
	if rep.OpsPerSec <= 0 || rep.DurationMS <= 0 {
		t.Fatalf("throughput not reported: %+v", rep)
	}
}

// TestMutationMixReplay drives the mutate traffic class against a live
// serving daemon concurrently with reads and recomputes: every insert and
// its paired delete must succeed, and the graph's edge count must return to
// its start state once the replay drains.
func TestMutationMixReplay(t *testing.T) {
	cfg := testTarget(t)
	cfg.Ops = 120
	cfg.Concurrency = 4
	cfg.UploadBody = nil // mutate and upload do not compose; see Mix
	cfg.Mix = Mix{TopK: 5, Rank: 2, PPR: 3, Mutate: 5, Recompute: 1}

	// Pin the schedule shape first: mutate ops carry 1–4 in-range pairs.
	ops, err := Schedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mutates := 0
	for _, op := range ops {
		if op.Kind != OpMutate {
			continue
		}
		mutates++
		if len(op.Edges) < 1 || len(op.Edges) > 4 {
			t.Fatalf("mutate op has %d edges, want 1..4", len(op.Edges))
		}
		for _, e := range op.Edges {
			if int(e[0]) >= cfg.Nodes || int(e[1]) >= cfg.Nodes {
				t.Fatalf("mutate edge %v out of range [0,%d)", e, cfg.Nodes)
			}
		}
	}
	if mutates == 0 {
		t.Fatal("mutation mix scheduled no mutate ops")
	}

	edgeCount := func() int64 {
		t.Helper()
		resp, err := http.Get(cfg.BaseURL + "/v1/graphs/" + cfg.Graph)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var info struct {
			Edges int64 `json:"edges"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
		return info.Edges
	}
	before := edgeCount()

	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("mutation replay saw %d errors: %+v", rep.Errors, rep.Endpoints)
	}
	found := false
	for _, ep := range rep.Endpoints {
		if ep.Endpoint == string(OpMutate) {
			found = ep.Count == mutates
		}
	}
	if !found {
		t.Fatalf("mutate endpoint missing or miscounted in report: %+v", rep.Endpoints)
	}

	// Every insert batch was deleted again: the edge count is conserved.
	if after := edgeCount(); after != before {
		t.Fatalf("post-replay edge count = %d, want %d (conserved)", after, before)
	}
}

// TestReplayCountsErrors: a replay against a graph that does not exist must
// complete and report the failures rather than aborting. Reads only —
// upload ops would legitimately create the graph mid-replay.
func TestReplayCountsErrors(t *testing.T) {
	cfg := testTarget(t)
	cfg.Graph = "missing"
	cfg.Ops = 20
	cfg.UploadBody = nil
	cfg.Mix = Mix{TopK: 2, Rank: 1, PPR: 1, PPRBatch: 1}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != rep.Ops {
		t.Fatalf("%d/%d ops failed, want all (unknown graph)", rep.Errors, rep.Ops)
	}
}

// TestBenchRecordsTrajectoryShape pins the JSON contract that keeps
// loadtest output appendable to the BENCH_*.json trajectory.
func TestBenchRecordsTrajectoryShape(t *testing.T) {
	rep := &Report{Endpoints: []EndpointStats{
		{Endpoint: "topk", Count: 10, P50MS: 1.5, P99MS: 4.0},
		{Endpoint: "ppr", Count: 5, Errors: 1, P50MS: 3.0, P99MS: 9.0},
	}}
	recs := rep.BenchRecords()
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4", len(recs))
	}
	b, err := json.Marshal(recs[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"name"`, `"iterations"`, `"ns_per_op"`} {
		if !strings.Contains(string(b), key) {
			t.Fatalf("record %s missing trajectory key %s", b, key)
		}
	}
	if recs[0].Name != "LoadTest/topk/p50" || recs[0].NsPerOp != 1.5e6 {
		t.Fatalf("record 0 = %+v", recs[0])
	}
	if recs[2].ErrorRate != 0.2 {
		t.Fatalf("ppr p50 error rate = %v, want 0.2", recs[2].ErrorRate)
	}
}

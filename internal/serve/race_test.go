package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	pcpm "repro"
	"repro/internal/delta"
	"repro/internal/graph"
)

// TestConcurrentTopKWhileRecomputing is the serving-layer contract test:
// thousands of top-k reads proceed while a recompute is in flight, and every
// response equals exactly one of the published snapshots — the pre-recompute
// ranks (version 1) or the post-recompute ranks (version 2) — never a blend.
// Run with -race (CI does) to also exercise the synchronization.
func TestConcurrentTopKWhileRecomputing(t *testing.T) {
	s := New(Config{Defaults: testOptions})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	g := testGraph(t)
	if _, err := s.AddGraph("er", g, Overrides{}, false); err != nil {
		t.Fatal(err)
	}

	// Expected rank vectors for both versions, computed directly.
	resA, err := pcpm.Run(g, testOptions)
	if err != nil {
		t.Fatal(err)
	}
	optsB := testOptions
	optsB.Damping = 0.5
	resB, err := pcpm.Run(g, optsB)
	if err != nil {
		t.Fatal(err)
	}
	const k = 20
	want := map[uint64][]pcpm.RankEntry{
		1: pcpm.TopK(resA.Ranks, k),
		2: pcpm.TopK(resB.Ranks, k),
		// A possible drain-triggered rerun inherits version 2's options, so
		// version 3 must reproduce the same vector.
		3: pcpm.TopK(resB.Ranks, k),
	}

	// Gate the recompute so it is genuinely in flight while readers hammer
	// the endpoint; the gate opens partway through the read storm, so reads
	// observe the version-1 to version-2 swap live.
	release := make(chan struct{})
	s.computeFn = func(g *graph.Graph, o pcpm.Options) (*pcpm.Result, error) {
		res, err := pcpm.Run(g, o)
		<-release
		return res, err
	}
	damping := 0.5
	st, err := s.Recompute("er", Overrides{Damping: &damping}, false)
	if err != nil || !st.Started {
		t.Fatalf("recompute start = %+v, %v", st, err)
	}

	const (
		readers        = 16
		readsPerReader = 150
	)
	var (
		wg        sync.WaitGroup
		reads     atomic.Int64
		sawOld    atomic.Int64
		sawNew    atomic.Int64
		openOnce  sync.Once
		failMu    sync.Mutex
		firstFail string
	)
	fail := func(msg string) {
		failMu.Lock()
		if firstFail == "" {
			firstFail = msg
		}
		failMu.Unlock()
	}
	client := ts.Client()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < readsPerReader; i++ {
				resp, err := client.Get(ts.URL + "/v1/graphs/er/topk?k=20")
				if err != nil {
					fail("GET topk: " + err.Error())
					return
				}
				var tk topkResponse
				decErr := json.NewDecoder(resp.Body).Decode(&tk)
				resp.Body.Close()
				if decErr != nil || resp.StatusCode != http.StatusOK {
					fail("topk decode failed or bad status")
					return
				}
				expect, ok := want[tk.Version]
				if !ok {
					fail("topk returned unknown version")
					return
				}
				for j, e := range tk.Ranks {
					if e.Node != expect[j].Node || e.Rank != expect[j].Rank {
						fail("topk response mixed snapshots")
						return
					}
				}
				switch tk.Version {
				case 1:
					sawOld.Add(1)
				case 2:
					sawNew.Add(1)
				}
				// Open the gate once the read storm is well underway, so
				// the snapshot swap happens under concurrent load.
				if reads.Add(1) == readers*readsPerReader/2 {
					openOnce.Do(func() { close(release) })
				}
			}
		}()
	}
	wg.Wait()
	openOnce.Do(func() { close(release) }) // in case of early reader failure

	if firstFail != "" {
		t.Fatal(firstFail)
	}
	if sawOld.Load() == 0 {
		t.Fatal("no reads observed the pre-recompute snapshot; gate opened too early")
	}
	t.Logf("reads: %d at version 1, %d at version 2", sawOld.Load(), sawNew.Load())

	// Drain the in-flight run by coalescing onto it with wait=true. (If it
	// already landed this starts a redundant run inheriting the damping-0.5
	// options, which publishes an identical vector as version 3; the version
	// check below allows for that.)
	if _, err := s.Recompute("er", Overrides{}, true); err != nil {
		t.Fatal(err)
	}
	entries, snap, err := s.TopK("er", k)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version < 2 {
		t.Fatalf("final version = %d, want >= 2", snap.Version)
	}
	if w, ok := want[snap.Version]; ok {
		for j := range entries {
			if entries[j] != w[j] {
				t.Fatalf("final topk[%d] = %+v, want %+v", j, entries[j], w[j])
			}
		}
	}
}

// TestConcurrentEdgeDeltasWhileReading is the dynamic-graph contract test:
// writers apply edge-delta batches (each insert batch followed by a delete
// of the same batch, so the structure returns to its start state) while
// readers hammer top-k, single-vertex, and personalized queries. Every read
// must observe one self-consistent snapshot — ranks sized to the snapshot's
// own graph, top-k nodes in range — never a blend of pre- and post-delta
// state. Run with -race (CI does) to exercise the synchronization.
func TestConcurrentEdgeDeltasWhileReading(t *testing.T) {
	s := New(Config{Defaults: testOptions})
	g := testGraph(t)
	if _, err := s.AddGraph("er", g, Overrides{}, false); err != nil {
		t.Fatal(err)
	}
	n := uint32(g.NumNodes())

	const (
		writers         = 2
		deltasPerWriter = 8
		readersPerKind  = 2
		readsPerReader  = 60
	)
	var (
		wg        sync.WaitGroup
		failMu    sync.Mutex
		firstFail string
	)
	fail := func(msg string) {
		failMu.Lock()
		if firstFail == "" {
			firstFail = msg
		}
		failMu.Unlock()
	}

	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < deltasPerWriter; i++ {
				batch := []graph.Edge{
					{Src: uint32(w*31+i) % n, Dst: uint32(w*17+i*7) % n, W: 1},
					{Src: uint32(w*13+i*3) % n, Dst: uint32(w*41+i*11) % n, W: 1},
				}
				if _, err := s.ApplyEdgeDelta("er", delta.EdgeDelta{Insert: batch}); err != nil {
					fail("insert delta: " + err.Error())
					return
				}
				if _, err := s.ApplyEdgeDelta("er", delta.EdgeDelta{Delete: batch}); err != nil {
					fail("delete delta: " + err.Error())
					return
				}
			}
		}(w)
	}

	read := func(kind int, r int) {
		defer wg.Done()
		for i := 0; i < readsPerReader; i++ {
			switch kind {
			case 0:
				entries, snap, err := s.TopK("er", 10)
				if err != nil {
					fail("topk: " + err.Error())
					return
				}
				if len(snap.Ranks) != snap.Graph.NumNodes() {
					fail("snapshot blends graph and ranks of different versions")
					return
				}
				for _, e := range entries {
					if int(e.Node) >= snap.Graph.NumNodes() {
						fail("topk entry out of the snapshot's node range")
						return
					}
				}
			case 1:
				v := uint32(r*97+i) % n
				if _, _, err := s.Rank("er", v); err != nil {
					fail("rank: " + err.Error())
					return
				}
			case 2:
				seeds := []uint32{uint32(r*13+i) % n}
				if _, err := s.Personalized("er", [][]uint32{seeds}, 5, 1e-4); err != nil {
					fail("ppr: " + err.Error())
					return
				}
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}
	for kind := 0; kind < 3; kind++ {
		for r := 0; r < readersPerKind; r++ {
			wg.Add(1)
			go read(kind, r)
		}
	}
	wg.Wait()
	close(stop)
	if firstFail != "" {
		t.Fatal(firstFail)
	}

	// All inserts were deleted again: the structure is back to its start,
	// and the version advanced by exactly the number of mutations.
	_, snap, err := s.TopK("er", 1)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Graph.NumEdges() != g.NumEdges() {
		t.Fatalf("final edges = %d, want %d (every insert was deleted)", snap.Graph.NumEdges(), g.NumEdges())
	}
	if want := uint64(1 + writers*deltasPerWriter*2); snap.Version != want {
		t.Fatalf("final version = %d, want %d", snap.Version, want)
	}
}

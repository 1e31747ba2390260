package shard

import (
	"encoding/binary"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	pcpm "repro"
	"repro/internal/core"
	"repro/internal/graph"
)

// startFleet spins up n workers on httptest servers and a coordinator over
// them, returning both plus the servers for failure injection.
func startFleet(t *testing.T, n int) (*Coordinator, []*httptest.Server) {
	t.Helper()
	servers := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		w := NewWorker(WorkerConfig{})
		servers[i] = httptest.NewServer(w.Handler())
		urls[i] = servers[i].URL
		t.Cleanup(servers[i].Close)
	}
	c, err := NewCoordinator(urls, CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return c, servers
}

func TestCoordinatorEndToEnd(t *testing.T) {
	g := testGraph(t, 600, 4800, 77)
	c, _ := startFleet(t, 3)
	opts := SolveOptions{Damping: 0.85, Tolerance: 1e-9}
	ranks, rounds, delta, err := c.Solve("web", g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rounds == 0 || delta >= 1e-9 {
		t.Fatalf("solve did not converge: %d rounds, delta %g", rounds, delta)
	}

	mono, err := pcpm.Run(g, pcpm.Options{Tolerance: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if l1 := core.L1Diff(ranks, mono.Ranks); l1 > 1e-6 {
		t.Fatalf("gathered ranks L1 vs monolithic = %g", l1)
	}

	// Re-solving the graph the workers hold (the recompute path) gives the
	// same vector bit for bit.
	again, _, _, err := c.Solve("web", g, opts)
	if err != nil {
		t.Fatal(err)
	}
	for v := range ranks {
		if math.Float32bits(ranks[v]) != math.Float32bits(again[v]) {
			t.Fatalf("re-solve rank[%d] = %v, first solve %v", v, again[v], ranks[v])
		}
	}

	if err := c.Remove("web"); err != nil {
		t.Fatal(err)
	}
}

func TestCoordinatorFixedRounds(t *testing.T) {
	g := testGraph(t, 300, 2000, 5)
	c, _ := startFleet(t, 2)
	_, rounds, _, err := c.Solve("fixed", g, SolveOptions{Damping: 0.85, Rounds: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 7 {
		t.Fatalf("fixed solve ran %d rounds, want 7", rounds)
	}
}

func TestCoordinatorWorkerDownIsUnavailable(t *testing.T) {
	g := testGraph(t, 400, 3000, 13)
	c, servers := startFleet(t, 2)
	opts := SolveOptions{Damping: 0.85, Tolerance: 1e-9}
	if _, _, _, err := c.Solve("web", g, opts); err != nil {
		t.Fatal(err)
	}
	servers[1].Close()
	if _, _, _, err := c.Solve("web", g, opts); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("solve with dead worker: err = %v, want ErrUnavailable", err)
	}
}

func TestCoordinatorQueriesUnknownGraph(t *testing.T) {
	c, _ := startFleet(t, 2)
	if err := c.Remove("nope"); err == nil || errors.Is(err, ErrUnavailable) {
		t.Fatalf("remove of unknown graph: err = %v, want non-unavailable error", err)
	}
	empty, err := graph.FromEdges(0, nil, false, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.Solve("empty", empty, SolveOptions{Damping: 0.85, Rounds: 1}); err == nil ||
		errors.Is(err, ErrUnavailable) {
		t.Fatalf("solve of an empty graph: err = %v, want non-unavailable error", err)
	}
}

// TestCoordinatorGatherBoundsBody runs a one-worker coordinator against a
// stub worker whose /v1/shard/ranks body is crafted: the gather accepts
// exactly the block's wire size (8 + 4·len bytes) with the right bounds, and
// rejects anything shorter or longer.
func TestCoordinatorGatherBoundsBody(t *testing.T) {
	g := testGraph(t, 50, 200, 3)
	n := g.NumNodes()
	exact := make([]byte, 8+4*n)
	binary.LittleEndian.PutUint32(exact[4:], uint32(n))
	for v := 0; v < n; v++ {
		binary.LittleEndian.PutUint32(exact[8+4*v:], math.Float32bits(float32(v)))
	}
	wrongHi := append([]byte(nil), exact...)
	binary.LittleEndian.PutUint32(wrongHi[4:], uint32(n-1))
	cases := []struct {
		name string
		body []byte
		want string // "" for success
	}{
		{"exact", exact, ""},
		{"short", exact[:len(exact)-4], "rank bytes"},
		{"header only", exact[:8], "rank bytes"},
		{"long", append(append([]byte(nil), exact...), 0, 0, 0, 0), "rank bytes"},
		{"far too long", append(append([]byte(nil), exact...), make([]byte, 1<<20)...), "rank bytes"},
		{"wrong bounds", wrongHi, "returned block"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mux := http.NewServeMux()
			mux.HandleFunc("POST /v1/shard/load", func(rw http.ResponseWriter, r *http.Request) {
				shardWriteJSON(rw, http.StatusOK, map[string]any{})
			})
			mux.HandleFunc("POST /v1/shard/solve", func(rw http.ResponseWriter, r *http.Request) {
				shardWriteJSON(rw, http.StatusOK, map[string]any{"rounds": 1, "delta": 0})
			})
			mux.HandleFunc("GET /v1/shard/ranks", func(rw http.ResponseWriter, r *http.Request) {
				rw.Write(tc.body)
			})
			stub := httptest.NewServer(mux)
			t.Cleanup(stub.Close)
			c, err := NewCoordinator([]string{stub.URL}, CoordinatorConfig{})
			if err != nil {
				t.Fatal(err)
			}
			ranks, _, _, err := c.Solve("g", g, SolveOptions{Damping: 0.85, Rounds: 1})
			if tc.want == "" {
				if err != nil {
					t.Fatal(err)
				}
				for v, r := range ranks {
					if r != float32(v) {
						t.Fatalf("rank[%d] = %v, want %v", v, r, float32(v))
					}
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one naming %q", err, tc.want)
			}
		})
	}
}

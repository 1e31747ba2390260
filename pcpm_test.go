package pcpm

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func facadeGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := gen.RMAT(gen.Graph500RMAT(9, 8, 21), graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRunAllMethodsAgree(t *testing.T) {
	g := facadeGraph(t)
	var base []float32
	for _, m := range Methods() {
		res, err := Run(g, Options{Method: m, Iterations: 8, PartitionBytes: 1024, Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if res.Iterations != 8 {
			t.Fatalf("%s: iterations = %d", m, res.Iterations)
		}
		if res.Method != m {
			t.Fatalf("method echo = %q, want %q", res.Method, m)
		}
		if base == nil {
			base = res.Ranks
			continue
		}
		for i := range res.Ranks {
			if math.Abs(float64(res.Ranks[i]-base[i])) > 1e-5 {
				t.Fatalf("%s: rank[%d] diverges: %v vs %v", m, i, res.Ranks[i], base[i])
			}
		}
	}
}

func TestRunDefaultsToPCPM(t *testing.T) {
	g := facadeGraph(t)
	res, err := Run(g, Options{Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != MethodPCPM {
		t.Fatalf("default method = %q", res.Method)
	}
	if res.CompressionRatio < 1 {
		t.Fatalf("compression ratio = %v", res.CompressionRatio)
	}
	if res.PreprocessTime <= 0 {
		t.Fatal("PCPM should report preprocessing time")
	}
}

func TestRunUnknownMethod(t *testing.T) {
	g := facadeGraph(t)
	if _, err := Run(g, Options{Method: "magic"}); err == nil {
		t.Fatal("accepted unknown method")
	}
}

func TestRunConvergenceMode(t *testing.T) {
	g := facadeGraph(t)
	res, err := Run(g, Options{Tolerance: 1e-6, MaxIterations: 500, PartitionBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delta >= 1e-6 {
		t.Fatalf("did not converge: delta %g after %d iterations", res.Delta, res.Iterations)
	}
	if res.Iterations >= 500 {
		t.Fatal("hit iteration cap")
	}
}

func TestRunRedistributeSumsToOne(t *testing.T) {
	g := facadeGraph(t)
	res, err := Run(g, Options{Iterations: 40, RedistributeDangling: true, PartitionBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, r := range res.Ranks {
		sum += float64(r)
	}
	if math.Abs(sum-1) > 1e-3 {
		t.Fatalf("rank sum = %v", sum)
	}
}

func TestFacadeIO(t *testing.T) {
	g := facadeGraph(t)
	var bin bytes.Buffer
	if err := SaveBinary(&bin, g); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadBinary(&bin)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(g2) {
		t.Fatal("binary round trip changed graph")
	}
	var txt bytes.Buffer
	if err := SaveEdgeList(&txt, g); err != nil {
		t.Fatal(err)
	}
	g3, err := LoadEdgeList(strings.NewReader(txt.String()))
	if err != nil {
		t.Fatal(err)
	}
	if g3.NumEdges() != g.NumEdges() {
		t.Fatal("text round trip changed edge count")
	}
}

func TestLoadGraphSniffsFormat(t *testing.T) {
	g := facadeGraph(t)
	var bin, txt bytes.Buffer
	if err := SaveBinary(&bin, g); err != nil {
		t.Fatal(err)
	}
	if err := SaveEdgeList(&txt, g); err != nil {
		t.Fatal(err)
	}
	gb, err := LoadGraph(&bin)
	if err != nil {
		t.Fatalf("LoadGraph(binary): %v", err)
	}
	if !g.Equal(gb) {
		t.Fatal("LoadGraph(binary) changed graph")
	}
	gt, err := LoadGraph(strings.NewReader(txt.String()))
	if err != nil {
		t.Fatalf("LoadGraph(text): %v", err)
	}
	if gt.NumEdges() != g.NumEdges() {
		t.Fatal("LoadGraph(text) changed edge count")
	}
	if _, err := LoadGraph(strings.NewReader("")); err == nil {
		t.Fatal("LoadGraph accepted an empty stream")
	}
	// Shorter than the 8-byte magic but still a valid edge list.
	tiny, err := LoadGraph(strings.NewReader("1 2"))
	if err != nil || tiny.NumEdges() != 1 {
		t.Fatalf("LoadGraph(tiny text) = %v, %v", tiny, err)
	}
}

func TestBuilderThroughFacade(t *testing.T) {
	b := NewGraphBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	g, err := b.Build(graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, Options{Iterations: 30, PartitionBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Ranks {
		if math.Abs(float64(r)-1.0/3) > 1e-4 {
			t.Fatalf("cycle ranks = %v", res.Ranks)
		}
	}
	top := TopK(res.Ranks, 2)
	if len(top) != 2 {
		t.Fatalf("TopK = %v", top)
	}
}

func TestRunPersonalizedThroughFacade(t *testing.T) {
	g := facadeGraph(t)
	res, err := RunPersonalized(g, []uint32{0, 7}, PPRRunOptions{TopK: 5, Epsilon: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Top) != 5 {
		t.Fatalf("len(Top) = %d, want 5", len(res.Top))
	}
	if res.ResidualL1 > 1e-8 {
		t.Fatalf("residual %g exceeds epsilon", res.ResidualL1)
	}
	eng, err := NewPPREngine(g)
	if err != nil {
		t.Fatal(err)
	}
	again, err := eng.Run([]uint32{7, 0}, PPRRunOptions{Epsilon: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Scores {
		if res.Scores[i] != again.Scores[i] {
			t.Fatalf("engine answer diverges from the one-shot run at vertex %d", i)
		}
	}
	if _, err := RunPersonalized(g, nil, PPRRunOptions{}); err == nil {
		t.Fatal("empty seed set should fail")
	}
}

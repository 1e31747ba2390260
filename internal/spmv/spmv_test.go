package spmv

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

// denseMul is the brute-force reference in float64.
func denseMul(rows, cols int, entries []Entry, x []float32) []float64 {
	y := make([]float64, rows)
	for _, e := range entries {
		y[e.Row] += float64(e.Val) * float64(x[e.Col])
	}
	return y
}

func randomEntries(rng *rand.Rand, rows, cols, nnz int) []Entry {
	es := make([]Entry, nnz)
	for i := range es {
		es[i] = Entry{
			Row: uint32(rng.IntN(rows)),
			Col: uint32(rng.IntN(cols)),
			Val: rng.Float32()*4 - 2,
		}
	}
	return es
}

func randomVec(rng *rand.Rand, n int) []float32 {
	x := make([]float32, n)
	for i := range x {
		x[i] = rng.Float32()*2 - 1
	}
	return x
}

func maxErr(y []float32, ref []float64) float64 {
	var mx float64
	for i := range y {
		d := math.Abs(float64(y[i]) - ref[i])
		if d > mx {
			mx = d
		}
	}
	return mx
}

// validateLayout runs the PNG's structural checks on the engine's layout:
// the spmv path builds the rectangular, weighted form core never does.
func validateLayout(t *testing.T, e *PCPMEngine) {
	t.Helper()
	pn := e.kern.PNG
	if pn.DestWs == nil {
		t.Fatal("spmv layout carries no weight streams")
	}
	if err := pn.ValidateEdges(e.m.NNZ()); err != nil {
		t.Fatal(err)
	}
}

func TestNewMatrixValidation(t *testing.T) {
	if _, err := NewMatrix(-1, 3, nil); err == nil {
		t.Error("accepted negative rows")
	}
	if _, err := NewMatrix(2, 2, []Entry{{Row: 5, Col: 0, Val: 1}}); err == nil {
		t.Error("accepted out-of-range entry")
	}
}

func TestNewMatrixSumsDuplicates(t *testing.T) {
	m, err := NewMatrix(2, 2, []Entry{{0, 0, 1}, {0, 0, 2.5}})
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 1 {
		t.Fatalf("NNZ = %d, want 1", m.NNZ())
	}
	y := make([]float32, 2)
	if err := NewCSREngine(m, 1).Mul([]float32{2, 0}, y); err != nil {
		t.Fatal(err)
	}
	if y[0] != 7 {
		t.Fatalf("y[0] = %v, want 7", y[0])
	}
}

func TestEnginesAgreeSquare(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	const rows, cols, nnz = 500, 500, 6000
	entries := randomEntries(rng, rows, cols, nnz)
	m, err := NewMatrix(rows, cols, entries)
	if err != nil {
		t.Fatal(err)
	}
	x := randomVec(rng, cols)
	ref := denseMul(rows, cols, entries, x)

	engines := []Engine{NewCSREngine(m, 2)}
	pcpm, err := NewPCPMEngine(m, 256, 2)
	if err != nil {
		t.Fatal(err)
	}
	validateLayout(t, pcpm)
	bv, err := NewBVGASEngine(m, 256, 2)
	if err != nil {
		t.Fatal(err)
	}
	engines = append(engines, pcpm, bv)
	for _, e := range engines {
		y := make([]float32, rows)
		if err := e.Mul(x, y); err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if d := maxErr(y, ref); d > 1e-3 {
			t.Errorf("%s: max error %g", e.Name(), d)
		}
	}
}

func TestEnginesAgreeNonSquare(t *testing.T) {
	// §3.5: non-square matrices need separate row and column partitions.
	rng := rand.New(rand.NewPCG(3, 4))
	const rows, cols, nnz = 800, 150, 4000
	entries := randomEntries(rng, rows, cols, nnz)
	m, err := NewMatrix(rows, cols, entries)
	if err != nil {
		t.Fatal(err)
	}
	x := randomVec(rng, cols)
	ref := denseMul(rows, cols, entries, x)

	pcpm, err := NewPCPMEngine(m, 128, 3)
	if err != nil {
		t.Fatal(err)
	}
	validateLayout(t, pcpm)
	bv, err := NewBVGASEngine(m, 128, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []Engine{NewCSREngine(m, 3), pcpm, bv} {
		y := make([]float32, rows)
		if err := e.Mul(x, y); err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if d := maxErr(y, ref); d > 1e-3 {
			t.Errorf("%s non-square: max error %g", e.Name(), d)
		}
	}
}

func TestDimensionChecks(t *testing.T) {
	m, err := NewMatrix(3, 2, []Entry{{0, 0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	e := NewCSREngine(m, 1)
	if err := e.Mul(make([]float32, 3), make([]float32, 3)); err == nil {
		t.Error("accepted wrong x length")
	}
	if err := e.Mul(make([]float32, 2), make([]float32, 2)); err == nil {
		t.Error("accepted wrong y length")
	}
	pcpm, err := NewPCPMEngine(m, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := pcpm.Mul(make([]float32, 9), make([]float32, 3)); err == nil {
		t.Error("pcpm accepted wrong dims")
	}
}

func TestEmptyMatrix(t *testing.T) {
	m, err := NewMatrix(4, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	pcpm, err := NewPCPMEngine(m, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	validateLayout(t, pcpm)
	y := []float32{9, 9, 9, 9}
	if err := pcpm.Mul(make([]float32, 4), y); err != nil {
		t.Fatal(err)
	}
	for _, v := range y {
		if v != 0 {
			t.Fatalf("empty matrix produced %v", y)
		}
	}
}

func TestCompressionRatioReasonable(t *testing.T) {
	g, err := gen.RMAT(gen.Graph500RMAT(10, 16, 5), graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := FromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	pcpm, err := NewPCPMEngine(m, 1024, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := pcpm.CompressionRatio()
	if r < 1 || r > float64(m.NNZ()) {
		t.Fatalf("compression ratio %v implausible", r)
	}
	if r < 1.2 {
		t.Fatalf("RMAT with 256-node partitions should compress, r = %v", r)
	}
}

func TestPropertyEnginesAgree(t *testing.T) {
	f := func(seed uint64, rRaw, cRaw uint8, nnzRaw uint16) bool {
		rows := int(rRaw)%120 + 1
		cols := int(cRaw)%120 + 1
		nnz := int(nnzRaw) % 1200
		rng := rand.New(rand.NewPCG(seed, 9))
		entries := randomEntries(rng, rows, cols, nnz)
		m, err := NewMatrix(rows, cols, entries)
		if err != nil {
			return false
		}
		x := randomVec(rng, cols)
		yc := make([]float32, rows)
		yp := make([]float32, rows)
		yb := make([]float32, rows)
		if err := NewCSREngine(m, 2).Mul(x, yc); err != nil {
			return false
		}
		pcpm, err := NewPCPMEngine(m, 64, 2)
		if err != nil {
			return false
		}
		if err := pcpm.Mul(x, yp); err != nil {
			return false
		}
		bv, err := NewBVGASEngine(m, 64, 2)
		if err != nil {
			return false
		}
		if err := bv.Mul(x, yb); err != nil {
			return false
		}
		for i := 0; i < rows; i++ {
			if math.Abs(float64(yc[i]-yp[i])) > 1e-3 || math.Abs(float64(yc[i]-yb[i])) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedPageRankUnweightedMatchesUniform(t *testing.T) {
	// On an unweighted graph, WeightedPageRank must equal plain PageRank;
	// compare against a tiny hand-rolled reference.
	edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}}
	g, err := graph.FromEdges(3, edges, false, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := FromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	pcpm, err := NewPCPMEngine(m, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := WeightedPageRank(g, pcpm, 0.85, 50)
	if err != nil {
		t.Fatal(err)
	}
	// Symmetric cycle: all ranks equal 1/3.
	for _, r := range pr {
		if math.Abs(float64(r)-1.0/3) > 1e-4 {
			t.Fatalf("cycle ranks = %v, want uniform 1/3", pr)
		}
	}
}

func TestWeightedPageRankRespectsWeights(t *testing.T) {
	// Node 0 sends 90% of its mass to 1 and 10% to 2.
	edges := []graph.Edge{
		{Src: 0, Dst: 1, W: 9}, {Src: 0, Dst: 2, W: 1},
		{Src: 1, Dst: 0, W: 1}, {Src: 2, Dst: 0, W: 1},
	}
	g, err := graph.FromEdges(3, edges, true, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := FromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	pcpm, err := NewPCPMEngine(m, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := WeightedPageRank(g, pcpm, 0.85, 60)
	if err != nil {
		t.Fatal(err)
	}
	if pr[1] <= 2*pr[2] {
		t.Fatalf("weighted ranks wrong: pr[1]=%v should dwarf pr[2]=%v", pr[1], pr[2])
	}
}

func TestWeightedPageRankValidation(t *testing.T) {
	g, err := graph.FromEdges(2, []graph.Edge{{Src: 0, Dst: 1}}, false, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := FromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WeightedPageRank(g, NewCSREngine(m, 1), 1.5, 3); err == nil {
		t.Fatal("accepted damping > 1")
	}
}

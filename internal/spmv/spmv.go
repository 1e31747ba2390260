// Package spmv generalizes PCPM from PageRank to sparse matrix–vector
// multiplication, as sketched in the paper's §3.5: edge weights ride along
// with the destination IDs in the destID bins, and non-square matrices are
// handled by partitioning rows and columns separately — the scatter loop
// iterates column (source) partitions and the gather loop row
// (destination) partitions.
package spmv

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/png"
)

// Entry is one nonzero of a sparse matrix.
type Entry struct {
	Row uint32
	Col uint32
	Val float32
}

// Matrix is an immutable sparse matrix. Internally it is stored in
// column-major (CSC-like) form because the PCPM scatter walks columns:
// computing y = A·x pushes x[j] along column j's nonzeros.
type Matrix struct {
	rows, cols int
	colOff     []int64  // len cols+1
	rowIdx     []uint32 // len nnz, sorted within each column
	vals       []float32
	// Row-major mirror for the CSR (pull) reference engine.
	rowOff []int64
	colIdx []uint32
	rvals  []float32
}

// NewMatrix builds a matrix from its nonzeros. Duplicate (row, col) entries
// are summed.
func NewMatrix(rows, cols int, entries []Entry) (*Matrix, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("spmv: negative dimension %dx%d", rows, cols)
	}
	if int64(rows) > graph.MaxNodes || int64(cols) > graph.MaxNodes {
		return nil, fmt.Errorf("spmv: dimension exceeds 2^31")
	}
	for _, e := range entries {
		if int(e.Row) >= rows || int(e.Col) >= cols {
			return nil, fmt.Errorf("spmv: entry (%d,%d) outside %dx%d", e.Row, e.Col, rows, cols)
		}
	}
	es := append([]Entry(nil), entries...)
	sort.Slice(es, func(i, j int) bool {
		if es[i].Col != es[j].Col {
			return es[i].Col < es[j].Col
		}
		return es[i].Row < es[j].Row
	})
	// Sum duplicates.
	out := es[:0]
	for _, e := range es {
		if len(out) > 0 && out[len(out)-1].Col == e.Col && out[len(out)-1].Row == e.Row {
			out[len(out)-1].Val += e.Val
			continue
		}
		out = append(out, e)
	}
	es = out

	m := &Matrix{
		rows: rows, cols: cols,
		colOff: make([]int64, cols+1),
		rowIdx: make([]uint32, len(es)),
		vals:   make([]float32, len(es)),
		rowOff: make([]int64, rows+1),
		colIdx: make([]uint32, len(es)),
		rvals:  make([]float32, len(es)),
	}
	for _, e := range es {
		m.colOff[e.Col+1]++
		m.rowOff[e.Row+1]++
	}
	for c := 0; c < cols; c++ {
		m.colOff[c+1] += m.colOff[c]
	}
	for r := 0; r < rows; r++ {
		m.rowOff[r+1] += m.rowOff[r]
	}
	for i, e := range es {
		m.rowIdx[i] = e.Row
		m.vals[i] = e.Val
	}
	cur := make([]int64, rows)
	for _, e := range es { // column-major scan keeps row lists sorted by col
		j := m.rowOff[e.Row] + cur[e.Row]
		cur[e.Row]++
		m.colIdx[j] = e.Col
		m.rvals[j] = e.Val
	}
	return m, nil
}

// FromGraph builds the matrix whose product with x pushes values along the
// graph's edges: A[dst, src] = w(src, dst), so y = A·x gives
// y[dst] = Σ_{(src,dst)∈E} w·x[src]. Unweighted graphs get unit weights.
func FromGraph(g *graph.Graph) (*Matrix, error) {
	edges := g.Edges()
	entries := make([]Entry, len(edges))
	for i, e := range edges {
		entries[i] = Entry{Row: e.Dst, Col: e.Src, Val: e.W}
	}
	return NewMatrix(g.NumNodes(), g.NumNodes(), entries)
}

// Rows returns the row count.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the column count.
func (m *Matrix) Cols() int { return m.cols }

// NNZ returns the number of stored nonzeros.
func (m *Matrix) NNZ() int64 { return int64(len(m.vals)) }

// Engine computes y = A·x for a fixed matrix.
type Engine interface {
	// Name identifies the backend.
	Name() string
	// Mul computes y = A·x. len(x) must be Cols, len(y) must be Rows.
	Mul(x, y []float32) error
}

func (m *Matrix) checkDims(x, y []float32) error {
	if len(x) != m.cols {
		return fmt.Errorf("spmv: len(x) = %d, want %d", len(x), m.cols)
	}
	if len(y) != m.rows {
		return fmt.Errorf("spmv: len(y) = %d, want %d", len(y), m.rows)
	}
	return nil
}

// ---------------------------------------------------------------------------
// CSR (pull) reference engine

// CSREngine is the conventional row-major SpMV: each output element pulls
// its row's nonzeros — the SpMV analog of PDPR.
type CSREngine struct {
	m       *Matrix
	workers int
}

// NewCSREngine builds the pull engine.
func NewCSREngine(m *Matrix, workers int) *CSREngine {
	return &CSREngine{m: m, workers: workers}
}

// Name implements Engine.
func (e *CSREngine) Name() string { return "csr" }

// Mul implements Engine.
func (e *CSREngine) Mul(x, y []float32) error {
	m := e.m
	if err := m.checkDims(x, y); err != nil {
		return err
	}
	par.ForStatic(m.rows, e.workers, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			var acc float32
			for j := m.rowOff[r]; j < m.rowOff[r+1]; j++ {
				acc += m.rvals[j] * x[m.colIdx[j]]
			}
			y[r] = acc
		}
	})
	return nil
}

// ---------------------------------------------------------------------------
// PCPM engine

// PCPMEngine applies the partition-centric methodology to SpMV: an adapter
// over png.Kernel. Columns (sources) and rows (destinations) are partitioned
// independently (§3.5). One update per (column, row-partition) pair is
// scattered; the weight of each nonzero is stored next to its MSB-tagged row
// ID in the destination bins and applied during gather: y[row] += w · update.
type PCPMEngine struct {
	m    *Matrix
	kern *png.Kernel
}

// NewPCPMEngine builds the partition-centric engine with the given
// partition byte sizes for columns and rows (4-byte elements).
func NewPCPMEngine(m *Matrix, partBytes, workers int) (*PCPMEngine, error) {
	colLayout, err := partition.FromBytes(m.cols, partBytes)
	if err != nil {
		return nil, err
	}
	rowLayout, err := partition.FromBytes(m.rows, partBytes)
	if err != nil {
		return nil, err
	}
	cols, err := graph.Chunked(m.colOff, m.rowIdx, m.vals)
	if err != nil {
		return nil, err
	}
	pn, err := png.BuildCSR(png.CSR{Chunks: cols, Weighted: true}, colLayout, rowLayout, workers)
	if err != nil {
		return nil, err
	}
	return &PCPMEngine{m: m, kern: png.NewKernel(pn, workers)}, nil
}

// Name implements Engine.
func (e *PCPMEngine) Name() string { return "pcpm" }

// Mul implements Engine.
func (e *PCPMEngine) Mul(x, y []float32) error {
	if err := e.m.checkDims(x, y); err != nil {
		return err
	}
	e.kern.Scatter(x)
	e.kern.Gather(false, e.store(y))
	return nil
}

// store returns the gather's per-partition apply: a row partition's sums are
// its slice of y.
func (e *PCPMEngine) store(y []float32) png.Apply {
	return func(lo, hi graph.NodeID, sums []float32) (float64, float64) {
		copy(y[lo:hi], sums)
		return 0, 0
	}
}

// CompressionRatio returns nnz / |compressed updates| for this layout.
func (e *PCPMEngine) CompressionRatio() float64 {
	upd := e.kern.PNG.EdgesCompressed
	if upd == 0 {
		return 1
	}
	return float64(e.m.NNZ()) / float64(upd)
}

// ---------------------------------------------------------------------------
// BVGAS engine

// BVGASEngine is the binning vertex-centric SpMV baseline: one
// (update, row, weight) triple per nonzero, binned by row range.
type BVGASEngine struct {
	m       *Matrix
	workers int
	layout  partition.Layout
	ids     [][]uint32
	ws      [][]float32
	updates [][]float32
	sums    [][]float32
}

// NewBVGASEngine builds the binning baseline.
func NewBVGASEngine(m *Matrix, binBytes, workers int) (*BVGASEngine, error) {
	layout, err := partition.FromBytes(m.rows, binBytes)
	if err != nil {
		return nil, err
	}
	b := layout.K()
	e := &BVGASEngine{m: m, workers: workers, layout: layout}
	cnt := make([]int64, b)
	shift := layout.Shift()
	for _, r := range m.rowIdx {
		cnt[r>>shift]++
	}
	e.ids = make([][]uint32, b)
	e.ws = make([][]float32, b)
	e.updates = make([][]float32, b)
	for i := 0; i < b; i++ {
		e.ids[i] = make([]uint32, 0, cnt[i])
		e.ws[i] = make([]float32, 0, cnt[i])
		e.updates[i] = make([]float32, cnt[i])
	}
	for c := 0; c < m.cols; c++ {
		for j := m.colOff[c]; j < m.colOff[c+1]; j++ {
			r := m.rowIdx[j]
			bin := int(r >> shift)
			e.ids[bin] = append(e.ids[bin], r)
			e.ws[bin] = append(e.ws[bin], m.vals[j])
		}
	}
	w := par.Workers(workers)
	e.sums = make([][]float32, w)
	for i := 0; i < w; i++ {
		e.sums[i] = make([]float32, layout.Size())
	}
	return e, nil
}

// Name implements Engine.
func (e *BVGASEngine) Name() string { return "bvgas" }

// Mul implements Engine.
func (e *BVGASEngine) Mul(x, y []float32) error {
	m := e.m
	if err := m.checkDims(x, y); err != nil {
		return err
	}
	// Scatter: column scan, one update per nonzero into its row bin.
	// Single-threaded cursor per bin keeps pairing with ids stable; the
	// scatter is parallelized over disjoint bin cursors via a counting pass.
	shift := e.layout.Shift()
	cursor := make([]int64, e.layout.K())
	for c := 0; c < m.cols; c++ {
		xc := x[c]
		for j := m.colOff[c]; j < m.colOff[c+1]; j++ {
			bin := int(m.rowIdx[j] >> shift)
			e.updates[bin][cursor[bin]] = xc
			cursor[bin]++
		}
	}
	par.ForDynamicWorker(e.layout.K(), e.workers, func(w, bin int) {
		lo, hi := e.layout.Bounds(bin)
		sums := e.sums[w][:int(hi-lo)]
		for i := range sums {
			sums[i] = 0
		}
		ids := e.ids[bin]
		ws := e.ws[bin]
		ups := e.updates[bin]
		for j, id := range ids {
			sums[id-lo] += ws[j] * ups[j]
		}
		copy(y[lo:hi], sums)
	})
	return nil
}

// ---------------------------------------------------------------------------
// Weighted PageRank on top of SpMV (§3.5)

// WeightedPageRank runs PageRank on a weighted graph: each iteration is
// y = A·x with x(u) = PR(u)/W_out(u), where W_out is the total outgoing
// weight. Dangling mass leaks, matching the paper's formulation.
func WeightedPageRank(g *graph.Graph, eng Engine, damping float64, iters int) ([]float32, error) {
	n := g.NumNodes()
	if n == 0 {
		return nil, nil
	}
	if damping < 0 || damping >= 1 {
		return nil, fmt.Errorf("spmv: damping %v outside [0,1)", damping)
	}
	wout := make([]float32, n)
	for v := 0; v < n; v++ {
		ws := g.OutWeights(graph.NodeID(v))
		if ws == nil {
			wout[v] = float32(g.OutDegree(graph.NodeID(v)))
			continue
		}
		var s float32
		for _, w := range ws {
			s += w
		}
		wout[v] = s
	}
	pr := make([]float32, n)
	x := make([]float32, n)
	y := make([]float32, n)
	for v := range pr {
		pr[v] = float32(1 / float64(n))
	}
	base := float32((1 - damping) / float64(n))
	for it := 0; it < iters; it++ {
		for v := 0; v < n; v++ {
			if wout[v] > 0 {
				x[v] = pr[v] / wout[v]
			} else {
				x[v] = 0
			}
		}
		if err := eng.Mul(x, y); err != nil {
			return nil, err
		}
		for v := 0; v < n; v++ {
			pr[v] = base + float32(damping)*y[v]
		}
	}
	return pr, nil
}

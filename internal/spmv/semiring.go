package spmv

import "math"

// Semiring generalizes SpMV beyond (+, ×): y[r] = ⊕_j (A[r,j] ⊗ x[j]).
// The paper observes (§1, §6) that many graph algorithms are SpMV over a
// different semiring; PCPM applies unchanged because only the combination
// operators differ, not the data movement.
type Semiring struct {
	// Zero is the identity of Plus (0 for sum, +Inf for min).
	Zero float32
	// Plus combines contributions to one output element.
	Plus func(a, b float32) float32
	// Times combines a matrix entry with a vector element.
	Times func(a, x float32) float32
}

// PlusTimes is the arithmetic semiring (classic SpMV / PageRank).
func PlusTimes() Semiring {
	return Semiring{
		Zero:  0,
		Plus:  func(a, b float32) float32 { return a + b },
		Times: func(a, x float32) float32 { return a * x },
	}
}

// MinPlus is the tropical semiring: y[r] = min_j (A[r,j] + x[j]) — one
// Bellman-Ford relaxation step of single-source shortest paths.
func MinPlus() Semiring {
	inf := float32(math.Inf(1))
	return Semiring{
		Zero:  inf,
		Plus:  minf32,
		Times: func(a, x float32) float32 { return a + x },
	}
}

// MinFirst propagates the smaller endpoint value along edges:
// y[r] = min_j x[j] over in-neighbors j — one label-propagation step of
// connected components.
func MinFirst() Semiring {
	inf := float32(math.Inf(1))
	return Semiring{
		Zero:  inf,
		Plus:  minf32,
		Times: func(_, x float32) float32 { return x },
	}
}

func minf32(a, b float32) float32 {
	if a < b {
		return a
	}
	return b
}

// MulSemiring computes y = A·x over the semiring with the CSR (pull)
// engine's access pattern.
func (e *CSREngine) MulSemiring(x, y []float32, sr Semiring) error {
	m := e.m
	if err := m.checkDims(x, y); err != nil {
		return err
	}
	for r := 0; r < m.rows; r++ {
		acc := sr.Zero
		for j := m.rowOff[r]; j < m.rowOff[r+1]; j++ {
			acc = sr.Plus(acc, sr.Times(m.rvals[j], x[m.colIdx[j]]))
		}
		y[r] = acc
	}
	return nil
}

// MulSemiring computes y = A·x over the semiring with the partition-centric
// engine: the scatter and bin layout are identical to the arithmetic case —
// only the gather's combination changes, exactly the generality argument of
// the paper's §3.5/§6.
//
// Note one semantic difference from PageRank-style PCPM: the compressed
// update for a (column, row-partition) pair carries x[col] once, and each
// stored weight applies Times individually, so semiring SpMV is exact for
// any Plus/Times.
func (e *PCPMEngine) MulSemiring(x, y []float32, sr Semiring) error {
	if err := e.m.checkDims(x, y); err != nil {
		return err
	}
	e.kern.Scatter(x)
	e.kern.GatherEdges(sr.Zero, func(acc, w, x float32) float32 { return sr.Plus(acc, sr.Times(w, x)) }, e.store(y))
	return nil
}

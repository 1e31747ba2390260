package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by linear
// interpolation between closest ranks (the "inclusive" method: q=0 is the
// minimum, q=1 the maximum). It returns NaN for an empty sample.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[hi]-sorted[lo])
}

// summary is a median with its quartiles and sample count — the form every
// timing in a result file takes.
type summary struct {
	Median, Q1, Q3 float64
	N              int
}

func sortedCopy(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

func summarize(samples []float64) summary {
	s := sortedCopy(samples)
	return summary{Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

// percentile is quantile over an unsorted sample.
func percentile(samples []float64, q float64) float64 {
	return quantile(sortedCopy(samples), q)
}

// exclusiveQuartiles mirrors Python's statistics.quantiles(values, n=4): the
// three cut points at (n+1)·k/4, interpolated and clamped to the sample.
// The driver judges run-to-run spread with it, so -compare does too.
func exclusiveQuartiles(samples []float64) (q1, q2, q3 float64) {
	s := sortedCopy(samples)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(k int) float64 {
		m := n + 1
		j := k * m / 4 // 1-based rank below the cut point
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median — the
// steadiness figure a metric's bound is compared against.
func spread(samples []float64) float64 {
	q1, q2, q3 := exclusiveQuartiles(samples)
	if q2 == 0 {
		return math.Inf(1)
	}
	return math.Abs((q3 - q1) / q2)
}

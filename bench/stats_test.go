package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestQuantileInterpolates(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {0.25, 20}, {0.5, 30}, {0.9, 46}, {0.95, 48}, {1, 50},
	} {
		if got := quantile(s, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("single sample: got %v", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("empty sample should give NaN")
	}
}

func TestSummarizeAndPercentileSortACopy(t *testing.T) {
	in := []float64{5, 1, 4, 2, 3}
	s := summarize(in)
	if s.Median != 3 || s.Q1 != 2 || s.Q3 != 4 || s.N != 5 {
		t.Errorf("summarize = %+v", s)
	}
	if got := percentile(in, 1); got != 5 {
		t.Errorf("percentile(1) = %v", got)
	}
	if in[0] != 5 || in[4] != 3 {
		t.Errorf("input was reordered: %v", in)
	}
}

// The expected values are what Python's statistics.quantiles(values, n=4)
// returns for the same data.
func TestExclusiveQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 3, 1, 4, 2}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{2, 4, 4, 5, 7, 9, 12}, [3]float64{4, 5, 9}},
	} {
		q1, q2, q3 := exclusiveQuartiles(c.in)
		if !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("exclusiveQuartiles(%v) = %v %v %v, want %v", c.in, q1, q2, q3, c.want)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := spread([]float64{3, 3, 3}); got != 0 {
		t.Errorf("spread of a constant = %v", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "x", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "y", Better: "higher", Bound: 0.10}
	steady := func(v float64) []float64 { return []float64{v, v * 1.001, v * 0.999, v, v} }
	noisy := []float64{70, 100, 130, 85, 115}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, steady(100), steady(100), "ok"},
		{"within bound", lower, steady(100), steady(108), "ok"},
		{"slower", lower, steady(100), steady(115), "worse"},
		{"faster", lower, steady(100), steady(50), "ok"},
		{"throughput down", higher, steady(100), steady(85), "worse"},
		{"throughput up", higher, steady(100), steady(120), "ok"},
		{"noise hides it", lower, noisy, steady(108), "unresolved"},
		{"worse beyond the noise", lower, noisy, steady(200), "worse"},
		{"zero stays zero", metricDef{Better: "lower"}, []float64{0, 0}, []float64{0, 0}, "ok"},
		{"zero becomes positive", metricDef{Better: "lower"}, []float64{0, 0}, []float64{1, 1}, "worse"},
		{"exact count moved", metricDef{Better: "lower"}, []float64{46, 46}, []float64{47, 47}, "worse"},
	} {
		if got, _, _, _ := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

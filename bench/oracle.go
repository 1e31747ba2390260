package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// The oracle: reference answers every workload's outputs are checked
// against. It reads a graph only through its public accessors and shares no
// code with the engines, the push kernels or the serving layer, so a bug in
// any of those cannot hide in the check.

const damping = 0.85

// oracleChunk is how many vertices one goroutine claims at a time.
const oracleChunk = 1 << 14

// forChunks runs fn over [0, n) in oracleChunk pieces on every CPU and
// returns when all pieces are done.
func forChunks(n int, fn func(lo, hi int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(oracleChunk)) - oracleChunk
				if lo >= n {
					return
				}
				fn(lo, min(lo+oracleChunk, n))
			}
		}()
	}
	wg.Wait()
}

// oraclePageRank solves PR = (1-d)/n + d·Aᵀ D⁻¹ PR (dangling mass leaks,
// parallel edges count, as in the paper's eq. 1) by float64 power iteration
// until one sweep changes the vector by less than tol in L1.
//
// start, when given, is only the initial guess: the iteration is a
// contraction with a unique fixed point, so it converges to the same answer
// from anywhere, and starting at the vector under test merely saves the
// ~60 sweeps a uniform start spends reaching 1e-6. The returned residual is
// the oracle's own last L1 change; callers fail the check when it is not
// below tol.
func oraclePageRank(g *graph.Graph, start []float32, tol float64, maxSweeps int) (ranks []float64, sweeps int, residual float64) {
	n := g.NumNodes()
	x := make([]float64, n)
	for v := range x {
		if start != nil {
			x[v] = float64(start[v])
		} else {
			x[v] = 1 / float64(n)
		}
	}
	contrib := make([]float64, n)
	y := make([]float64, n)
	base := (1 - damping) / float64(n)
	residual = math.Inf(1)
	for sweeps = 0; sweeps < maxSweeps && residual >= tol; sweeps++ {
		forChunks(n, func(lo, hi int) {
			for u := lo; u < hi; u++ {
				if d := g.OutDegree(graph.NodeID(u)); d > 0 {
					contrib[u] = x[u] / float64(d)
				} else {
					contrib[u] = 0
				}
			}
		})
		var mu sync.Mutex
		residual = 0
		forChunks(n, func(lo, hi int) {
			var change float64
			for v := lo; v < hi; v++ {
				var sum float64
				for _, u := range g.InNeighbors(graph.NodeID(v)) {
					sum += contrib[u]
				}
				y[v] = base + damping*sum
				change += math.Abs(y[v] - x[v])
			}
			mu.Lock()
			residual += change
			mu.Unlock()
		})
		x, y = y, x
	}
	return x, sweeps, residual
}

// l1Error is Σ|got[v] − want[v]|.
func l1Error(got []float32, want []float64) float64 {
	if len(got) != len(want) {
		return math.Inf(1)
	}
	var sum float64
	for v := range got {
		sum += math.Abs(float64(got[v]) - want[v])
	}
	return sum
}

// float32Allowance bounds how far float32 arithmetic alone moves the fixed
// point of the rank iteration on g away from the float64 answer ranks. The
// engines keep ranks and partial sums in float32 (unit roundoff u = 2⁻²⁴):
// a sweep rounds each contribution once, the sum over a vertex's k
// in-neighbours up to k−1 times and the update once, so it perturbs vertex v
// by at most (k+2)·u·rank(v), and the contraction turns an L1 perturbation δ
// per sweep into at most δ/(1−d) at the fixed point. This is a floor no
// tolerance gets below, and it is all in the hubs: on the serving graphs a
// vertex with a third of all vertices as in-neighbours carries most of it.
func float32Allowance(g *graph.Graph, ranks []float64) float64 {
	const u = 1.0 / (1 << 24)
	var sum float64
	for v, r := range ranks {
		sum += float64(g.InDegree(graph.NodeID(v))+2) * r
	}
	return u * sum / (1 - damping)
}

// l1ErrorPermuted is Σ|got[perm[v]] − want[v]|: got lives on the relabelled
// graph, want on the original labels.
func l1ErrorPermuted(got []float32, want []float64, perm []graph.NodeID) float64 {
	if len(got) != len(want) || len(perm) != len(want) {
		return math.Inf(1)
	}
	var sum float64
	for v := range want {
		sum += math.Abs(float64(got[perm[v]]) - want[v])
	}
	return sum
}

// rankEntry is one (node, rank) pair of a served top-k answer.
type rankEntry struct {
	Node uint32  `json:"node"`
	Rank float32 `json:"rank"`
}

// checkTopK verifies that entries is what sorting the served rank vector
// yields: distinct nodes, each carrying exactly its served rank, and the
// ranks equal to the len(entries) largest values of the vector in
// descending order (which node of a tie comes first is left open).
func checkTopK(entries []rankEntry, ranks []float32) error {
	sorted := append([]float32(nil), ranks...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	seen := make(map[uint32]bool, len(entries))
	for i, e := range entries {
		switch {
		case int(e.Node) >= len(ranks):
			return fmt.Errorf("entry %d names node %d outside the graph", i, e.Node)
		case seen[e.Node]:
			return fmt.Errorf("entry %d repeats node %d", i, e.Node)
		case e.Rank != ranks[e.Node]:
			return fmt.Errorf("entry %d: node %d served with rank %g, rank vector says %g", i, e.Node, e.Rank, ranks[e.Node])
		case i >= len(sorted) || e.Rank != sorted[i]:
			return fmt.Errorf("entry %d: rank %g is not the %d-th largest of the vector", i, e.Rank, i+1)
		}
		seen[e.Node] = true
	}
	return nil
}

// oraclePPR computes the personalized PageRank vectors of several seed
// sets at once, as the fixed point of
//
//	p = α·s + (1−α)·(Aᵀ D⁻¹ + dangling·sᵀ) p,   α = 1 − damping,
//
// (dangling mass returns to the seed distribution s) by float64 power
// iteration to an L1 change below tol per query. The vectors are stored
// interleaved, out[v*Q+q], so one pass over the edges serves all Q queries.
func oraclePPR(g *graph.Graph, seedSets [][]uint32, tol float64, maxSweeps int) (out []float64, residual float64) {
	n, q := g.NumNodes(), len(seedSets)
	s := make([]float64, n*q) // seed distributions
	for j, set := range seedSets {
		distinct := make(map[uint32]bool, len(set))
		for _, v := range set {
			distinct[v] = true
		}
		for v := range distinct {
			s[int(v)*q+j] = 1 / float64(len(distinct))
		}
	}
	x := append([]float64(nil), s...)
	y := make([]float64, n*q)
	contrib := make([]float64, n*q)
	const alpha = 1 - damping
	residual = math.Inf(1)
	for sweep := 0; sweep < maxSweeps && residual >= tol; sweep++ {
		dangling := make([]float64, q)
		var mu sync.Mutex
		forChunks(n, func(lo, hi int) {
			local := make([]float64, q)
			for u := lo; u < hi; u++ {
				row := x[u*q : (u+1)*q]
				if d := g.OutDegree(graph.NodeID(u)); d > 0 {
					inv := 1 / float64(d)
					for j, val := range row {
						contrib[u*q+j] = val * inv
					}
				} else {
					for j, val := range row {
						contrib[u*q+j] = 0
						local[j] += val
					}
				}
			}
			mu.Lock()
			for j := range dangling {
				dangling[j] += local[j]
			}
			mu.Unlock()
		})
		change := make([]float64, q)
		forChunks(n, func(lo, hi int) {
			local := make([]float64, q)
			sum := make([]float64, q)
			for v := lo; v < hi; v++ {
				clear(sum)
				for _, u := range g.InNeighbors(graph.NodeID(v)) {
					for j, c := range contrib[int(u)*q : (int(u)+1)*q] {
						sum[j] += c
					}
				}
				for j := range sum {
					sv := s[v*q+j]
					nv := alpha*sv + damping*(sum[j]+dangling[j]*sv)
					local[j] += math.Abs(nv - x[v*q+j])
					y[v*q+j] = nv
				}
			}
			mu.Lock()
			for j := range change {
				change[j] += local[j]
			}
			mu.Unlock()
		})
		x, y = y, x
		residual = 0
		for _, c := range change {
			residual = max(residual, c)
		}
	}
	return x, residual
}

// pprScore is one entry of a served personalized answer.
type pprScore struct {
	Node  uint32  `json:"node"`
	Score float64 `json:"score"`
}

// checkPPRAnswer compares the served top entries of query j with the
// oracle's vector: the scores must agree within slack in sum, and no vertex
// the answer leaves out may beat its last entry by more than slack.
func checkPPRAnswer(top []pprScore, oracle []float64, q, j int, slack float64) error {
	if len(top) == 0 {
		return fmt.Errorf("empty answer")
	}
	included := make(map[uint32]bool, len(top))
	var diff float64
	for _, e := range top {
		if int(e.Node)*q+j >= len(oracle) {
			return fmt.Errorf("node %d outside the graph", e.Node)
		}
		diff += math.Abs(e.Score - oracle[int(e.Node)*q+j])
		included[e.Node] = true
	}
	if diff > slack {
		return fmt.Errorf("top-%d scores differ from the oracle by %.3g in L1 (slack %.3g)", len(top), diff, slack)
	}
	last := top[len(top)-1].Score
	for v := 0; v*q+j < len(oracle); v++ {
		if !included[uint32(v)] && oracle[v*q+j] > last+slack {
			return fmt.Errorf("node %d (oracle score %.6g) is missing from the top-%d (last score %.6g)", v, oracle[v*q+j], len(top), last)
		}
	}
	return nil
}

package ppr

import (
	"repro/internal/graph"
)

// PowerIteration computes the personalized PageRank vector for a uniform
// distribution over seeds by dense fixed-point iteration in float64:
//
//	p ← α·s + (1−α)·(Aᵀ D⁻¹ p + (Σ_{dangling v} p[v])·s)
//
// iterating until the L1 change drops below tol (or maxIters). This is the
// exact fixed point the push engine approximates — it leaks dangling mass
// and normalises once, which lands on the same vector — so the two must
// agree to within their respective tolerances; the golden tests hold them
// to 1e-6 L1.
func PowerIteration(g *graph.Graph, seeds []graph.NodeID, damping, tol float64, maxIters int) ([]float64, error) {
	if damping == 0 {
		damping = DefaultDamping
	}
	seedSet, err := CanonicalSeeds(g.NumNodes(), seeds)
	if err != nil {
		return nil, err
	}
	n := g.NumNodes()
	alpha := 1 - damping
	seedW := 1 / float64(len(seedSet))
	isSeed := make(map[graph.NodeID]bool, len(seedSet))
	for _, s := range seedSet {
		isSeed[s] = true
	}

	p := make([]float64, n)
	next := make([]float64, n)
	for _, s := range seedSet {
		p[s] = seedW
	}

	for it := 0; it < maxIters; it++ {
		// Push over CSR. Sources are visited in ascending order, so each
		// next[v] sums its in-neighbors' shares in the order a pull would.
		clear(next)
		var dmass float64
		for c, ch := range g.Chunks() {
			for i := range len(ch.Off) - 1 {
				u := c<<graph.ChunkShift + i
				deg := ch.Off[i+1] - ch.Off[i]
				if deg == 0 {
					dmass += p[u]
					continue
				}
				share := p[u] / float64(deg)
				for _, v := range ch.Adj[ch.Off[i]:ch.Off[i+1]] {
					next[v] += share
				}
			}
		}
		for v := 0; v < n; v++ {
			nv := (1 - alpha) * next[v]
			if isSeed[graph.NodeID(v)] {
				nv += alpha*seedW + (1-alpha)*dmass*seedW
			}
			next[v] = nv
		}
		var delta float64
		for v := 0; v < n; v++ {
			d := next[v] - p[v]
			if d < 0 {
				d = -d
			}
			delta += d
		}
		p, next = next, p
		if delta < tol {
			break
		}
	}
	return p, nil
}

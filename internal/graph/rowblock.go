package graph

import (
	"fmt"
	"sort"
)

// RowBlock returns the sub-graph over the same n-node ID space containing
// exactly the edges whose destination lies in [lo, hi). In the row-block
// distributed formulation (pprank-style allgather PageRank), the worker that
// owns rows [lo, hi) of A^T needs precisely these edges, which this method
// takes from the CSR by filtering each out-list.
//
// Because per-source adjacency is sorted, each source's contribution is a
// contiguous run found by binary search, so extraction is O(n log d + m_blk)
// with no per-edge branching on the copy path. Weights are carried over for
// weighted graphs. lo == hi yields a valid edge-free graph.
func (g *Graph) RowBlock(lo, hi NodeID) (*Graph, error) {
	if lo > hi || int64(hi) > int64(g.n) {
		return nil, fmt.Errorf("graph: row block [%d, %d) out of range for n=%d", lo, hi, g.n)
	}
	sub := &Graph{n: g.n}
	sub.outOff = make([]int64, g.n+1)
	// First pass: locate each source's [lo, hi) run and accumulate counts.
	starts := make([]int64, g.n)
	for v := 0; v < g.n; v++ {
		adj := g.outAdj[g.outOff[v]:g.outOff[v+1]]
		a := int64(sort.Search(len(adj), func(i int) bool { return adj[i] >= lo }))
		b := int64(sort.Search(len(adj), func(i int) bool { return adj[i] >= hi }))
		starts[v] = g.outOff[v] + a
		sub.outOff[v+1] = sub.outOff[v] + (b - a)
	}
	sub.m = sub.outOff[g.n]
	sub.outAdj = make([]NodeID, sub.m)
	if g.outW != nil {
		sub.outW = make([]float32, sub.m)
	}
	for v := 0; v < g.n; v++ {
		cnt := sub.outOff[v+1] - sub.outOff[v]
		copy(sub.outAdj[sub.outOff[v]:sub.outOff[v+1]], g.outAdj[starts[v]:starts[v]+cnt])
		if sub.outW != nil {
			copy(sub.outW[sub.outOff[v]:sub.outOff[v+1]], g.outW[starts[v]:starts[v]+cnt])
		}
	}
	return sub, nil
}

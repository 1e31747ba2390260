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
	chunks := make([]Chunk, len(g.out))
	starts := make([]int64, ChunkSize)
	for c, ch := range g.out {
		// First pass: locate each source's [lo, hi) run and accumulate counts.
		off := make([]int64, len(ch.Off))
		for i := range len(ch.Off) - 1 {
			adj := ch.Adj[ch.Off[i]:ch.Off[i+1]]
			a := int64(sort.Search(len(adj), func(i int) bool { return adj[i] >= lo }))
			b := int64(sort.Search(len(adj), func(i int) bool { return adj[i] >= hi }))
			starts[i] = ch.Off[i] + a
			off[i+1] = off[i] + (b - a)
		}
		sub := Chunk{Off: off, Adj: make([]NodeID, off[len(off)-1])}
		if g.weighted {
			sub.W = make([]float32, len(sub.Adj))
		}
		for i := range len(off) - 1 {
			copy(sub.Adj[off[i]:off[i+1]], ch.Adj[starts[i]:])
			if sub.W != nil {
				copy(sub.W[off[i]:off[i+1]], ch.W[starts[i]:])
			}
		}
		chunks[c] = sub
	}
	return fromChunks(g.n, g.weighted, chunks), nil
}

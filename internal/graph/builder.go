package graph

import (
	"fmt"
	"slices"
	"sort"
)

// BuildOptions control how a Builder materializes a Graph.
type BuildOptions struct {
	// DropSelfLoops removes edges whose source equals their destination.
	DropSelfLoops bool
	// Dedup collapses parallel edges (same source and destination) into one.
	// For weighted graphs the weights of collapsed duplicates are summed.
	Dedup bool
}

// Builder accumulates edges and materializes an immutable Graph.
// The zero value is not usable; call NewBuilder.
type Builder struct {
	n        int
	edges    []Edge
	weighted bool
}

// NewBuilder returns a Builder for a graph with n nodes.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// AddEdge appends an unweighted directed edge.
func (b *Builder) AddEdge(src, dst NodeID) {
	b.edges = append(b.edges, Edge{Src: src, Dst: dst, W: 1})
}

// AddWeightedEdge appends a weighted directed edge and marks the graph
// weighted.
func (b *Builder) AddWeightedEdge(src, dst NodeID, w float32) {
	b.weighted = true
	b.edges = append(b.edges, Edge{Src: src, Dst: dst, W: w})
}

// AddEdges appends a batch of edges. If markWeighted is true the resulting
// graph carries the edges' weights.
func (b *Builder) AddEdges(edges []Edge, markWeighted bool) {
	if markWeighted {
		b.weighted = true
	}
	b.edges = append(b.edges, edges...)
}

// NumPendingEdges reports how many edges have been added so far.
func (b *Builder) NumPendingEdges() int { return len(b.edges) }

// Build materializes the Graph, consuming the Builder's edge buffer.
// Adjacency lists come out sorted by neighbor ID.
func (b *Builder) Build(opts BuildOptions) (*Graph, error) {
	if b.n < 0 || int64(b.n) > MaxNodes {
		return nil, fmt.Errorf("graph: node count %d out of range [0, %d]", b.n, int64(MaxNodes))
	}
	for _, e := range b.edges {
		if int(e.Src) >= b.n || int(e.Dst) >= b.n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range for %d nodes", e.Src, e.Dst, b.n)
		}
	}
	edges := b.edges
	b.edges = nil

	if opts.DropSelfLoops {
		kept := edges[:0]
		for _, e := range edges {
			if e.Src != e.Dst {
				kept = append(kept, e)
			}
		}
		edges = kept
	}
	if opts.Dedup && len(edges) > 0 {
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].Src != edges[j].Src {
				return edges[i].Src < edges[j].Src
			}
			return edges[i].Dst < edges[j].Dst
		})
		kept := edges[:1]
		for _, e := range edges[1:] {
			last := &kept[len(kept)-1]
			if e.Src == last.Src && e.Dst == last.Dst {
				if b.weighted {
					last.W += e.W
				}
				continue
			}
			kept = append(kept, e)
		}
		edges = kept
	}
	return fromEdges(b.n, edges, b.weighted)
}

// FromEdges builds a Graph directly from an edge slice with the given
// options applied. The input slice is not retained.
func FromEdges(n int, edges []Edge, weighted bool, opts BuildOptions) (*Graph, error) {
	b := NewBuilder(n)
	b.AddEdges(append([]Edge(nil), edges...), weighted)
	return b.Build(opts)
}

// fromEdges constructs CSR via counting sort, then sorts each out-list.
func fromEdges(n int, edges []Edge, weighted bool) (*Graph, error) {
	m := int64(len(edges))
	g := &Graph{
		n:      n,
		m:      m,
		outOff: make([]int64, n+1),
		outAdj: make([]NodeID, m),
	}
	if weighted {
		g.outW = make([]float32, m)
	}
	for _, e := range edges {
		g.outOff[e.Src+1]++
	}
	for v := 0; v < n; v++ {
		g.outOff[v+1] += g.outOff[v]
	}
	cur := slices.Clone(g.outOff[:n])
	for _, e := range edges {
		i := cur[e.Src]
		cur[e.Src]++
		g.outAdj[i] = e.Dst
		if weighted {
			g.outW[i] = e.W
		}
	}
	for v := 0; v < n; v++ {
		sortAdjRange(g.outAdj, g.outW, g.outOff[v], g.outOff[v+1])
	}
	return g, nil
}

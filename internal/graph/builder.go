package graph

import (
	"fmt"

	"repro/internal/par"
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

// Build materializes the Graph, consuming the Builder's edge buffer.
// Adjacency lists come out sorted by neighbor ID; a weighted graph's
// parallel edges keep the order they were added in.
func (b *Builder) Build(opts BuildOptions) (*Graph, error) {
	edges := b.edges
	b.edges = nil
	return FromEdges(b.n, edges, b.weighted, opts)
}

// FromEdges builds a Graph directly from an edge slice with the given
// options applied. The input slice is read, never written, and not
// retained.
//
// The CSR comes from one binSort keyed by source, cut into one part of the
// input per worker: each edge is range-checked (the first bad one in input
// order is reported) and, under DropSelfLoops, skipped if it is a loop;
// every out-list is sorted, and collapsed under Dedup. Its chunks slice one
// adjacency array (and one weight array).
func FromEdges(n int, edges []Edge, weighted bool, opts BuildOptions) (*Graph, error) {
	if n < 0 || int64(n) > MaxNodes {
		return nil, fmt.Errorf("graph: node count %d out of range [0, %d]", n, int64(MaxNodes))
	}
	parts := par.Workers(0)
	bs := binSort{n: n, weighted: weighted, sortLists: true, dedup: opts.Dedup}
	chunks, err := bs.run(parts, func(s *binScan, p int) error {
		for _, e := range edges[p*len(edges)/parts : (p+1)*len(edges)/parts] {
			if int(e.Src) >= n || int(e.Dst) >= n {
				return fmt.Errorf("graph: edge (%d,%d) out of range for %d nodes", e.Src, e.Dst, n)
			}
			if opts.DropSelfLoops && e.Src == e.Dst {
				continue
			}
			s.add(e.Src, e.Dst, e.W)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return fromChunks(n, weighted, chunks), nil
}

// fromChunks wraps chunks in a Graph, counting its edges.
func fromChunks(n int, weighted bool, chunks []Chunk) *Graph {
	g := &Graph{n: n, weighted: weighted, out: chunks}
	for _, ch := range chunks {
		g.m += int64(len(ch.Adj))
	}
	return g
}

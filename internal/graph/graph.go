// Package graph provides the in-memory directed-graph substrate used by the
// PCPM PageRank reproduction: Compressed Sparse Row (out-edge) adjacency in
// chunks of 4096 sources that graph versions share, 32-bit node identifiers,
// optional edge weights, builders, and edge-list I/O. The partition-centric engine builds its whole layout from out-edges;
// the in-adjacency (the transpose) is derived on first use, for the code
// that pulls — the PDPR baseline and a few offline tools.
//
// Node identifiers are uint32 with the most significant bit reserved, as in
// the paper (§3.2): PCPM uses the MSB of destination IDs to demarcate update
// boundaries, so graphs are limited to 2^31 nodes.
package graph

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/par"
)

// NodeID identifies a vertex. The most significant bit is reserved for the
// PCPM MSB demarcation trick, so valid IDs are in [0, MaxNodes).
type NodeID = uint32

// MaxNodes is the maximum number of nodes a Graph may hold (2^31, because
// the MSB of a 4-byte node ID is reserved for update demarcation).
const MaxNodes = 1 << 31

// MSBMask isolates the reserved demarcation bit of a destination ID.
const MSBMask uint32 = 1 << 31

// IDMask removes the reserved demarcation bit from a destination ID.
const IDMask uint32 = MSBMask - 1

// Edge is a single directed edge, optionally weighted.
type Edge struct {
	Src NodeID
	Dst NodeID
	W   float32
}

// Graph is an immutable directed graph stored in CSR (out-edge) form, cut
// into chunks of ChunkSize consecutive sources (see Chunk). Adjacency lists
// are sorted by neighbor ID; the PNG construction (internal/png) relies on
// that ordering to find partition runs without extra sorting. The
// in-adjacency is not stored: InNeighbors and the other In* accessors build
// the unweighted transpose once, on first use, and every constructor returns
// a graph without it.
//
// The chunks are the only representation; no flat copy exists beside them.
// Patch shares every chunk the edit does not touch with its parent. So a
// version keeps alive its own chunks plus the backing arrays its shared
// chunks point into. FromEdges and ReadBinary cut all of a graph's chunks
// from one adjacency array (and one weight and one offset array), and
// such an array stays whole while any version still shares one of its
// chunks; Patch and RowBlock allocate each chunk they build on its own.
//
// Offsets use int64 so the implementation is safe for any edge count the ID
// space allows; the analytical and simulated communication models still
// account offsets at the paper's 4 bytes per index.
type Graph struct {
	n        int   // number of nodes
	m        int64 // number of edges
	weighted bool  // every chunk carries W

	out []Chunk // chunk c holds sources [c<<ChunkShift, ...)

	inOnce  sync.Once
	in      []Chunk     // the transpose, built by inOnce; see transposed
	derived derivedSlot // see Derived
}

// transposed returns the in-adjacency in chunks (unweighted; chunk c lists
// the in-edges of destinations [c<<ChunkShift, ...), sources ascending,
// parallel edges kept), building it on the first call with the builder's
// binSort keyed by destination. The edges are fed in source order, so every
// in-list arrives sorted without a sort. Concurrent first callers wait for
// one build and share it.
func (g *Graph) transposed() []Chunk {
	g.inOnce.Do(func() {
		parts := par.Workers(0)
		bounds := chunkSplit(g.out, parts)
		g.in, _ = binSort{n: g.n}.run(parts, func(s *binScan, p int) error {
			for c := bounds[p]; c < bounds[p+1]; c++ {
				ch := &g.out[c]
				for i := range len(ch.Off) - 1 {
					v := NodeID(c<<ChunkShift + i)
					for _, u := range ch.Adj[ch.Off[i]:ch.Off[i+1]] {
						s.add(u, v, 0)
					}
				}
			}
			return nil
		})
	})
	return g.in
}

// derivedSlot holds at most one structure derived from the graph.
type derivedSlot struct {
	mu    sync.Mutex
	key   int
	value any
}

// Derived returns the read-only structure derived from g under key, calling
// build for it when the graph holds none or holds one built under another key
// (which it then replaces: the slot keeps one value, not a history). The
// value lives and dies with g, and every constructor — builders, readers,
// Patch, RowBlock — returns a graph holding none. Concurrent callers
// are safe: they wait for a build in flight and share its result, so build
// must not call Derived on the same graph. A failed build stores nothing.
//
// This is how a solver keeps its per-graph layout (the PCPM engine's
// Partition-Node Graph, keyed by partition bytes) without this package
// knowing the layout's type.
func (g *Graph) Derived(key int, build func() (any, error)) (any, error) {
	s := &g.derived
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.value != nil && s.key == key {
		return s.value, nil
	}
	v, err := build()
	if err != nil {
		return nil, err
	}
	s.key, s.value = key, v
	return v, nil
}

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int64 { return g.m }

// Weighted reports whether the graph carries edge weights.
func (g *Graph) Weighted() bool { return g.weighted }

// Chunks returns the out-edge CSR, one Chunk per ChunkSize sources: chunk c
// holds sources [c<<ChunkShift, ...). Read-only. Code that walks many
// vertices walks it chunk by chunk (or with Spans) instead of looking a
// chunk up per vertex.
func (g *Graph) Chunks() []Chunk { return g.out }

// InChunks returns the transpose in the same form as Chunks (W always nil),
// building it on the first call. Read-only.
func (g *Graph) InChunks() []Chunk { return g.transposed() }

// listOf returns v's list in chunks.
func listOf(chunks []Chunk, v NodeID) []NodeID {
	c := &chunks[v>>ChunkShift]
	i := v & chunkMask
	return c.Adj[c.Off[i]:c.Off[i+1]]
}

// OutDegree returns |No(v)|, the number of out-neighbors of v.
func (g *Graph) OutDegree(v NodeID) int64 { return int64(len(listOf(g.out, v))) }

// InDegree returns |Ni(v)|, the number of in-neighbors of v. The first
// In* call on a graph builds its transpose.
func (g *Graph) InDegree(v NodeID) int64 { return int64(len(listOf(g.transposed(), v))) }

// OutNeighbors returns the sorted out-adjacency list of v. The returned
// slice aliases internal storage and must not be modified.
func (g *Graph) OutNeighbors(v NodeID) []NodeID { return listOf(g.out, v) }

// InNeighbors returns the sorted in-adjacency list of v, parallel edges
// kept. The returned slice aliases internal storage and must not be modified.
func (g *Graph) InNeighbors(v NodeID) []NodeID { return listOf(g.transposed(), v) }

// OutWeights returns the weights parallel to OutNeighbors(v), or nil for an
// unweighted graph.
func (g *Graph) OutWeights(v NodeID) []float32 {
	if !g.weighted {
		return nil
	}
	c := &g.out[v>>ChunkShift]
	i := v & chunkMask
	return c.W[c.Off[i]:c.Off[i+1]]
}

// Edges materializes the edge list in source-major, then destination, order.
// It fills its output by offset, in parallel over chunks: relabelling tools
// (reorder, the harness, the benchmark's scattered family) call it on whole
// graphs before rebuilding them.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, g.m)
	at := make([]int64, len(g.out)) // chunk c's first edge in out
	for c := 1; c < len(g.out); c++ {
		at[c] = at[c-1] + int64(len(g.out[c-1].Adj))
	}
	par.ForDynamic(len(g.out), par.Workers(0), func(c int) {
		ch := &g.out[c]
		dst := out[at[c] : at[c]+int64(len(ch.Adj))]
		for i := range len(ch.Off) - 1 {
			src := NodeID(c<<ChunkShift + i)
			for j := ch.Off[i]; j < ch.Off[i+1]; j++ {
				e := Edge{Src: src, Dst: ch.Adj[j], W: 1}
				if ch.W != nil {
					e.W = ch.W[j]
				}
				dst[j] = e
			}
		}
	})
	return out
}

// DanglingCount returns the number of nodes with no out-edges. Dangling
// nodes matter to PageRank semantics (their mass leaks under the paper's
// formulation).
func (g *Graph) DanglingCount() int {
	c := 0
	for _, ch := range g.out {
		for i := range len(ch.Off) - 1 {
			if ch.Off[i+1] == ch.Off[i] {
				c++
			}
		}
	}
	return c
}

// MaxOutDegree returns the largest out-degree in the graph.
func (g *Graph) MaxOutDegree() int64 {
	var mx int64
	for _, ch := range g.out {
		for i := range len(ch.Off) - 1 {
			mx = max(mx, ch.Off[i+1]-ch.Off[i])
		}
	}
	return mx
}

// MaxInDegree returns the largest in-degree in the graph, counted over the
// out-edges without building the transpose.
func (g *Graph) MaxInDegree() int64 {
	deg := make([]int64, g.n)
	var mx int64
	for _, ch := range g.out {
		for _, u := range ch.Adj {
			deg[u]++
			mx = max(mx, deg[u])
		}
	}
	return mx
}

// AvgDegree returns |E| / |V|.
func (g *Graph) AvgDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return float64(g.m) / float64(g.n)
}

// Validate checks the structural invariants of the graph: one chunk per
// ChunkSize sources, each chunk's offsets monotone from 0 and bounded by its
// adjacency, adjacency entries valid node IDs with the MSB clear, per-node
// adjacency lists sorted, and weights (if any) covering every edge. It
// returns nil when the graph is well-formed.
func (g *Graph) Validate() error {
	if g.n < 0 || int64(g.n) > MaxNodes {
		return fmt.Errorf("graph: node count %d out of range", g.n)
	}
	if len(g.out) != numChunks(g.n) {
		return fmt.Errorf("graph: %d chunks for %d nodes", len(g.out), g.n)
	}
	var m int64
	for c, ch := range g.out {
		if len(ch.Off) != chunkLen(g.n, c)+1 {
			return fmt.Errorf("graph: chunk %d has %d offsets, want %d", c, len(ch.Off), chunkLen(g.n, c)+1)
		}
		if g.weighted && len(ch.W) != len(ch.Adj) || !g.weighted && ch.W != nil {
			return errors.New("graph: weight array has wrong length")
		}
		if ch.Off[0] != 0 {
			return fmt.Errorf("graph: offsets of chunk %d do not start at 0", c)
		}
		if k := len(ch.Off) - 1; ch.Off[k] != int64(len(ch.Adj)) {
			return fmt.Errorf("graph: offsets of chunk %d end at %d, want %d", c, ch.Off[k], len(ch.Adj))
		}
		for i := range len(ch.Off) - 1 {
			if ch.Off[i+1] < ch.Off[i] {
				return fmt.Errorf("graph: offsets not monotone at node %d", c<<ChunkShift+i)
			}
		}
		m += int64(len(ch.Adj))
	}
	if m != g.m {
		return fmt.Errorf("graph: chunks hold %d edges, want %d", m, g.m)
	}
	return g.validateLists()
}

// validateLists checks the adjacency entries of well-formed chunks: valid
// IDs, MSB clear, every list sorted. Validate adds the shape checks a graph
// built by this package passes by construction.
func (g *Graph) validateLists() error {
	for c, ch := range g.out {
		for i := range len(ch.Off) - 1 {
			prev := int64(-1)
			for _, u := range ch.Adj[ch.Off[i]:ch.Off[i+1]] {
				v := c<<ChunkShift + i
				if u&MSBMask != 0 {
					return fmt.Errorf("graph: adjacency of %d has MSB set: %#x", v, u)
				}
				if int(u) >= g.n {
					return fmt.Errorf("graph: adjacency of %d out of range: %d", v, u)
				}
				if int64(u) < prev {
					return fmt.Errorf("graph: adjacency of %d not sorted", v)
				}
				prev = int64(u)
			}
		}
	}
	return nil
}

// Equal reports whether two graphs have identical structure and weights.
func (g *Graph) Equal(h *Graph) bool {
	if g.n != h.n || g.m != h.m || g.weighted != h.weighted {
		return false
	}
	for c := range g.out {
		a, b := &g.out[c], &h.out[c]
		// Offsets count from the chunk's start, so equal structure means
		// equal arrays, however the chunks were built or shared.
		if !slices.Equal(a.Off, b.Off) || !slices.Equal(a.Adj, b.Adj) {
			return false
		}
		for i := range a.W {
			if math.Abs(float64(a.W[i]-b.W[i])) > 1e-6 {
				return false
			}
		}
	}
	return true
}

// Stats summarizes a graph for dataset tables (paper Table 4).
//
// Components and LargestComponent describe the strongly-connected-component
// structure. ComputeStats leaves them zero — the decomposition lives in
// internal/scc, which graph cannot import — and scc.ComputeStats fills
// them with one sequential Tarjan pass: the CLIs call it through the
// facade, the serving layer the first time someone asks about a structure,
// never when it publishes one.
type Stats struct {
	Nodes        int
	Edges        int64
	AvgDegree    float64
	MaxOutDegree int64
	MaxInDegree  int64
	Dangling     int
	// Components is the number of strongly connected components; zero means
	// "not computed" (an empty graph also reports zero).
	Components int
	// LargestComponent is the vertex count of the largest SCC.
	LargestComponent int
}

// ComputeStats gathers summary statistics in one pass.
func (g *Graph) ComputeStats() Stats {
	return Stats{
		Nodes:        g.n,
		Edges:        g.m,
		AvgDegree:    g.AvgDegree(),
		MaxOutDegree: g.MaxOutDegree(),
		MaxInDegree:  g.MaxInDegree(),
		Dangling:     g.DanglingCount(),
	}
}

// Package graph provides the in-memory directed-graph substrate used by the
// PCPM PageRank reproduction: Compressed Sparse Row (out-edge) adjacency,
// 32-bit node identifiers, optional edge weights, builders, and edge-list
// I/O. The partition-centric engine builds its whole layout from out-edges;
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
	"sort"
	"sync"
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

// Graph is an immutable directed graph stored in CSR (out-edge) form.
// Adjacency lists are sorted by neighbor ID; the PNG construction
// (internal/png) relies on that ordering to find partition runs without
// extra sorting. The in-adjacency is not stored: InNeighbors and the other
// In* accessors build the unweighted transpose once, on first use, and every
// constructor returns a graph without it.
//
// Offsets use int64 so the implementation is safe for any edge count the ID
// space allows; the analytical and simulated communication models still
// account offsets at the paper's 4 bytes per index.
type Graph struct {
	n int   // number of nodes
	m int64 // number of edges

	outOff []int64   // len n+1
	outAdj []NodeID  // len m, sorted per source
	outW   []float32 // optional weights parallel to outAdj

	inOnce  sync.Once
	in      transpose   // built by inOnce; see transposed
	derived derivedSlot // see Derived
}

// transpose is the in-adjacency: off has length n+1 and adj[off[v]:off[v+1]]
// lists the sources of v's in-edges, ascending, parallel edges kept.
type transpose struct {
	off []int64
	adj []NodeID
}

// transposed returns the in-adjacency, building it on the first call.
// Concurrent first callers wait for one build and share it.
func (g *Graph) transposed() *transpose {
	g.inOnce.Do(func() {
		t := transpose{off: make([]int64, g.n+1), adj: make([]NodeID, g.m)}
		for _, u := range g.outAdj {
			t.off[u+1]++
		}
		for v := 0; v < g.n; v++ {
			t.off[v+1] += t.off[v]
		}
		// A source-ascending scan appends to each in-list in order, so every
		// list arrives sorted.
		cur := slices.Clone(t.off[:g.n])
		for v := 0; v < g.n; v++ {
			for _, u := range g.outAdj[g.outOff[v]:g.outOff[v+1]] {
				t.adj[cur[u]] = NodeID(v)
				cur[u]++
			}
		}
		g.in = t
	})
	return &g.in
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
func (g *Graph) Weighted() bool { return g.outW != nil }

// OutDegree returns |No(v)|, the number of out-neighbors of v.
func (g *Graph) OutDegree(v NodeID) int64 { return g.outOff[v+1] - g.outOff[v] }

// InDegree returns |Ni(v)|, the number of in-neighbors of v. The first
// In* call on a graph builds its transpose.
func (g *Graph) InDegree(v NodeID) int64 {
	t := g.transposed()
	return t.off[v+1] - t.off[v]
}

// OutNeighbors returns the sorted out-adjacency list of v. The returned
// slice aliases internal storage and must not be modified.
func (g *Graph) OutNeighbors(v NodeID) []NodeID {
	return g.outAdj[g.outOff[v]:g.outOff[v+1]]
}

// InNeighbors returns the sorted in-adjacency list of v, parallel edges
// kept. The returned slice aliases internal storage and must not be modified.
func (g *Graph) InNeighbors(v NodeID) []NodeID {
	t := g.transposed()
	return t.adj[t.off[v]:t.off[v+1]]
}

// OutWeights returns the weights parallel to OutNeighbors(v), or nil for an
// unweighted graph.
func (g *Graph) OutWeights(v NodeID) []float32 {
	if g.outW == nil {
		return nil
	}
	return g.outW[g.outOff[v]:g.outOff[v+1]]
}

// OutOffsets exposes the raw CSR offset array (len NumNodes+1). Read-only.
func (g *Graph) OutOffsets() []int64 { return g.outOff }

// OutAdjacency exposes the raw CSR edge array (len NumEdges). Read-only.
func (g *Graph) OutAdjacency() []NodeID { return g.outAdj }

// InOffsets exposes the transpose's offset array (len NumNodes+1). Read-only.
func (g *Graph) InOffsets() []int64 { return g.transposed().off }

// InAdjacency exposes the transpose's edge array (len NumEdges). Read-only.
func (g *Graph) InAdjacency() []NodeID { return g.transposed().adj }

// Edges materializes the edge list in source-major, then destination, order.
// Intended for tests and I/O, not hot paths.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	for v := 0; v < g.n; v++ {
		adj := g.OutNeighbors(NodeID(v))
		ws := g.OutWeights(NodeID(v))
		for i, u := range adj {
			e := Edge{Src: NodeID(v), Dst: u, W: 1}
			if ws != nil {
				e.W = ws[i]
			}
			out = append(out, e)
		}
	}
	return out
}

// DanglingCount returns the number of nodes with no out-edges. Dangling
// nodes matter to PageRank semantics (their mass leaks under the paper's
// formulation).
func (g *Graph) DanglingCount() int {
	c := 0
	for v := 0; v < g.n; v++ {
		if g.outOff[v+1] == g.outOff[v] {
			c++
		}
	}
	return c
}

// MaxOutDegree returns the largest out-degree in the graph.
func (g *Graph) MaxOutDegree() int64 {
	var mx int64
	for v := 0; v < g.n; v++ {
		if d := g.outOff[v+1] - g.outOff[v]; d > mx {
			mx = d
		}
	}
	return mx
}

// MaxInDegree returns the largest in-degree in the graph, counted over the
// out-edges without building the transpose.
func (g *Graph) MaxInDegree() int64 {
	deg := make([]int64, g.n)
	var mx int64
	for _, u := range g.outAdj {
		deg[u]++
		mx = max(mx, deg[u])
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

// Validate checks the structural invariants of the graph: the offset array
// is monotone and bounded, adjacency entries are valid node IDs with the MSB
// clear, per-node adjacency lists are sorted, and weights (if any) cover
// every edge. It returns nil when the graph is well-formed.
func (g *Graph) Validate() error {
	if g.n < 0 || int64(g.n) > MaxNodes {
		return fmt.Errorf("graph: node count %d out of range", g.n)
	}
	if len(g.outOff) != g.n+1 {
		return errors.New("graph: offset array has wrong length")
	}
	if g.outW != nil && int64(len(g.outW)) != g.m {
		return errors.New("graph: weight array has wrong length")
	}
	return g.validateCSR()
}

// validateCSR checks outOff and outAdj; Validate adds the length checks a
// graph built by this package passes by construction.
func (g *Graph) validateCSR() error {
	off, adj, n, m := g.outOff, g.outAdj, g.n, g.m
	if off[0] != 0 {
		return errors.New("graph: offsets do not start at 0")
	}
	if off[n] != m {
		return fmt.Errorf("graph: offsets end at %d, want %d", off[n], m)
	}
	if int64(len(adj)) != m {
		return fmt.Errorf("graph: adjacency length %d, want %d", len(adj), m)
	}
	for v := 0; v < n; v++ {
		if off[v+1] < off[v] {
			return fmt.Errorf("graph: offsets not monotone at node %d", v)
		}
		// Bound before slicing: monotonicity of the prefix alone does not
		// keep off[v+1] within adj when later offsets are garbage (the
		// offsets may be untrusted upload bytes).
		if off[v+1] > m {
			return fmt.Errorf("graph: offset of node %d exceeds edge count %d", v+1, m)
		}
		prev := int64(-1)
		for _, u := range adj[off[v]:off[v+1]] {
			if u&MSBMask != 0 {
				return fmt.Errorf("graph: adjacency of %d has MSB set: %#x", v, u)
			}
			if int(u) >= n {
				return fmt.Errorf("graph: adjacency of %d out of range: %d", v, u)
			}
			if int64(u) < prev {
				return fmt.Errorf("graph: adjacency of %d not sorted", v)
			}
			prev = int64(u)
		}
	}
	return nil
}

// Equal reports whether two graphs have identical structure and weights.
func (g *Graph) Equal(h *Graph) bool {
	if g.n != h.n || g.m != h.m || (g.outW == nil) != (h.outW == nil) {
		return false
	}
	for v := 0; v <= g.n; v++ {
		if g.outOff[v] != h.outOff[v] {
			return false
		}
	}
	for i := int64(0); i < g.m; i++ {
		if g.outAdj[i] != h.outAdj[i] {
			return false
		}
		if g.outW != nil && (math.Abs(float64(g.outW[i]-h.outW[i])) > 1e-6) {
			return false
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

// sortAdjRange sorts adj[lo:hi] (and weights if present) by neighbor ID.
func sortAdjRange(adj []NodeID, w []float32, lo, hi int64) {
	if w == nil {
		s := adj[lo:hi]
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		return
	}
	a, ws := adj[lo:hi], w[lo:hi]
	idx := make([]int, len(a))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return a[idx[i]] < a[idx[j]] })
	ta := make([]NodeID, len(a))
	tw := make([]float32, len(a))
	for i, k := range idx {
		ta[i], tw[i] = a[k], ws[k]
	}
	copy(a, ta)
	copy(ws, tw)
}

// Package graph provides the in-memory directed-graph substrate used by the
// PCPM PageRank reproduction: Compressed Sparse Row (out-edges) and
// Compressed Sparse Column (in-edges) adjacency, 32-bit node identifiers,
// optional edge weights, builders, and edge-list I/O.
//
// Node identifiers are uint32 with the most significant bit reserved, as in
// the paper (§3.2): PCPM uses the MSB of destination IDs to demarcate update
// boundaries, so graphs are limited to 2^31 nodes.
package graph

import (
	"errors"
	"fmt"
	"math"
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

// Graph is an immutable directed graph stored in both CSR (out-edges) and
// CSC (in-edges) form. Adjacency lists are sorted by neighbor ID; the PNG
// construction (internal/png) relies on that ordering to find partition
// runs without extra sorting.
//
// Offsets use int64 so the implementation is safe for any edge count the ID
// space allows; the analytical and simulated communication models still
// account offsets at the paper's 4 bytes per index.
type Graph struct {
	n int   // number of nodes
	m int64 // number of edges

	outOff []int64  // len n+1
	outAdj []NodeID // len m, sorted per source
	inOff  []int64  // len n+1
	inAdj  []NodeID // len m, sorted per destination

	// Optional weights, parallel to outAdj / inAdj. Either both nil or both set.
	outW []float32
	inW  []float32

	derived derivedSlot // see Derived
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
// Patch, RowBlock, Reverse — returns a graph holding none. Concurrent callers
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

// InDegree returns |Ni(v)|, the number of in-neighbors of v.
func (g *Graph) InDegree(v NodeID) int64 { return g.inOff[v+1] - g.inOff[v] }

// OutNeighbors returns the sorted out-adjacency list of v. The returned
// slice aliases internal storage and must not be modified.
func (g *Graph) OutNeighbors(v NodeID) []NodeID {
	return g.outAdj[g.outOff[v]:g.outOff[v+1]]
}

// InNeighbors returns the sorted in-adjacency list of v. The returned slice
// aliases internal storage and must not be modified.
func (g *Graph) InNeighbors(v NodeID) []NodeID {
	return g.inAdj[g.inOff[v]:g.inOff[v+1]]
}

// OutWeights returns the weights parallel to OutNeighbors(v), or nil for an
// unweighted graph.
func (g *Graph) OutWeights(v NodeID) []float32 {
	if g.outW == nil {
		return nil
	}
	return g.outW[g.outOff[v]:g.outOff[v+1]]
}

// InWeights returns the weights parallel to InNeighbors(v), or nil for an
// unweighted graph.
func (g *Graph) InWeights(v NodeID) []float32 {
	if g.inW == nil {
		return nil
	}
	return g.inW[g.inOff[v]:g.inOff[v+1]]
}

// OutOffsets exposes the raw CSR offset array (len NumNodes+1). Read-only.
func (g *Graph) OutOffsets() []int64 { return g.outOff }

// OutAdjacency exposes the raw CSR edge array (len NumEdges). Read-only.
func (g *Graph) OutAdjacency() []NodeID { return g.outAdj }

// InOffsets exposes the raw CSC offset array (len NumNodes+1). Read-only.
func (g *Graph) InOffsets() []int64 { return g.inOff }

// InAdjacency exposes the raw CSC edge array (len NumEdges). Read-only.
func (g *Graph) InAdjacency() []NodeID { return g.inAdj }

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

// MaxInDegree returns the largest in-degree in the graph.
func (g *Graph) MaxInDegree() int64 {
	var mx int64
	for v := 0; v < g.n; v++ {
		if d := g.inOff[v+1] - g.inOff[v]; d > mx {
			mx = d
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

// Validate checks the structural invariants of the graph: offset arrays are
// monotone and bounded, adjacency entries are valid node IDs with the MSB
// clear, per-node adjacency lists are sorted, and CSR/CSC agree on every
// degree. It returns nil when the graph is well-formed.
func (g *Graph) Validate() error {
	if g.n < 0 || int64(g.n) > MaxNodes {
		return fmt.Errorf("graph: node count %d out of range", g.n)
	}
	if len(g.outOff) != g.n+1 || len(g.inOff) != g.n+1 {
		return errors.New("graph: offset array has wrong length")
	}
	if err := validateCSR("out", g.outOff, g.outAdj, g.n, g.m); err != nil {
		return err
	}
	if err := validateCSR("in", g.inOff, g.inAdj, g.n, g.m); err != nil {
		return err
	}
	if (g.outW == nil) != (g.inW == nil) {
		return errors.New("graph: weight arrays inconsistent between CSR and CSC")
	}
	if g.outW != nil && (int64(len(g.outW)) != g.m || int64(len(g.inW)) != g.m) {
		return errors.New("graph: weight array has wrong length")
	}
	// Degree agreement: total in-degree must equal total out-degree per edge
	// endpoint. Spot-check by recomputing in-degrees from CSR.
	indeg := make([]int64, g.n)
	for _, u := range g.outAdj {
		indeg[u]++
	}
	for v := 0; v < g.n; v++ {
		if indeg[v] != g.inOff[v+1]-g.inOff[v] {
			return fmt.Errorf("graph: CSR/CSC in-degree mismatch at node %d", v)
		}
	}
	return nil
}

func validateCSR(kind string, off []int64, adj []NodeID, n int, m int64) error {
	if off[0] != 0 {
		return fmt.Errorf("graph: %s offsets do not start at 0", kind)
	}
	if off[n] != m {
		return fmt.Errorf("graph: %s offsets end at %d, want %d", kind, off[n], m)
	}
	if int64(len(adj)) != m {
		return fmt.Errorf("graph: %s adjacency length %d, want %d", kind, len(adj), m)
	}
	for v := 0; v < n; v++ {
		if off[v+1] < off[v] {
			return fmt.Errorf("graph: %s offsets not monotone at node %d", kind, v)
		}
		// Bound before slicing: monotonicity of the prefix alone does not
		// keep off[v+1] within adj when later offsets are garbage (the
		// offsets may be untrusted upload bytes).
		if off[v+1] > m {
			return fmt.Errorf("graph: %s offset of node %d exceeds edge count %d", kind, v+1, m)
		}
		prev := int64(-1)
		for _, u := range adj[off[v]:off[v+1]] {
			if u&MSBMask != 0 {
				return fmt.Errorf("graph: %s adjacency of %d has MSB set: %#x", kind, v, u)
			}
			if int(u) >= n {
				return fmt.Errorf("graph: %s adjacency of %d out of range: %d", kind, v, u)
			}
			if int64(u) < prev {
				return fmt.Errorf("graph: %s adjacency of %d not sorted", kind, v)
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
		if g.outOff[v] != h.outOff[v] || g.inOff[v] != h.inOff[v] {
			return false
		}
	}
	for i := int64(0); i < g.m; i++ {
		if g.outAdj[i] != h.outAdj[i] || g.inAdj[i] != h.inAdj[i] {
			return false
		}
		if g.outW != nil && (math.Abs(float64(g.outW[i]-h.outW[i])) > 1e-6) {
			return false
		}
	}
	return true
}

// Reverse returns a new graph with every edge direction flipped. CSR and
// CSC arrays swap roles, so this is O(1) apart from struct copying.
func (g *Graph) Reverse() *Graph {
	return &Graph{
		n: g.n, m: g.m,
		outOff: g.inOff, outAdj: g.inAdj, outW: g.inW,
		inOff: g.outOff, inAdj: g.outAdj, inW: g.outW,
	}
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

// Package scc computes the strongly connected components of a directed
// graph: iterative Tarjan, one sequential O(V+E) pass over the out-adjacency
// with an explicit frame stack, plus a size tally. Its readers are the
// component fields of graph.Stats (ComputeStats, StatsFor) and the
// condensation-aware row-block cut of shard.AssignSCC.
//
// Component identifiers are Tarjan's emission order: a component is numbered
// when its root's DFS frame finishes, after every component it reaches. So
// every edge u→v with Comp[u] != Comp[v] satisfies Comp[u] > Comp[v] (the
// numbering is a reverse topological order of the condensation), and equal
// graphs always get equal Results.
package scc

import (
	"math"

	"repro/internal/graph"
)

// Result is one completed decomposition.
type Result struct {
	// Comp maps each vertex to its component, dense in [0, NumComps) and
	// numbered in emission order (see the package doc).
	Comp []int32
	// NumComps is the number of strongly connected components.
	NumComps int
}

// LargestComponent returns the size of the largest component (0 for an
// empty graph).
func (r *Result) LargestComponent() int {
	sizes := make([]int, r.NumComps)
	largest := 0
	for _, c := range r.Comp {
		sizes[c]++
		largest = max(largest, sizes[c])
	}
	return largest
}

// StatsFor is graph.ComputeStats plus the component summary fields
// (Components, LargestComponent) filled from an existing decomposition of
// g — the graph package cannot fill them itself without importing this one.
func StatsFor(g *graph.Graph, r *Result) graph.Stats {
	s := g.ComputeStats()
	s.Components = r.NumComps
	s.LargestComponent = r.LargestComponent()
	return s
}

// ComputeStats is StatsFor over a fresh decomposition of g, for a caller
// that needs only the counts: the serving layer (once per graph structure)
// and the facade's ComputeGraphStats.
func ComputeStats(g *graph.Graph) graph.Stats { return StatsFor(g, Decompose(g, 0)) }

// Decompose computes the SCC decomposition of g. The second parameter is
// ignored: Tarjan is sequential. It remains only because the benchmark
// harness (bench/layer_scc.go, which cannot change with this package) calls
// Decompose(g, 0).
func Decompose(g *graph.Graph, _ int) *Result {
	n := g.NumNodes()
	// index is each vertex's DFS discovery number (undef until discovered)
	// and low its lowlink. Once a vertex's component is emitted its index
	// becomes done, which no lowlink is above, so the per-edge lowlink
	// update needs no separate on-stack test.
	const undef, done = int32(-1), int32(math.MaxInt32)
	index, low, comp := make([]int32, n), make([]int32, n), make([]int32, n)
	for v := range index {
		index[v] = undef
	}
	var next, numComps int32
	var stack []graph.NodeID
	type frame struct {
		v    graph.NodeID
		rest []graph.NodeID // v's out-edges not yet followed
	}
	var call []frame
	push := func(v graph.NodeID) {
		index[v], low[v] = next, next
		next++
		stack = append(stack, v)
		call = append(call, frame{v: v, rest: g.OutNeighbors(v)})
	}
	for root := 0; root < n; root++ {
		if index[root] != undef {
			continue
		}
		push(graph.NodeID(root))
		for len(call) > 0 {
			f := &call[len(call)-1]
			v, rest := f.v, f.rest
			for len(rest) > 0 && index[rest[0]] != undef {
				low[v] = min(low[v], index[rest[0]])
				rest = rest[1:]
			}
			if len(rest) > 0 {
				f.rest = rest[1:]
				push(rest[0])
				continue
			}
			call = call[:len(call)-1]
			if len(call) > 0 {
				p := call[len(call)-1].v
				low[p] = min(low[p], low[v])
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					comp[w], index[w] = numComps, done
					if w == v {
						break
					}
				}
				numComps++
			}
		}
	}
	return &Result{Comp: comp, NumComps: int(numComps)}
}

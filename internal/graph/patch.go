package graph

import (
	"fmt"
	"slices"
)

// Patch returns a new Graph with the given edges inserted and deleted,
// splicing only the adjacency ranges of changed vertices instead of
// round-tripping through an edge list and re-sorting every list — the
// structural half of the dynamic-graph subsystem (internal/delta), where a
// small batch must not pay an O(m log m) rebuild.
//
// Deletions are matched by (Src, Dst) and remove one parallel instance
// each; deleting a pair the graph does not hold is an error. On weighted
// graphs a deletion removes the first instance in adjacency order, and
// inserted edges with zero weight default to 1. Endpoints must be existing
// vertices: Patch never grows the node set.
func Patch(g *Graph, insert, del []Edge) (*Graph, error) {
	n := g.n
	if len(insert)+len(del) == 0 {
		return nil, fmt.Errorf("graph: empty edge patch")
	}
	for _, e := range insert {
		if int64(e.Src) >= int64(n) || int64(e.Dst) >= int64(n) {
			return nil, fmt.Errorf("graph: patch insert (%d,%d) out of range for %d nodes", e.Src, e.Dst, n)
		}
	}
	for _, e := range del {
		if int64(e.Src) >= int64(n) || int64(e.Dst) >= int64(n) {
			return nil, fmt.Errorf("graph: patch delete (%d,%d) out of range for %d nodes", e.Src, e.Dst, n)
		}
	}
	weighted := g.outW != nil

	// Rebuild the out-list of every vertex the batch touches.
	type list struct {
		adj []NodeID
		w   []float32
	}
	ins, dels := make(map[NodeID][]Edge), make(map[NodeID][]Edge)
	patched := make(map[NodeID]list, len(insert)+len(del))
	for _, e := range insert {
		if weighted && e.W == 0 {
			e.W = 1
		}
		ins[e.Src], patched[e.Src] = append(ins[e.Src], e), list{}
	}
	for _, e := range del {
		dels[e.Src], patched[e.Src] = append(dels[e.Src], e), list{}
	}
	changed := make([]NodeID, 0, len(patched))
	for v := range patched {
		changed = append(changed, v)
		lo, hi := g.outOff[v], g.outOff[v+1]
		adj := append([]NodeID(nil), g.outAdj[lo:hi]...)
		var w []float32
		if weighted {
			w = append([]float32(nil), g.outW[lo:hi]...)
		}
		for _, e := range dels[v] {
			i, found := slices.BinarySearch(adj, e.Dst) // the first instance
			if !found {
				return nil, fmt.Errorf("graph: patch delete of absent edge (%d,%d)", e.Src, e.Dst)
			}
			adj = slices.Delete(adj, i, i+1)
			if weighted {
				w = slices.Delete(w, i, i+1)
			}
		}
		for _, e := range ins[v] {
			i, _ := slices.BinarySearch(adj, e.Dst)
			adj = slices.Insert(adj, i, e.Dst)
			if weighted {
				w = slices.Insert(w, i, e.W)
			}
		}
		patched[v] = list{adj: adj, w: w}
	}

	// Splice the rebuilt lists between the untouched spans of the old
	// arrays: one bulk copy per run of unchanged vertices, whose offsets are
	// the old ones plus the length change accumulated so far.
	slices.Sort(changed)
	m2 := g.m + int64(len(insert)) - int64(len(del))
	ng := &Graph{n: n, m: m2, outOff: make([]int64, n+1), outAdj: make([]NodeID, 0, m2)}
	if weighted {
		ng.outW = make([]float32, 0, m2)
	}
	var shift int64
	span := func(from, to int) { // unchanged vertices [from, to), and offset to
		ng.outAdj = append(ng.outAdj, g.outAdj[g.outOff[from]:g.outOff[to]]...)
		if weighted {
			ng.outW = append(ng.outW, g.outW[g.outOff[from]:g.outOff[to]]...)
		}
		for v := from; v <= to; v++ {
			ng.outOff[v] = g.outOff[v] + shift
		}
	}
	next := 0
	for _, v := range changed {
		span(next, int(v))
		ng.outAdj = append(ng.outAdj, patched[v].adj...)
		if weighted {
			ng.outW = append(ng.outW, patched[v].w...)
		}
		shift += int64(len(patched[v].adj)) - (g.outOff[v+1] - g.outOff[v])
		next = int(v) + 1
	}
	span(next, n)
	return ng, nil
}

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
// graphs a deletion removes the first instance in adjacency order and the
// CSC side drops the same instance (matched by weight), keeping the two
// layouts describing the same multigraph; inserted edges with zero weight
// default to 1. Endpoints must be existing vertices: Patch never grows the
// node set.
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

	m2 := g.m + int64(len(insert)) - int64(len(del))
	type list struct {
		adj []NodeID
		w   []float32
	}
	removedW := make(map[uint64][]float32, len(del)) // (src,dst) key -> removed instance weights
	// side builds one direction of the new graph — out-lists (keyed by source,
	// holding destinations) or in-lists (the reverse) — from the old one. The
	// out side goes first and records the weight of every instance it removes,
	// so the in side drops the same one.
	side := func(out bool, oldOff []int64, oldAdj []NodeID, oldW []float32) ([]int64, []NodeID, []float32, error) {
		ends := func(e Edge) (at, nbr NodeID) {
			if out {
				return e.Src, e.Dst
			}
			return e.Dst, e.Src
		}
		// Rebuild the list of every vertex the batch touches.
		ins, dels := make(map[NodeID][]Edge), make(map[NodeID][]Edge)
		patched := make(map[NodeID]list, len(insert)+len(del))
		for _, e := range insert {
			if weighted && e.W == 0 {
				e.W = 1
			}
			at, _ := ends(e)
			ins[at], patched[at] = append(ins[at], e), list{}
		}
		for _, e := range del {
			at, _ := ends(e)
			dels[at], patched[at] = append(dels[at], e), list{}
		}
		changed := make([]NodeID, 0, len(patched))
		for v := range patched {
			changed = append(changed, v)
			adj := append([]NodeID(nil), oldAdj[oldOff[v]:oldOff[v+1]]...)
			var w []float32
			if weighted {
				w = append([]float32(nil), oldW[oldOff[v]:oldOff[v+1]]...)
			}
			for _, e := range dels[v] {
				_, nbr := ends(e)
				i, found := slices.BinarySearch(adj, nbr) // the first instance
				if !found {
					if out {
						return nil, nil, nil, fmt.Errorf("graph: patch delete of absent edge (%d,%d)", e.Src, e.Dst)
					}
					// The out-side delete succeeded, so CSR/CSC disagree.
					return nil, nil, nil, fmt.Errorf("graph: CSC missing edge (%d,%d) present in CSR", e.Src, e.Dst)
				}
				if weighted {
					key := uint64(e.Src)<<32 | uint64(e.Dst)
					if out {
						removedW[key] = append(removedW[key], w[i])
					} else {
						// Drop the instance whose weight the out side removed (the
						// first one if weights drifted between the sides), so the two
						// layouts keep identical per-pair weight multisets.
						want := removedW[key][0]
						removedW[key] = removedW[key][1:]
						for j := i; j < len(adj) && adj[j] == nbr; j++ {
							if w[j] == want {
								i = j
								break
							}
						}
					}
					w = slices.Delete(w, i, i+1)
				}
				adj = slices.Delete(adj, i, i+1)
			}
			for _, e := range ins[v] {
				_, nbr := ends(e)
				i, _ := slices.BinarySearch(adj, nbr)
				adj = slices.Insert(adj, i, nbr)
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
		off, adj := make([]int64, n+1), make([]NodeID, 0, m2)
		var w []float32
		if weighted {
			w = make([]float32, 0, m2)
		}
		var shift int64
		span := func(from, to int) { // unchanged vertices [from, to), and offset to
			adj = append(adj, oldAdj[oldOff[from]:oldOff[to]]...)
			if weighted {
				w = append(w, oldW[oldOff[from]:oldOff[to]]...)
			}
			for v := from; v <= to; v++ {
				off[v] = oldOff[v] + shift
			}
		}
		next := 0
		for _, v := range changed {
			span(next, int(v))
			adj = append(adj, patched[v].adj...)
			if weighted {
				w = append(w, patched[v].w...)
			}
			shift += int64(len(patched[v].adj)) - (oldOff[v+1] - oldOff[v])
			next = int(v) + 1
		}
		span(next, n)
		return off, adj, w, nil
	}
	ng := &Graph{n: n, m: m2}
	var err error
	if ng.outOff, ng.outAdj, ng.outW, err = side(true, g.outOff, g.outAdj, g.outW); err != nil {
		return nil, err
	}
	if ng.inOff, ng.inAdj, ng.inW, err = side(false, g.inOff, g.inAdj, g.inW); err != nil {
		return nil, err
	}
	return ng, nil
}

package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// Patch returns a new Graph with the given edges inserted and deleted,
// splicing only the adjacency ranges of changed vertices instead of
// round-tripping through an edge list and re-sorting every list — the
// structural half of the dynamic-graph subsystem (internal/delta), where a
// small batch must not pay an O(m log m) rebuild.
//
// Only the chunks that hold a changed source are rebuilt; the new graph
// shares every other chunk with g, so a batch costs the touched chunks plus
// the chunk table, not the graph. g is not modified.
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
	// By source, each source's edges in input order: a list takes its
	// deletions, then its insertions, in the order the batch names them.
	bySrc := func(a, b Edge) int { return cmp.Compare(a.Src, b.Src) }
	ins := slices.Clone(insert)
	slices.SortStableFunc(ins, bySrc)
	dels := slices.Clone(del)
	slices.SortStableFunc(dels, bySrc)
	if g.weighted {
		for i := range ins {
			if ins[i].W == 0 {
				ins[i].W = 1
			}
		}
	}

	ng := &Graph{n: n, m: g.m + int64(len(insert)) - int64(len(del)), weighted: g.weighted, out: slices.Clone(g.out)}
	for len(ins)+len(dels) > 0 {
		c := int(minSrc(ins, dels) >> ChunkShift)
		end := NodeID(c<<ChunkShift + chunkLen(n, c)) // one past the chunk's last source
		ci := cutBefore(ins, end)
		cd := cutBefore(dels, end)
		ch, err := patchChunk(&g.out[c], NodeID(c<<ChunkShift), ins[:ci], dels[:cd])
		if err != nil {
			return nil, err
		}
		ng.out[c] = ch
		ins, dels = ins[ci:], dels[cd:]
	}
	return ng, nil
}

// minSrc returns the smallest source of two source-sorted batches, not both
// empty.
func minSrc(a, b []Edge) NodeID {
	switch {
	case len(a) == 0:
		return b[0].Src
	case len(b) == 0:
		return a[0].Src
	}
	return min(a[0].Src, b[0].Src)
}

// cutBefore returns the number of edges of the source-sorted batch es whose
// source is below end.
func cutBefore(es []Edge, end NodeID) int {
	i, _ := slices.BinarySearchFunc(es, end, func(e Edge, t NodeID) int { return cmp.Compare(e.Src, t) })
	return i
}

// patchChunk rebuilds chunk old, whose first source is base, with the
// batch's edges of its sources (sorted by source): one bulk copy per run of
// unchanged lists, whose offsets are the old ones plus the length change
// accumulated so far, and every changed list spliced in place at the end of
// the new arrays.
func patchChunk(old *Chunk, base NodeID, ins, dels []Edge) (Chunk, error) {
	k := len(old.Off) - 1
	m := len(old.Adj) + len(ins) - len(dels)
	ch := Chunk{Off: make([]int64, k+1), Adj: make([]NodeID, 0, m)}
	if old.W != nil {
		ch.W = make([]float32, 0, m)
	}
	next := 0 // the first list not yet copied
	// span copies the unchanged lists [next, to) and writes their offsets,
	// up to to's.
	span := func(to int) {
		shift := int64(len(ch.Adj)) - old.Off[next]
		ch.Adj = append(ch.Adj, old.Adj[old.Off[next]:old.Off[to]]...)
		if old.W != nil {
			ch.W = append(ch.W, old.W[old.Off[next]:old.Off[to]]...)
		}
		for i := next + 1; i <= to; i++ {
			ch.Off[i] = old.Off[i] + shift
		}
	}
	for len(ins)+len(dels) > 0 {
		v := minSrc(ins, dels)
		i := int(v - base)
		span(i)
		// v's list, copied to the end of the new arrays and edited there.
		at := len(ch.Adj)
		ch.Adj = append(ch.Adj, old.Adj[old.Off[i]:old.Off[i+1]]...)
		if old.W != nil {
			ch.W = append(ch.W, old.W[old.Off[i]:old.Off[i+1]]...)
		}
		for ; len(dels) > 0 && dels[0].Src == v; dels = dels[1:] {
			e := dels[0]
			j, found := slices.BinarySearch(ch.Adj[at:], e.Dst) // the first instance
			if !found {
				return Chunk{}, fmt.Errorf("graph: patch delete of absent edge (%d,%d)", e.Src, e.Dst)
			}
			ch.Adj = slices.Delete(ch.Adj, at+j, at+j+1)
			if old.W != nil {
				ch.W = slices.Delete(ch.W, at+j, at+j+1)
			}
		}
		for ; len(ins) > 0 && ins[0].Src == v; ins = ins[1:] {
			e := ins[0]
			j, _ := slices.BinarySearch(ch.Adj[at:], e.Dst)
			ch.Adj = slices.Insert(ch.Adj, at+j, e.Dst)
			if old.W != nil {
				ch.W = slices.Insert(ch.W, at+j, e.W)
			}
		}
		ch.Off[i+1] = int64(len(ch.Adj))
		next = i + 1
	}
	span(k)
	return ch, nil
}

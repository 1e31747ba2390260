// Package shard is the benchmark's probe surface for row-block PageRank: the
// vertex space is cut into contiguous row blocks (Assign, AssignSCC), each
// block's in-edges travel as one payload (WritePayload, ReadPayload), and a
// BlockSolver runs one partition-centric round over a block given the full
// rank vector (the row-block CSR / allgather shape of MPI PageRank).
//
// The serving fleet built from these pieces is retired: on the same cores it
// solved 2.2–3.0× slower than one in-process PCPM solve, and its coordinator
// held the whole graph and vector anyway (docs/PAPER_MAPPING.md, "the shard
// fleet, retired"). No package but the benchmark's layer probe imports this
// one; the probe keeps reporting assignment, payload and per-round block
// costs until it is dropped, and the package goes with it.
package shard

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/scc"
)

// Range is a half-open block of vertex IDs [Lo, Hi) owned by one shard.
// Empty ranges (Lo == Hi) are legal — an assignment may have more blocks
// than the graph can usefully cut.
type Range struct {
	Lo graph.NodeID `json:"lo"`
	Hi graph.NodeID `json:"hi"`
}

// Len returns the number of vertices in the range.
func (r Range) Len() int { return int(r.Hi - r.Lo) }

// Assignment maps shard index to its row block. Ranges are contiguous and
// ascending: shard i+1 starts where shard i ends, and together they cover
// [0, n) exactly.
type Assignment []Range

// Validate checks contiguity and coverage of the full [0, n) vertex space.
func (a Assignment) Validate(n int) error {
	if len(a) == 0 {
		return fmt.Errorf("shard: empty assignment")
	}
	prev := graph.NodeID(0)
	for i, r := range a {
		if r.Lo != prev || r.Hi < r.Lo {
			return fmt.Errorf("shard: range %d = [%d, %d) breaks contiguity at %d", i, r.Lo, r.Hi, prev)
		}
		prev = r.Hi
	}
	if int64(prev) != int64(n) {
		return fmt.Errorf("shard: assignment covers [0, %d), graph has %d nodes", prev, n)
	}
	return nil
}

// Assign cuts [0, n) into shards contiguous row blocks balanced by gather
// work: each block's cost is its in-edge count plus one per vertex (so the
// rank-update and exchange O(block) terms still spread when in-degrees are
// skewed to one end of the ID space).
func Assign(g *graph.Graph, shards int) Assignment {
	n := g.NumNodes()
	if shards < 1 {
		shards = 1
	}
	prefix := costPrefix(g)
	a := make(Assignment, shards)
	total := prefix[n]
	prev := 0
	for i := 0; i < shards; i++ {
		var cut int
		if i == shards-1 {
			cut = n
		} else {
			target := total * int64(i+1) / int64(shards)
			cut = sort.Search(n+1, func(v int) bool { return prefix[v] >= target })
			if cut < prev {
				cut = prev
			}
		}
		a[i] = Range{Lo: graph.NodeID(prev), Hi: graph.NodeID(cut)}
		prev = cut
	}
	return a
}

// AssignSCC is Assign made condensation-aware: balanced cut points are
// snapped to the nearest vertex position no strongly connected component
// straddles, when one exists within a window of the balanced cut. Keeping a
// component on one worker keeps its internal (densest, per the clustering
// argument) edges off the exchange path. Components whose member IDs are not
// contiguous leave no clean position near the cut, in which case the
// balanced cut stands.
func AssignSCC(g *graph.Graph, r *scc.Result, shards int) Assignment {
	n := g.NumNodes()
	if r == nil || n == 0 || shards < 2 {
		return Assign(g, shards)
	}
	// span[c] is component c's (minID, maxID+1), read off Comp in ascending
	// vertex order, so a zero end means "not seen yet".
	span := make([][2]int32, r.NumComps)
	for v, c := range r.Comp {
		if span[c][1] == 0 {
			span[c][0] = int32(v)
		}
		span[c][1] = int32(v) + 1
	}
	// dirty[b] == true when some component has members both below and at-or-
	// above position b, i.e. cutting at b splits it. Mark each component's
	// (minID, maxID] span via a difference array; a singleton's is empty.
	diff := make([]int32, n+2)
	for _, s := range span {
		diff[s[0]+1]++
		diff[s[1]]--
	}
	dirty := make([]bool, n+1)
	var open int32
	for b := 0; b <= n; b++ {
		open += diff[b]
		dirty[b] = open > 0
	}
	base := Assign(g, shards)
	window := n / (2 * shards)
	if window < 1 {
		window = 1
	}
	prev := 0
	for i := 0; i < shards-1; i++ {
		cut := int(base[i].Hi)
		if dirty[cut] {
			if snapped, ok := nearestClean(dirty, cut, prev, n, window); ok {
				cut = snapped
			}
		}
		if cut < prev {
			cut = prev
		}
		base[i] = Range{Lo: graph.NodeID(prev), Hi: graph.NodeID(cut)}
		prev = cut
	}
	base[shards-1] = Range{Lo: graph.NodeID(prev), Hi: graph.NodeID(n)}
	return base
}

// nearestClean scans outward from cut for the closest position in
// (lo, hiBound] that no component straddles, within the window.
func nearestClean(dirty []bool, cut, lo, hiBound, window int) (int, bool) {
	for d := 1; d <= window; d++ {
		if p := cut - d; p > lo && p <= hiBound && !dirty[p] {
			return p, true
		}
		if p := cut + d; p > lo && p <= hiBound && !dirty[p] {
			return p, true
		}
	}
	return 0, false
}

func costPrefix(g *graph.Graph) []int64 {
	n := g.NumNodes()
	prefix := make([]int64, n+1)
	for _, ch := range g.Chunks() { // in-degrees, without the transpose
		for _, u := range ch.Adj {
			prefix[u+1]++
		}
	}
	for v := 0; v < n; v++ {
		prefix[v+1] += prefix[v] + 1
	}
	return prefix
}

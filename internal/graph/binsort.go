package graph

import (
	"cmp"
	"slices"

	"repro/internal/par"
)

// blockShift sets the key-block width of binSort: keys k with equal
// k>>blockShift share a block. 4096 keys keep a block's write cursors
// (32 KB) in cache while it is placed, and a key's offset inside its block
// fits in 16 bits.
const blockShift = 12

const blockMask = 1<<blockShift - 1

// binSort is the package's counting sort. It groups items with keys in
// [0, n) into CSR form — off (len n+1) and val, plus w when weighted —
// keeping each key's items in input order, optionally sorting and
// deduplicating every list. The builder keys edges by source; the transpose
// keys them by destination.
//
// It is the binned scatter of §3.1, as png.BuildCSR uses it: the input comes
// in chunks, the keys in blocks, and per-(chunk, block) counts whose prefix
// sums give every chunk a disjoint, order-preserving range in every block.
// Memory beyond the output is a 2-byte block-local key per item, one count
// per (chunk, block) cell, and per worker one block's worth of scratch.
type binSort struct {
	n         int
	weighted  bool
	sortLists bool // sort each list by value, stably when weighted
	dedup     bool // then collapse equal values, summing weights in input order
}

// binScan is one chunk's handle on a binSort in progress. The chunk's scan
// calls add once per item it keeps, in input order: the first pass counts
// the item into its block, the second writes it into the block's range.
type binScan struct {
	cell []int64 // per block: items counted (pass 1), next write slot (pass 2)
	key  []uint16
	val  []NodeID
	w    []float32
}

func (s *binScan) add(key, val NodeID, w float32) {
	b := key >> blockShift
	if s.key == nil {
		s.cell[b]++
		return
	}
	p := s.cell[b]
	s.cell[b] = p + 1
	s.key[p] = uint16(key & blockMask)
	s.val[p] = val
	if s.w != nil {
		s.w[p] = w
	}
}

// run sorts the items that scan(s, c) feeds for chunks c in [0, chunks).
// scan is called twice per chunk, concurrently across chunks, and must feed
// the same items in the same order both times. An error from the first call
// aborts the sort; with several, the lowest chunk's is returned. The output
// does not depend on chunks or on the worker count.
func (bs binSort) run(chunks int, scan func(s *binScan, c int) error) (off []int64, val []NodeID, w []float32, err error) {
	blocks := (bs.n + blockMask) >> blockShift
	cell := make([]int64, chunks*blocks) // cell[c*blocks+b]
	scans := make([]binScan, chunks)
	for c := range scans {
		scans[c].cell = cell[c*blocks : (c+1)*blocks]
	}

	// Pass 1 (parallel over chunks): count.
	errs := make([]error, chunks)
	par.ForDynamic(chunks, chunks, func(c int) { errs[c] = scan(&scans[c], c) })
	for _, err := range errs {
		if err != nil {
			return nil, nil, nil, err
		}
	}

	// Prefix sums over (block, chunk): block b's items occupy
	// [start[b], start[b+1]), chunk 0's first.
	start := make([]int64, blocks+1)
	var m int64
	for b := 0; b < blocks; b++ {
		start[b] = m
		for c := 0; c < chunks; c++ {
			m, cell[c*blocks+b] = m+cell[c*blocks+b], m
		}
	}
	start[blocks] = m

	// Pass 2 (parallel over chunks): scatter. A block's range of val and w
	// is already its final range, so only the keys need a temporary.
	key := make([]uint16, m)
	val = make([]NodeID, m)
	if bs.weighted {
		w = make([]float32, m)
	}
	for c := range scans {
		scans[c].key, scans[c].val, scans[c].w = key, val, w
	}
	par.ForDynamic(chunks, chunks, func(c int) { _ = scan(&scans[c], c) }) // pass 1 accepted every item

	// Pass 3 (parallel over blocks): place each block's items at their keys.
	off = make([]int64, bs.n+1)
	kept := make([]int64, blocks) // items per block after dedup
	workers := par.Workers(0)
	scratch := make([]placeScratch, workers)
	par.ForDynamicWorker(blocks, workers, func(wk, b int) {
		kept[b] = bs.place(&scratch[wk], b, start[b], start[b+1], off, key, val, w)
	})
	if !bs.dedup {
		return off, val, w, nil
	}

	// Compaction (sequential, ascending, so no block overwrites one that is
	// still to move): close the gaps dedup left at the end of each block.
	var at int64
	for b := 0; b < blocks; b++ {
		s, k := start[b], kept[b]
		if at != s {
			copy(val[at:at+k], val[s:s+k])
			if w != nil {
				copy(w[at:at+k], w[s:s+k])
			}
			for v := b<<blockShift + 1; v <= min((b+1)<<blockShift, bs.n); v++ {
				off[v] -= s - at
			}
		}
		at += k
	}
	if at < m {
		val = slices.Clone(val[:at])
		if w != nil {
			w = slices.Clone(w[:at])
		}
	}
	return off, val, w, nil
}

// placeScratch is one pass-3 worker's reusable memory.
type placeScratch struct {
	cur   []int64 // per block-local key: next write slot
	val   []NodeID
	w     []float32
	pairs []adjWeight
}

// place runs pass 3 on block b, whose items sit in [s, e) in scatter order:
// it writes off for the block's keys and moves the items to their slots,
// stable, through a copy of the block, then finishes each list. It returns
// the number of items the block keeps, packed from s.
func (bs binSort) place(ps *placeScratch, b int, s, e int64, off []int64, key []uint16, val []NodeID, w []float32) int64 {
	lo := b << blockShift
	hi := min(lo+1<<blockShift, bs.n)
	if ps.cur == nil {
		ps.cur = make([]int64, 1<<blockShift)
	}
	cur := ps.cur[:hi-lo]
	clear(cur)
	keys := key[s:e]
	for _, k := range keys {
		cur[k]++
	}
	at := s
	for k, d := range cur {
		cur[k] = at
		at += d
		off[lo+k+1] = at
	}
	ps.val = append(ps.val[:0], val[s:e]...)
	if w != nil {
		ps.w = append(ps.w[:0], w[s:e]...)
	}
	for i, k := range keys {
		p := cur[k]
		cur[k] = p + 1
		val[p] = ps.val[i]
		if w != nil {
			w[p] = ps.w[i]
		}
	}
	if !bs.sortLists {
		return e - s
	}
	from, to := s, s // the list being finished
	at = s           // under dedup, where the next kept entry goes
	for v := lo; v < hi; v++ {
		from, to = to, off[v+1]
		var ws []float32
		if w != nil {
			ws = w[from:to]
		}
		sortAdjRange(val[from:to], ws, &ps.pairs)
		if bs.dedup {
			at = collapse(val, w, from, to, at)
			off[v+1] = at
		}
	}
	if bs.dedup {
		return at - s
	}
	return e - s
}

// adjWeight is a weighted list entry, for the stable sort.
type adjWeight struct {
	v NodeID
	w float32
}

// sortAdjRange sorts one adjacency list (and its weights, if w is non-nil)
// by neighbor ID. An unweighted list is sorted in place by slices.Sort. A
// weighted list is sorted stably, so parallel edges keep their input order,
// through *pairs, a buffer the caller reuses across lists.
func sortAdjRange(adj []NodeID, w []float32, pairs *[]adjWeight) {
	if w == nil {
		slices.Sort(adj)
		return
	}
	ps := (*pairs)[:0]
	for i, v := range adj {
		ps = append(ps, adjWeight{v, w[i]})
	}
	slices.SortStableFunc(ps, func(a, b adjWeight) int { return cmp.Compare(a.v, b.v) })
	for i, p := range ps {
		adj[i], w[i] = p.v, p.w
	}
	*pairs = ps
}

// collapse copies the sorted list val[from:to] to val[at:], keeping one
// entry per distinct value and, when w is non-nil, summing the weights of
// each run in list order. at <= from, so nothing is overwritten before it is
// read. It returns the slot after the last entry kept.
func collapse(val []NodeID, w []float32, from, to, at int64) int64 {
	first := at
	for i := from; i < to; i++ {
		if at > first && val[i] == val[at-1] {
			if w != nil {
				w[at-1] += w[i]
			}
			continue
		}
		val[at] = val[i]
		if w != nil {
			w[at] = w[i]
		}
		at++
	}
	return at
}

// edgeSplit returns chunks+1 vertex bounds cutting off's edges into chunks
// ranges of about equal edge count.
func edgeSplit(off []int64, chunks int) []int {
	n := len(off) - 1
	m := off[n]
	bounds := make([]int, chunks+1)
	for c := 1; c < chunks; c++ {
		bounds[c], _ = slices.BinarySearch(off, int64(c)*m/int64(chunks))
	}
	bounds[chunks] = n
	return bounds
}

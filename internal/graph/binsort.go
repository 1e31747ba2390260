package graph

import (
	"cmp"
	"slices"

	"repro/internal/par"
)

// binSort is the package's counting sort. It groups items with keys in
// [0, n) into chunked CSR form — one Chunk per ChunkSize keys, with W when
// weighted — keeping each key's items in input order, optionally sorting and
// deduplicating every list. The builder keys edges by source; the transpose
// keys them by destination.
//
// It is the binned scatter of §3.1, as png.BuildCSR uses it: the input comes
// in parts, the keys in blocks of ChunkSize, and per-(part, block) counts
// whose prefix sums give every part a disjoint, order-preserving range in
// every block. A block, once placed, is a chunk: its offsets count from its
// own start and its lists are its range of one values array, which every
// chunk of the output slices. Memory beyond the output is a 2-byte
// block-local key per item, one count per (part, block) cell, and per worker
// one block's worth of scratch.
type binSort struct {
	n         int
	weighted  bool
	sortLists bool // sort each list by value, stably when weighted
	dedup     bool // then collapse equal values, summing weights in input order
}

// binScan is one part's handle on a binSort in progress. The part's scan
// calls add once per item it keeps, in input order: the first pass counts
// the item into its block, the second writes it into the block's range.
type binScan struct {
	cell []int64 // per block: items counted (pass 1), next write slot (pass 2)
	key  []uint16
	val  []NodeID
	w    []float32
}

func (s *binScan) add(key, val NodeID, w float32) {
	b := key >> ChunkShift
	if s.key == nil {
		s.cell[b]++
		return
	}
	p := s.cell[b]
	s.cell[b] = p + 1
	s.key[p] = uint16(key & chunkMask)
	s.val[p] = val
	if s.w != nil {
		s.w[p] = w
	}
}

// run sorts the items that scan(s, p) feeds for parts p in [0, parts).
// scan is called twice per part, concurrently across parts, and must feed
// the same items in the same order both times. An error from the first call
// aborts the sort; with several, the lowest part's is returned. The output
// does not depend on parts or on the worker count.
func (bs binSort) run(parts int, scan func(s *binScan, p int) error) ([]Chunk, error) {
	blocks := numChunks(bs.n)
	cell := make([]int64, parts*blocks) // cell[p*blocks+b]
	scans := make([]binScan, parts)
	for p := range scans {
		scans[p].cell = cell[p*blocks : (p+1)*blocks]
	}

	// Pass 1 (parallel over parts): count.
	errs := make([]error, parts)
	par.ForDynamic(parts, parts, func(p int) { errs[p] = scan(&scans[p], p) })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Prefix sums over (block, part): block b's items occupy
	// [start[b], start[b+1]), part 0's first.
	start := make([]int64, blocks+1)
	var m int64
	for b := 0; b < blocks; b++ {
		start[b] = m
		for p := 0; p < parts; p++ {
			m, cell[p*blocks+b] = m+cell[p*blocks+b], m
		}
	}
	start[blocks] = m

	// Pass 2 (parallel over parts): scatter. A block's range of val and w
	// is already its final range, so only the keys need a temporary.
	key := make([]uint16, m)
	val := make([]NodeID, m)
	var w []float32
	if bs.weighted {
		w = make([]float32, m)
	}
	for p := range scans {
		scans[p].key, scans[p].val, scans[p].w = key, val, w
	}
	par.ForDynamic(parts, parts, func(p int) { _ = scan(&scans[p], p) }) // pass 1 accepted every item

	// Pass 3 (parallel over blocks): place each block's items at their keys,
	// writing its chunk offsets. Chunk b's offsets start at b<<ChunkShift + b
	// of one array.
	offs := make([]int64, bs.n+blocks)
	chunks := make([]Chunk, blocks)
	for b := range chunks {
		lo := b << ChunkShift
		hi := lo + chunkLen(bs.n, b)
		chunks[b].Off = offs[lo+b : hi+b+1 : hi+b+1]
	}
	kept := make([]int64, blocks) // items per block after dedup
	workers := par.Workers(0)
	scratch := make([]placeScratch, workers)
	par.ForDynamicWorker(blocks, workers, func(wk, b int) {
		kept[b] = bs.place(&scratch[wk], start[b], start[b+1], chunks[b].Off, key, val, w)
	})

	// Compaction under dedup (sequential, ascending, so no block overwrites
	// one that is still to move): close the gaps dedup left at the end of
	// each block. Offsets count from the block's start, so they stay.
	if bs.dedup {
		var at int64
		for b := 0; b < blocks; b++ {
			s, k := start[b], kept[b]
			if at != s {
				copy(val[at:at+k], val[s:s+k])
				if w != nil {
					copy(w[at:at+k], w[s:s+k])
				}
			}
			start[b] = at
			at += k
		}
		start[blocks] = at
		if at < m {
			val = slices.Clone(val[:at])
			if w != nil {
				w = slices.Clone(w[:at])
			}
		}
	}
	for b := range chunks {
		s, e := start[b], start[b+1]
		chunks[b].Adj = val[s:e:e]
		if w != nil {
			chunks[b].W = w[s:e:e]
		}
	}
	return chunks, nil
}

// placeScratch is one pass-3 worker's reusable memory.
type placeScratch struct {
	cur   []int64 // per block-local key: next write slot
	val   []NodeID
	w     []float32
	pairs []adjWeight
}

// place runs pass 3 on one block, whose items sit in [s, e) in scatter
// order: it writes the block's chunk offsets off (off[0] stays 0) and moves
// the items to their slots, stable, through a copy of the block, then
// finishes each list. It returns the number of items the block keeps, packed
// from s.
func (bs binSort) place(ps *placeScratch, s, e int64, off []int64, key []uint16, val []NodeID, w []float32) int64 {
	if ps.cur == nil {
		ps.cur = make([]int64, ChunkSize)
	}
	cur := ps.cur[:len(off)-1]
	clear(cur)
	keys := key[s:e]
	for _, k := range keys {
		cur[k]++
	}
	at := s
	for k, d := range cur {
		cur[k] = at
		at += d
		off[k+1] = at - s
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
	for i := range len(off) - 1 {
		from, to = to, s+off[i+1]
		var ws []float32
		if w != nil {
			ws = w[from:to]
		}
		sortAdjRange(val[from:to], ws, &ps.pairs)
		if bs.dedup {
			at = collapse(val, w, from, to, at)
			off[i+1] = at - s
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

// chunkSplit returns parts+1 chunk bounds cutting chunks into parts ranges
// of about equal edge count.
func chunkSplit(chunks []Chunk, parts int) []int {
	at := make([]int64, len(chunks)+1) // edges before chunk c
	for c := range chunks {
		at[c+1] = at[c] + int64(len(chunks[c].Adj))
	}
	m := at[len(chunks)]
	bounds := make([]int, parts+1)
	for p := 1; p < parts; p++ {
		bounds[p], _ = slices.BinarySearch(at[:len(chunks)], int64(p)*m/int64(parts))
	}
	bounds[parts] = len(chunks)
	return bounds
}

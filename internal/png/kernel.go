package png

import (
	"repro/internal/graph"
	"repro/internal/par"
)

// Kernel is the one scatter/gather pair over a PNG. It owns the update bins
// and the per-worker partial-sum scratch; what a gathered sum means (a
// PageRank update, a row of y = A·x, a shard's block slice) is the caller's
// Apply function, called once per destination partition.
type Kernel struct {
	PNG *PNG
	// Updates[q] is destination bin q's update array (len UpdateCount[q]),
	// rewritten by every Scatter.
	Updates [][]float32
	// Schedule runs fn(worker, i) for every i in [0, n), with worker below
	// the count given to SetWorkers. NewKernel installs the paper's dynamic
	// schedule; the PageRank engine's static-schedule ablation replaces it.
	Schedule func(n int, fn func(worker, i int))

	workers int
	sums    [][]float32  // per worker: partial sums of one row partition
	results [][2]float64 // per row partition: what Apply returned
}

// Apply finalizes destination partition [lo, hi): sums[i] is the value
// accumulated for row lo+i. Gather adds up each of its two results over the
// partitions, in partition order, so the totals do not depend on which
// worker ran which partition.
type Apply func(lo, hi graph.NodeID, sums []float32) (a, b float64)

// NewKernel allocates the bins and scratch for p.
func NewKernel(p *PNG, workers int) *Kernel {
	k := &Kernel{PNG: p, Updates: make([][]float32, p.KRows), results: make([][2]float64, p.KRows)}
	for q := range k.Updates {
		k.Updates[q] = make([]float32, p.UpdateCount[q])
	}
	k.Schedule = func(n int, fn func(worker, i int)) { par.ForDynamicWorker(n, k.workers, fn) }
	k.SetWorkers(workers)
	return k
}

// SetWorkers sets the parallelism of the following phases (below 1 means
// GOMAXPROCS), growing the per-worker scratch as needed.
func (k *Kernel) SetWorkers(workers int) {
	k.workers = par.Workers(workers)
	for len(k.sums) < k.workers {
		k.sums = append(k.sums, make([]float32, k.PNG.RowLayout.Size()))
	}
}

// Scatter is Algorithm 3: every source partition streams x[src] to one bin
// at a time, one update per compressed edge. Writes are branch-free and
// grouped by destination, the property that removes random DRAM traffic
// (§3.3). Narrow source lists index the partition's own slice of x.
func (k *Kernel) Scatter(x []float32) {
	pn := k.PNG
	kr := pn.KRows
	k.Schedule(pn.K, func(_, p int) {
		off := pn.SubOff[p]
		row := p * kr
		if pn.SubSrc16 != nil {
			lo, hi := pn.Layout.Bounds(p)
			xs, srcs := x[lo:hi], pn.SubSrc16[p]
			for q := 0; q < kr; q++ {
				group := srcs[off[q]:off[q+1]]
				if len(group) == 0 {
					continue
				}
				out := k.Updates[q][pn.UpdateWriteOff[row+q]:][:len(group)]
				for i, u := range group {
					out[i] = xs[u]
				}
			}
			return
		}
		srcs := pn.SubSrc[p]
		for q := 0; q < kr; q++ {
			group := srcs[off[q]:off[q+1]]
			if len(group) == 0 {
				continue
			}
			out := k.Updates[q][pn.UpdateWriteOff[row+q]:][:len(group)]
			for i, u := range group {
				out[i] = x[u]
			}
		}
	})
}

// Gather is Algorithm 4: every bin is drained into cached partial sums,
// which apply then finalizes. The update pointer advances by each entry's
// run flag — the ID's MSB in a 32-bit stream, its bit of the flag word in a
// 16-bit one — which is added, never tested, unless the branching ablation is
// asked for. A weighted layout multiplies each update by the weight beside
// its destination ID (always branch-avoiding).
func (k *Kernel) Gather(branching bool, apply Apply) (a, b float64) {
	pn := k.PNG
	return k.gather(apply, func(q int, lo graph.NodeID, sums []float32) {
		for i := range sums {
			sums[i] = 0
		}
		ups := k.Updates[q]
		switch {
		case pn.DestOff != nil && pn.DestWs != nil:
			gatherNarrowWeighted(pn.DestOff[q], pn.DestFlags[q], pn.DestWs[q], ups, sums)
		case pn.DestOff != nil && branching:
			flags := pn.DestFlags[q]
			uptr := 0
			var cur float32
			for j, id := range pn.DestOff[q] {
				if runFlag(flags, j) != 0 {
					cur = ups[uptr]
					uptr++
				}
				sums[id] += cur
			}
		case pn.DestOff != nil:
			gatherNarrow(pn.DestOff[q], pn.DestFlags[q], ups, sums)
		case pn.DestWs != nil:
			ws := pn.DestWs[q]
			uptr := -1
			for j, id := range pn.DestIDs[q] {
				uptr += int(id >> 31)
				sums[(id&graph.IDMask)-lo] += ws[j] * ups[uptr]
			}
		case branching:
			uptr := 0
			var cur float32
			for _, id := range pn.DestIDs[q] {
				if id&graph.MSBMask != 0 {
					cur = ups[uptr]
					uptr++
				}
				sums[(id&graph.IDMask)-lo] += cur
			}
		default:
			uptr := -1
			for _, id := range pn.DestIDs[q] {
				uptr += int(id >> 31)
				sums[(id&graph.IDMask)-lo] += ups[uptr]
			}
		}
	})
}

// gatherNarrow is the branch-avoiding walk of a 16-bit stream: one flag word
// is loaded per 64 IDs and shifted out a bit per ID into the update pointer.
// Entries are accumulated strictly in stream order, so the sums are those of
// the 32-bit walk over the same logical stream.
func gatherNarrow(ids []uint16, flags []uint64, ups, sums []float32) {
	uptr := -1
	for len(ids) >= 64 {
		w := flags[0]
		blk := ids[:64]
		for j := 0; j < 64; j += 4 {
			e := blk[j : j+4 : j+4]
			uptr += int(w & 1)
			sums[e[0]] += ups[uptr]
			uptr += int(w >> 1 & 1)
			sums[e[1]] += ups[uptr]
			uptr += int(w >> 2 & 1)
			sums[e[2]] += ups[uptr]
			uptr += int(w >> 3 & 1)
			sums[e[3]] += ups[uptr]
			w >>= 4
		}
		ids, flags = ids[64:], flags[1:]
	}
	if len(ids) > 0 {
		w := flags[0]
		for _, id := range ids {
			uptr += int(w & 1)
			w >>= 1
			sums[id] += ups[uptr]
		}
	}
}

// gatherNarrowWeighted is gatherNarrow with every update multiplied by the
// weight beside its destination ID. It is unrolled the same way: the plain
// one-entry-per-turn loop measured a third slower than the 32-bit weighted
// walk it replaces.
func gatherNarrowWeighted(ids []uint16, flags []uint64, ws, ups, sums []float32) {
	uptr := -1
	for len(ids) >= 64 {
		w := flags[0]
		blk, wts := ids[:64], ws[:64]
		for j := 0; j < 64; j += 4 {
			e, f := blk[j:j+4:j+4], wts[j:j+4:j+4]
			uptr += int(w & 1)
			sums[e[0]] += f[0] * ups[uptr]
			uptr += int(w >> 1 & 1)
			sums[e[1]] += f[1] * ups[uptr]
			uptr += int(w >> 2 & 1)
			sums[e[2]] += f[2] * ups[uptr]
			uptr += int(w >> 3 & 1)
			sums[e[3]] += f[3] * ups[uptr]
			w >>= 4
		}
		ids, ws, flags = ids[64:], ws[64:], flags[1:]
	}
	if len(ids) > 0 {
		w := flags[0]
		ws = ws[:len(ids)]
		for j, id := range ids {
			uptr += int(w & 1)
			w >>= 1
			sums[id] += ws[j] * ups[uptr]
		}
	}
}

// gather runs walk then apply on every destination partition's scratch and
// reduces the apply results in partition order.
func (k *Kernel) gather(apply Apply, walk func(q int, lo graph.NodeID, sums []float32)) (a, b float64) {
	pn := k.PNG
	k.Schedule(pn.KRows, func(w, q int) {
		lo, hi := pn.RowLayout.Bounds(q)
		sums := k.sums[w][:int(hi-lo)]
		walk(q, lo, sums)
		k.results[q][0], k.results[q][1] = apply(lo, hi, sums)
	})
	for _, r := range k.results {
		a += r[0]
		b += r[1]
	}
	return a, b
}

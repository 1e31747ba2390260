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
// (§3.3).
func (k *Kernel) Scatter(x []float32) {
	pn := k.PNG
	kr := pn.KRows
	k.Schedule(pn.K, func(_, p int) {
		off := pn.SubOff[p]
		srcs := pn.SubSrc[p]
		row := p * kr
		for q := 0; q < kr; q++ {
			group := srcs[off[q]:off[q+1]]
			if len(group) == 0 {
				continue
			}
			out := k.Updates[q][pn.UpdateWriteOff[row+q]:]
			for i, u := range group {
				out[i] = x[u]
			}
		}
	})
}

// Gather is Algorithm 4: every bin is drained into cached partial sums,
// which apply then finalizes. The update pointer advances by the destination
// ID's MSB unless the branching ablation is asked for; a layout with compact
// streams is walked through them, and a weighted layout multiplies each
// update by the weight beside its destination ID (always branch-avoiding).
func (k *Kernel) Gather(branching bool, apply Apply) (a, b float64) {
	pn := k.PNG
	return k.gather(apply, func(q int, lo graph.NodeID, sums []float32) {
		for i := range sums {
			sums[i] = 0
		}
		ups := k.Updates[q]
		switch {
		case pn.DestWs != nil:
			ws := pn.DestWs[q]
			uptr := -1
			for j, id := range pn.DestIDs[q] {
				uptr += int(id >> 31)
				sums[(id&graph.IDMask)-lo] += ws[j] * ups[uptr]
			}
		case pn.DestIDs16 != nil && !branching:
			// Compact branch-avoiding gather: 16-bit partition-local IDs.
			uptr := -1
			for _, id := range pn.DestIDs16[q] {
				uptr += int(id >> 15)
				sums[id&CompactIDMask] += ups[uptr]
			}
		case pn.DestIDs16 != nil:
			uptr := 0
			var cur float32
			for _, id := range pn.DestIDs16[q] {
				if id&CompactMSB != 0 {
					cur = ups[uptr]
					uptr++
				}
				sums[id&CompactIDMask] += cur
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

package memsim

import (
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/png"
)

// Replay generates the memory access trace of one PageRank iteration of a
// particular method. Replays are deterministic and single-threaded —
// communication volume does not depend on the thread count.
type Replay interface {
	// Iterate issues one full iteration's accesses into the simulator.
	Iterate()
	// Name identifies the replayed method.
	Name() string
}

// MeasureSteadyState runs one warm-up iteration, resets the counters, runs
// the measured iteration, and flushes dirty lines so writeback bytes are
// fully accounted. This mirrors the paper's per-iteration PCM deltas
// (averaged over iterations after warm-up).
func MeasureSteadyState(r Replay, sim *Sim) Traffic {
	r.Iterate()
	sim.ResetStats()
	r.Iterate()
	sim.FlushDirty()
	return sim.Snapshot()
}

const elem = 4 // di = dv = 4 bytes, as fixed in the paper

// ---------------------------------------------------------------------------
// PDPR

// PDPRReplay replays Algorithm 1: a CSC scan with random reads into the
// scaled-rank vector and sequential writes of new ranks. The CSC it walks
// is the graph's transpose, built by the first replay that reads it.
type PDPRReplay struct {
	g    *graph.Graph
	sim  *Sim
	off  uint64 // CSC offsets
	adj  uint64 // CSC adjacency
	val  uint64 // scaled ranks (read)
	out  uint64 // new ranks (write)
	line uint64
}

// NewPDPRReplay lays out the PDPR arrays in the simulated address space.
func NewPDPRReplay(g *graph.Graph, sim *Sim) *PDPRReplay {
	as := NewAddressSpace(sim.Config().LineBytes)
	n, m := int64(g.NumNodes()), g.NumEdges()
	return &PDPRReplay{
		g:    g,
		sim:  sim,
		off:  as.Alloc((n + 1) * elem),
		adj:  as.Alloc(m * elem),
		val:  as.Alloc(n * elem),
		out:  as.Alloc(n * elem),
		line: uint64(sim.Config().LineBytes),
	}
}

// Name implements Replay.
func (r *PDPRReplay) Name() string { return "pdpr" }

// Iterate implements Replay.
func (r *PDPRReplay) Iterate() {
	g, sim := r.g, r.sim
	var e uint64 // the edge's index in the flat in-adjacency the model lays out
	for c, ch := range g.InChunks() {
		for i := range len(ch.Off) - 1 {
			v := uint64(c<<graph.ChunkShift + i)
			sim.Read(r.off+v*elem, elem, StreamOffsets)
			for _, u := range ch.Adj[ch.Off[i]:ch.Off[i+1]] {
				sim.Read(r.adj+e*elem, elem, StreamEdges)
				e++
				// The random vertex-value read — the traffic Fig. 1 charts.
				sim.Read(r.val+uint64(u)*elem, elem, StreamValues)
			}
			sim.Write(r.out+v*elem, elem, StreamValues)
		}
	}
	// Double-buffer swap: next iteration reads what this one wrote.
	r.val, r.out = r.out, r.val
}

// ---------------------------------------------------------------------------
// BVGAS

// BVGASReplay replays Algorithm 5 with the paper's optimizations: updates
// stream to bins via non-temporal full-line stores, destination IDs are
// read (not rewritten) in steady state, and the gather phase accumulates
// directly into the rank vector one cache-resident bin at a time.
type BVGASReplay struct {
	g      *graph.Graph
	sim    *Sim
	layout partition.Layout
	off    uint64
	adj    uint64
	val    uint64
	upd    []uint64   // per-bin update array bases
	did    []uint64   // per-bin destination-ID bases
	bins   [][]uint32 // per-bin destination IDs in scatter order
	line   uint64
}

// NewBVGASReplay lays out the BVGAS arrays and precomputes each bin's
// destination sequence (structural, written once in the real engine).
func NewBVGASReplay(g *graph.Graph, layout partition.Layout, sim *Sim) *BVGASReplay {
	as := NewAddressSpace(sim.Config().LineBytes)
	n, m := int64(g.NumNodes()), g.NumEdges()
	b := layout.K()
	r := &BVGASReplay{
		g:      g,
		sim:    sim,
		layout: layout,
		off:    as.Alloc((n + 1) * elem),
		adj:    as.Alloc(m * elem),
		val:    as.Alloc(n * elem),
		upd:    make([]uint64, b),
		did:    make([]uint64, b),
		bins:   make([][]uint32, b),
		line:   uint64(sim.Config().LineBytes),
	}
	cnt := make([]int64, b)
	for _, ch := range g.Chunks() {
		for _, u := range ch.Adj {
			cnt[layout.PartitionOf(u)]++
		}
	}
	for i := 0; i < b; i++ {
		r.upd[i] = as.Alloc(cnt[i] * elem)
		r.did[i] = as.Alloc(cnt[i] * elem)
		r.bins[i] = make([]uint32, 0, cnt[i])
	}
	for _, ch := range g.Chunks() {
		for _, u := range ch.Adj { // source order: the chunks in order
			p := layout.PartitionOf(u)
			r.bins[p] = append(r.bins[p], u)
		}
	}
	return r
}

// Name implements Replay.
func (r *BVGASReplay) Name() string { return "bvgas" }

// Iterate implements Replay.
func (r *BVGASReplay) Iterate() {
	g, sim := r.g, r.sim
	nbins := r.layout.K()

	// Scatter: sequential graph scan; every out-edge emits one update into
	// its destination bin through a write-combining streaming store.
	cursor := make([]uint64, nbins)
	var e uint64 // the edge's index in the flat adjacency the model lays out
	for c, ch := range g.Chunks() {
		for i := range len(ch.Off) - 1 {
			v := uint64(c<<graph.ChunkShift + i)
			sim.Read(r.off+v*elem, elem, StreamOffsets)
			sim.Read(r.val+v*elem, elem, StreamValues)
			for _, u := range ch.Adj[ch.Off[i]:ch.Off[i+1]] {
				sim.Read(r.adj+e*elem, elem, StreamEdges)
				e++
				b := r.layout.PartitionOf(u)
				if cursor[b]%r.line == 0 {
					sim.WriteLineNT(r.upd[b]+cursor[b], StreamUpdates)
				}
				cursor[b] += elem
			}
		}
	}

	// Gather: stream each bin's updates and destination IDs; the rank
	// accumulation is a read-modify-write confined to the bin's node range
	// (cache resident when the bin width is at most the LLC).
	for b := 0; b < nbins; b++ {
		for j, dest := range r.bins[b] {
			sim.Read(r.upd[b]+uint64(j)*elem, elem, StreamUpdates)
			sim.Read(r.did[b]+uint64(j)*elem, elem, StreamDestIDs)
			a := r.val + uint64(dest)*elem
			sim.Read(a, elem, StreamValues)
			sim.Write(a, elem, StreamValues)
		}
	}
	// Apply: one sequential read-modify-write sweep of the rank vector.
	for v := 0; v < g.NumNodes(); v++ {
		a := r.val + uint64(v)*elem
		sim.Read(a, elem, StreamValues)
		sim.Write(a, elem, StreamValues)
	}
}

// ---------------------------------------------------------------------------
// PCPM

// PCPMReplay replays Algorithms 3 and 4 over the PNG layout: the scatter
// reads k² offsets plus |E'| source indices and vertex values (the latter
// cache-resident per partition), streaming |E'| updates bin-by-bin; the
// gather streams |E| destination IDs and |E'| updates into a reused
// partition-sized scratch buffer, then writes ranks back. Source indices and
// destination IDs are accounted at the width the layout stores them in: 2
// bytes (plus one 8-byte flag word per 64 destination IDs) when its
// partitions are narrow, the paper's 4 bytes otherwise.
type PCPMReplay struct {
	g        *graph.Graph
	sim      *Sim
	pn       *png.PNG
	offs     uint64 // k*k PNG offsets
	src      uint64 // |E'| source indices, flat across partitions
	val      uint64
	upd      []uint64
	did      []uint64
	flg      []uint64 // per bin: run-flag words of a narrow destination stream
	scratch  uint64
	line     uint64
	srcElem  uint64 // bytes per source index
	destElem uint64 // bytes per destination-ID entry

	// The logical streams of every bin, decoded once: MSB-tagged global
	// destination IDs and the global source of each update.
	ids  [][]uint32
	srcs [][]graph.NodeID
}

// NewPCPMReplay lays out the PCPM arrays at the element widths of pn.
func NewPCPMReplay(g *graph.Graph, pn *png.PNG, sim *Sim) *PCPMReplay {
	as := NewAddressSpace(sim.Config().LineBytes)
	n := int64(g.NumNodes())
	k := int64(pn.K)
	r := &PCPMReplay{
		g:        g,
		sim:      sim,
		pn:       pn,
		upd:      make([]uint64, pn.K),
		did:      make([]uint64, pn.K),
		flg:      make([]uint64, pn.K),
		line:     uint64(sim.Config().LineBytes),
		srcElem:  elem,
		destElem: elem,
		ids:      make([][]uint32, pn.K),
		srcs:     make([][]graph.NodeID, pn.K),
	}
	if pn.SubSrc16 != nil {
		r.srcElem = 2
	}
	if pn.DestOff != nil {
		r.destElem = 2
	}
	r.offs = as.Alloc(k * k * elem)
	r.src = as.Alloc(pn.EdgesCompressed * int64(r.srcElem))
	r.val = as.Alloc(n * elem)
	for q := 0; q < pn.K; q++ {
		r.ids[q], r.srcs[q] = pn.DecodeBin(q)
		r.upd[q] = as.Alloc(pn.UpdateCount[q] * elem)
		r.did[q] = as.Alloc(int64(len(r.ids[q])) * int64(r.destElem))
		if pn.DestFlags != nil {
			r.flg[q] = as.Alloc(int64(len(pn.DestFlags[q])) * 8)
		}
	}
	r.scratch = as.Alloc(int64(pn.Layout.Size()) * elem)
	return r
}

// Name implements Replay.
func (r *PCPMReplay) Name() string { return "pcpm" }

// Iterate implements Replay.
func (r *PCPMReplay) Iterate() {
	sim, pn := r.sim, r.pn
	k := pn.K

	// Scatter (Algorithm 3): per source partition, stream one bin at a
	// time. Vertex-value reads are confined to the partition's node range.
	cursor := make([]uint64, k)
	var srcIdx uint64
	for p := 0; p < k; p++ {
		off := pn.SubOff[p]
		for q := 0; q < k; q++ {
			sim.Read(r.offs+uint64(p*k+q)*elem, elem, StreamOffsets)
			group := r.srcs[q][pn.UpdateWriteOff[p*k+q]:][:off[q+1]-off[q]]
			for _, u := range group {
				sim.Read(r.src+srcIdx*r.srcElem, int(r.srcElem), StreamEdges)
				srcIdx++
				sim.Read(r.val+uint64(u)*elem, elem, StreamValues)
				if cursor[q]%r.line == 0 {
					sim.WriteLineNT(r.upd[q]+cursor[q], StreamUpdates)
				}
				cursor[q] += elem
			}
		}
	}

	// Gather (Algorithm 4): stream destination IDs and updates; partial
	// sums live in a reused, partition-sized scratch buffer that stays
	// cache resident; ranks are written back per partition.
	for q := 0; q < k; q++ {
		lo, hi := pn.Layout.Bounds(q)
		var uptr uint64
		first := true
		for j, id := range r.ids[q] {
			if pn.DestFlags != nil && j%64 == 0 {
				sim.Read(r.flg[q]+uint64(j/64)*8, 8, StreamDestIDs)
			}
			sim.Read(r.did[q]+uint64(j)*r.destElem, int(r.destElem), StreamDestIDs)
			if id&graph.MSBMask != 0 {
				if !first {
					uptr++
				}
				first = false
				sim.Read(r.upd[q]+uptr*elem, elem, StreamUpdates)
			}
			a := r.scratch + uint64((id&graph.IDMask)-lo)*elem
			sim.Read(a, elem, StreamScratch)
			sim.Write(a, elem, StreamScratch)
		}
		for v := lo; v < hi; v++ {
			sim.Read(r.scratch+uint64(v-lo)*elem, elem, StreamScratch)
			sim.Write(r.val+uint64(v)*elem, elem, StreamValues)
		}
	}
}

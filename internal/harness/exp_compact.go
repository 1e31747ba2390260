package harness

import (
	"time"

	"repro/internal/graph"
	"repro/internal/memsim"
	"repro/internal/partition"
	"repro/internal/png"
)

// Compact evaluates the paper's §6 future-work proposal, which is how the
// layout is stored here: G-Store-style "smallest number of bits" IDs. Because
// the PCPM gather only addresses nodes of one partition at a time, and the
// scatter only reads those of one, both ID streams shrink to 16-bit
// partition-local offsets (run flags bit-packed beside them). The experiment
// sets that layout against the paper's own encoding of the same partitioning
// — 4-byte MSB-tagged global IDs, reassembled from the decoded streams — and
// reports simulated traffic and measured kernel time for both.
func Compact(opt Options) (*Table, error) {
	opt = opt.normalized()
	t := &Table{
		ID:    "compact",
		Title: "Extension (§6): 16-bit partition-local ID streams",
		Header: []string{"dataset",
			"bytes/edge 4B", "bytes/edge 2B", "traffic ratio",
			"time/iter 4B", "time/iter 2B", "speedup"},
		Notes: []string{
			"gather's dominant stream is m destination IDs; storing them in 2 bytes targets the m·di term of eq. 5",
			"4B columns: the same layout widened to the paper's 32-bit encoding; times are scatter+gather of png.Kernel, no apply",
		},
	}
	for _, spec := range Datasets() {
		g, err := LoadDataset(spec, opt)
		if err != nil {
			return nil, err
		}
		// Traffic is simulated at the scaled geometry, time measured at the
		// wall-clock experiments' partition size; index 0 is the 4-byte
		// encoding, 1 the layout as built.
		encodings := func(partBytes int) ([2]*png.PNG, error) {
			layout, err := partition.FromBytes(g.NumNodes(), partBytes)
			if err != nil {
				return [2]*png.PNG{}, err
			}
			pn, err := png.Build(g, layout, opt.Workers)
			if err != nil {
				return [2]*png.PNG{}, err
			}
			return [2]*png.PNG{widened(pn), pn}, nil
		}
		simPNs, err := encodings(opt.SimPartitionBytes())
		if err != nil {
			return nil, err
		}
		timePNs, err := encodings(TimingPartitionBytes)
		if err != nil {
			return nil, err
		}
		var bytesPerEdge, secsPerIter [2]float64
		for i := range bytesPerEdge {
			sim, err := newSim(opt)
			if err != nil {
				return nil, err
			}
			tr := memsim.MeasureSteadyState(memsim.NewPCPMReplay(g, simPNs[i], sim), sim)
			bytesPerEdge[i] = float64(tr.TotalBytes()) / float64(g.NumEdges())
			secsPerIter[i] = kernelSecsPerIter(timePNs[i], g.NumNodes(), opt)
		}
		t.AddRow(spec.Name,
			f1(bytesPerEdge[0]), f1(bytesPerEdge[1]), f2(bytesPerEdge[1]/bytesPerEdge[0]),
			ms(secsPerIter[0]), ms(secsPerIter[1]), f2(secsPerIter[0]/secsPerIter[1]))
	}
	return t, nil
}

// widened returns the paper's encoding (§3.2) of pn's layout: 32-bit
// MSB-tagged global destination IDs and 32-bit global sources, whatever
// width pn stores. The kernel and the replayer walk whichever form a PNG
// holds, so the result measures the 4-byte streams on pn's exact
// partitioning; it is not a layout png.Build would produce (Validate rejects
// it for partitions that fit 16 bits).
func widened(pn *png.PNG) *png.PNG {
	w := *pn
	w.DestOff, w.DestFlags, w.SubSrc16 = nil, nil, nil
	w.DestIDs = make([][]uint32, pn.KRows)
	w.SubSrc = make([][]graph.NodeID, pn.K)
	for p := range w.SubSrc {
		w.SubSrc[p] = make([]graph.NodeID, pn.SubOff[p][pn.KRows])
	}
	for q := range w.DestIDs {
		ids, srcs := pn.DecodeBin(q)
		w.DestIDs[q] = ids
		for p := range w.SubSrc {
			off := pn.SubOff[p]
			copy(w.SubSrc[p][off[q]:off[q+1]], srcs[pn.UpdateWriteOff[p*pn.KRows+q]:])
		}
	}
	return &w
}

// kernelSecsPerIter times scatter+gather over pn after one warm-up round.
func kernelSecsPerIter(pn *png.PNG, n int, opt Options) float64 {
	k := png.NewKernel(pn, opt.Workers)
	x := make([]float32, n)
	for i := range x {
		x[i] = 1 / float32(n)
	}
	discard := func(_, _ graph.NodeID, _ []float32) (float64, float64) { return 0, 0 }
	round := func() {
		k.Scatter(x)
		k.Gather(false, discard)
	}
	round()
	start := time.Now()
	for i := 0; i < opt.Iterations; i++ {
		round()
	}
	return time.Since(start).Seconds() / float64(opt.Iterations)
}

package main

import (
	"repro/internal/partition"
	"repro/internal/png"
)

const partitionBytes = 256 << 10 // the engines' default partition width

// probePNG covers the partition and png layers: the layout the engines
// would choose and the cost and size of the Partition-Node Graph over it.
func probePNG(env *probeEnv) error {
	layout, err := partition.FromBytes(env.g.NumNodes(), partitionBytes)
	if err != nil {
		return err
	}
	env.res.put("partition.k", float64(layout.K()))
	var p *png.PNG
	secs, err := env.repeat("png.Build", env.root, env.cfg.reps(3), func(int) (err error) {
		p, err = png.Build(env.g, layout, 0)
		return err
	})
	if err != nil {
		return err
	}
	env.res.putMedian("png.build_s", secs)
	env.res.put("png.compression_ratio", p.CompressionRatio(env.g))
	// Destination IDs, compressed sources, and the two K×K offset tables, at
	// four bytes each (computed from the counts, not measured).
	bytes := 4 * (p.DestTotal() + p.EdgesCompressed + 2*p.OffsetCells())
	env.res.put("png.bytes", float64(bytes))
	env.tr.count("png.bytes", bytes)
	return nil
}

package shard

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/png"
)

// DefaultPartitionBytes is the engine default: partitions are sized so a
// destination partition's partial sums fit in cache.
const DefaultPartitionBytes = partition.DefaultBytes

// SolveOptions parameterizes one BlockSolver round.
type SolveOptions struct {
	// Damping is the PageRank damping factor d.
	Damping float64
	// Workers bounds block-local parallelism; zero means GOMAXPROCS.
	Workers int
	// Redistribute selects the dangling-mass redistribution variant instead
	// of the paper's default leak semantics.
	Redistribute bool
}

// BlockSolver runs the owned block's side of each distributed round: given
// the full rank vector gathered from all shards, it produces the block's
// next rank slice and the block's L1 delta. It is an adapter over the shared
// png.Kernel built on the block's sub-graph; what is its own is that ranks
// arrive from outside each round, divisors are the global degrees, and only
// the block's rows are written. Per-partition deltas are reduced in
// partition order, so a block's delta is bit-identical at any worker count.
type BlockSolver struct {
	n      int
	lo, hi graph.NodeID
	degs   []uint32 // global out-degrees
	kern   *png.Kernel
	spr    []float32 // scaled ranks p[u]/deg[u], len n, rebuilt each round
}

// NewBlockSolver builds the partition-centric layout for the block [lo, hi)
// from its row-block sub-graph (same n-vertex ID space, only edges with
// destination inside the block — see graph.RowBlock), so the bins of
// partitions outside the block are simply empty. degs are the FULL graph's
// out-degrees, needed to scale every source's rank. partitionBytes must be a
// power of two; zero or less means DefaultPartitionBytes.
func NewBlockSolver(sub *graph.Graph, degs []uint32, lo, hi graph.NodeID, partitionBytes int) (*BlockSolver, error) {
	n := sub.NumNodes()
	if len(degs) != n {
		return nil, fmt.Errorf("shard: got %d degrees for %d nodes", len(degs), n)
	}
	if lo > hi || int64(hi) > int64(n) {
		return nil, fmt.Errorf("shard: block [%d, %d) out of range for n=%d", lo, hi, n)
	}
	if partitionBytes <= 0 {
		partitionBytes = DefaultPartitionBytes
	}
	layout, err := partition.FromBytes(n, partitionBytes)
	if err != nil {
		return nil, err
	}
	pn, err := png.Build(sub, layout, 0)
	if err != nil {
		return nil, err
	}
	return &BlockSolver{
		n: n, lo: lo, hi: hi, degs: degs,
		kern: png.NewKernel(pn, 0),
		spr:  make([]float32, n),
	}, nil
}

// Round computes the next rank slice for the owned block from the full
// current vector p, writing into out (len hi-lo) and returning the block's
// L1 delta. The arithmetic mirrors the monolithic engine exactly — float32
// accumulation, float32 scaled ranks, float64 delta — so a sharded solve
// converges to the same vector the single-process solver produces.
func (s *BlockSolver) Round(p, out []float32, opts SolveOptions) (float64, error) {
	if len(p) != s.n || len(out) != int(s.hi-s.lo) {
		return 0, fmt.Errorf("shard: round buffers have wrong length (p=%d want %d, out=%d want %d)",
			len(p), s.n, len(out), s.hi-s.lo)
	}
	workers := par.Workers(opts.Workers)
	d := opts.Damping
	base := float32((1 - d) / float64(s.n))
	d32 := float32(d)
	// Every block derives the dangling term from the same gathered vector in
	// the same ascending-node order, so no cross-block mass exchange is
	// needed and all blocks agree bit-for-bit.
	var dterm float32
	if opts.Redistribute {
		var dangling float64
		for v := 0; v < s.n; v++ {
			if s.degs[v] == 0 {
				dangling += float64(p[v])
			}
		}
		dterm = float32(dangling / float64(s.n))
	}
	par.ForStatic(s.n, workers, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			if s.degs[u] != 0 {
				s.spr[u] = p[u] / float32(s.degs[u])
			} else {
				s.spr[u] = 0
			}
		}
	})
	s.kern.SetWorkers(workers)
	s.kern.Scatter(s.spr)
	delta, _ := s.kern.Gather(false, func(plo, phi graph.NodeID, sums []float32) (float64, float64) {
		// A partition straddling a block boundary applies only the owned rows.
		var delta float64
		lo, hi := max(plo, s.lo), min(phi, s.hi)
		for v := lo; v < hi; v++ {
			nv := base + d32*(sums[v-plo]+dterm)
			delta += abs64(float64(nv) - float64(p[v]))
			out[v-s.lo] = nv
		}
		return delta, 0
	})
	return delta, nil
}

func abs64(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

package shard

import (
	"fmt"
	"testing"

	pcpm "repro"
	"repro/internal/core"
	"repro/internal/graph"
)

// stop ends an in-process solve: after exactly Rounds rounds when Tolerance
// is zero, else once the summed block delta drops below Tolerance (capped at
// 1000 rounds, the monolithic engine's cap).
type stop struct {
	Tolerance float64
	Rounds    int
}

// solveInProcess runs the row-block round protocol with every block in one
// process: each BlockSolver computes its slice from the shared vector, the
// slices are reassembled (the allgather), and the per-block deltas sum in
// block order.
//
// Fixed-round leak solves are additionally held bit-for-bit to core.PCPM at
// the same partition bytes: both accumulate every destination's float32 sum
// in ascending-source order, whatever the block boundaries.
func solveInProcess(t *testing.T, g *graph.Graph, a Assignment, opts SolveOptions, until stop, partitionBytes int) ([]float32, int) {
	t.Helper()
	degs, err := DegreesOf(g)
	if err != nil {
		t.Fatal(err)
	}
	solvers := make([]*BlockSolver, len(a))
	for i, r := range a {
		sub, err := g.RowBlock(r.Lo, r.Hi)
		if err != nil {
			t.Fatal(err)
		}
		if solvers[i], err = NewBlockSolver(sub, degs, r.Lo, r.Hi, partitionBytes); err != nil {
			t.Fatal(err)
		}
	}
	n := g.NumNodes()
	p := make([]float32, n)
	next := make([]float32, n)
	for v := range p {
		p[v] = 1 / float32(n)
	}
	maxRounds := 1000
	if until.Tolerance == 0 {
		maxRounds = until.Rounds
	}
	rounds := 0
	for rounds < maxRounds {
		var delta float64
		for i, s := range solvers {
			d, err := s.Round(p, next[a[i].Lo:a[i].Hi], opts)
			if err != nil {
				t.Fatal(err)
			}
			delta += d
		}
		p, next = next, p
		rounds++
		if until.Tolerance > 0 && delta < until.Tolerance {
			break
		}
	}
	if until.Tolerance == 0 && !opts.Redistribute {
		e, err := core.NewPCPM(g, core.Config{Damping: opts.Damping, Workers: opts.Workers, PartitionBytes: partitionBytes})
		if err != nil {
			t.Fatal(err)
		}
		core.RunIterations(e, rounds)
		for v, want := range e.Ranks() {
			if p[v] != want {
				t.Fatalf("%d blocks, %d rounds: rank of %d = %v, core.PCPM has %v", len(a), rounds, v, p[v], want)
			}
		}
	}
	return p, rounds
}

func TestBlockSolverBitIdenticalToPCPM(t *testing.T) {
	for name, g := range goldenFamilies(t) {
		for _, blocks := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/%d", name, blocks), func(t *testing.T) {
				solveInProcess(t, g, Assign(g, blocks), SolveOptions{Damping: 0.85}, stop{Rounds: 12}, 1<<10)
			})
		}
	}
}

func TestBlockSolverMatchesMonolithic(t *testing.T) {
	g := testGraph(t, 1200, 9000, 21)
	mono, err := pcpm.Run(g, pcpm.Options{Tolerance: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 3} {
		for _, redis := range []bool{false, true} {
			opts := SolveOptions{Damping: 0.85, Redistribute: redis}
			ranks, _ := solveInProcess(t, g, Assign(g, shards), opts, stop{Tolerance: 1e-9}, 1<<10)
			if redis {
				monoR, err := pcpm.Run(g, pcpm.Options{Tolerance: 1e-9, RedistributeDangling: true})
				if err != nil {
					t.Fatal(err)
				}
				if l1 := core.L1Diff(ranks, monoR.Ranks); l1 > 1e-6 {
					t.Errorf("shards=%d redistribute: L1 vs monolithic = %g", shards, l1)
				}
				continue
			}
			if l1 := core.L1Diff(ranks, mono.Ranks); l1 > 1e-6 {
				t.Errorf("shards=%d: L1 vs monolithic = %g", shards, l1)
			}
		}
	}
}

func TestBlockSolverDeterministicAcrossWorkerCounts(t *testing.T) {
	g := testGraph(t, 800, 6000, 33)
	a := Assign(g, 2)
	until := stop{Rounds: 25}
	r1, _ := solveInProcess(t, g, a, SolveOptions{Damping: 0.85, Workers: 1}, until, 512)
	r4, _ := solveInProcess(t, g, a, SolveOptions{Damping: 0.85, Workers: 4}, until, 512)
	for v := range r1 {
		if r1[v] != r4[v] {
			t.Fatalf("rank of %d differs across worker counts: %v vs %v", v, r1[v], r4[v])
		}
	}
}

func TestBlockSolverEmptyBlock(t *testing.T) {
	g := testGraph(t, 50, 200, 4)
	a := Assignment{{0, 50}, {50, 50}}
	ranks, _ := solveInProcess(t, g, a, SolveOptions{Damping: 0.85}, stop{Tolerance: 1e-9}, 0)
	mono, err := pcpm.Run(g, pcpm.Options{Tolerance: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if l1 := core.L1Diff(ranks, mono.Ranks); l1 > 1e-6 {
		t.Fatalf("empty-block solve L1 vs monolithic = %g", l1)
	}
}

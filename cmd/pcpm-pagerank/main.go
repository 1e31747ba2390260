// Command pcpm-pagerank computes PageRank on a graph file with a chosen
// engine and prints the top-ranked nodes plus phase timings. With -seeds it
// computes Personalized PageRank for those seed vertices (forward push)
// instead of the global ranking.
//
// Usage:
//
//	pcpm-pagerank -in graph.bin -method pcpm -iters 20 -top 10
//	pcpm-pagerank -in edges.txt -method pdpr -tol 1e-8
//	pcpm-pagerank -in graph.bin -seeds 42,1337 -top 10 -epsilon 1e-7
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	pcpm "repro"
)

func main() {
	var (
		in        = flag.String("in", "", "input graph (.txt edge list or binary)")
		method    = flag.String("method", "pcpm", "engine: pdpr|bvgas|pcpm-csr|pcpm")
		iters     = flag.Int("iters", 20, "fixed iteration count (ignored when -tol is set)")
		tol       = flag.Float64("tol", 0, "run to convergence below this L1 delta")
		top       = flag.Int("top", 10, "how many top-ranked nodes to print")
		partBytes = flag.Int("partition", 256<<10, "partition/bin size in bytes (power of two)")
		workers   = flag.Int("workers", 0, "worker count (0 = GOMAXPROCS)")
		damping   = flag.Float64("damping", 0.85, "damping factor")
		redist    = flag.Bool("redistribute", false, "redistribute dangling mass (rank sums to 1)")
		seeds     = flag.String("seeds", "", "comma-separated seed vertices: compute Personalized PageRank instead of global")
		epsilon   = flag.Float64("epsilon", 0, "PPR termination: stop once the residual L1 error bound drops below this (default 1e-7)")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "pcpm-pagerank:", err)
		os.Exit(1)
	}
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}

	f, err := os.Open(*in)
	if err != nil {
		fail(err)
	}
	defer f.Close()

	g, err := pcpm.LoadGraph(f)
	if err != nil {
		fail(err)
	}
	if *seeds != "" {
		// Personalized mode uses the push engine, not the global iteration
		// knobs — reject explicitly-set flags that would silently do nothing.
		// It never touches the component structure either, so the summary
		// skips the decomposition the global banner pays for.
		var conflicting []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "method", "iters", "tol", "redistribute", "partition", "workers":
				conflicting = append(conflicting, "-"+f.Name)
			}
		})
		if len(conflicting) > 0 {
			fail(fmt.Errorf("%s not used in -seeds (personalized) mode; its knobs are -epsilon, -damping, -top",
				strings.Join(conflicting, ", ")))
		}
		s := g.ComputeStats()
		fmt.Printf("graph: %d nodes, %d edges, avg degree %.2f, %d dangling\n",
			s.Nodes, s.Edges, s.AvgDegree, s.Dangling)
		runPersonalized(g, *seeds, *damping, *epsilon, *top, fail)
		return
	}

	s := pcpm.ComputeGraphStats(g)
	fmt.Printf("graph: %d nodes, %d edges, avg degree %.2f, %d dangling, %d components (largest %d)\n",
		s.Nodes, s.Edges, s.AvgDegree, s.Dangling, s.Components, s.LargestComponent)

	res, err := pcpm.Run(g, pcpm.Options{
		Method:               pcpm.Method(*method),
		Damping:              *damping,
		PartitionBytes:       *partBytes,
		Workers:              *workers,
		Iterations:           *iters,
		Tolerance:            *tol,
		RedistributeDangling: *redist,
	})
	if err != nil {
		fail(err)
	}

	fmt.Printf("method: %s, iterations: %d (extrapolated %d), final L1 delta: %.3g\n",
		res.Method, res.Iterations, res.Extrapolations, res.Delta)
	if res.CompressionRatio > 0 {
		fmt.Printf("compression ratio r = %.2f, preprocessing %v\n",
			res.CompressionRatio, res.PreprocessTime.Round(1e3))
	}
	per := res.Stats.PerIteration()
	if per.Scatter > 0 || per.Gather > 0 {
		fmt.Printf("per iteration: scatter %v, gather %v, total %v\n",
			per.Scatter.Round(1e3), per.Gather.Round(1e3), per.Total.Round(1e3))
	} else {
		fmt.Printf("per iteration: %v\n", per.Total.Round(1e3))
	}
	gteps := float64(g.NumEdges()) / 1e9 / per.Total.Seconds()
	fmt.Printf("throughput: %.3f GTEPS\n", gteps)

	fmt.Printf("top %d nodes:\n", *top)
	for i, e := range pcpm.TopK(res.Ranks, *top) {
		fmt.Printf("  %2d. node %-10d rank %.6g\n", i+1, e.Node, e.Rank)
	}
}

// runPersonalized answers one Personalized PageRank query from -seeds.
func runPersonalized(g *pcpm.Graph, seedSpec string, damping, epsilon float64, top int, fail func(error)) {
	var seedIDs []uint32
	for _, field := range strings.Split(seedSpec, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(field), 10, 32)
		if err != nil {
			fail(fmt.Errorf("bad -seeds entry %q: want a uint32 node ID", field))
		}
		seedIDs = append(seedIDs, uint32(v))
	}
	res, err := pcpm.RunPersonalized(g, seedIDs, pcpm.PPRRunOptions{
		Damping: damping,
		Epsilon: epsilon,
		TopK:    top,
	})
	if err != nil {
		fail(err)
	}
	fmt.Printf("personalized pagerank: seeds %v\n", seedIDs)
	fmt.Printf("rounds: %d, pushes: %d, residual L1 <= %.3g\n", res.Rounds, res.Pushes, res.ResidualL1)
	if res.Truncated {
		fmt.Printf("WARNING: round cap reached with residual L1 %.3g still above the requested precision; scores are a partial answer\n",
			res.ResidualL1)
	}
	fmt.Printf("compute: %v\n", res.Duration.Round(1e3))
	fmt.Printf("top %d nodes:\n", top)
	for i, e := range res.Top {
		fmt.Printf("  %2d. node %-10d score %.6g\n", i+1, e.Node, e.Score)
	}
}

// Personalized: every user gets their own ranking. This example builds one
// scale-free graph, then contrasts the single global PageRank vector with
// per-user Personalized PageRank vectors computed by the forward-push engine
// — first one interactive-style query, then a batch of "users" answered by
// looping over one engine.
package main

import (
	"fmt"
	"log"

	pcpm "repro"
	"repro/internal/gen"
	"repro/internal/graph"
)

func main() {
	// A follower-network stand-in: skewed in-degrees, like the paper's
	// gplus/twitter datasets.
	g, err := gen.PreferentialAttachment(5000, 8, 42, graph.BuildOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d nodes, %d edges\n\n", g.NumNodes(), g.NumEdges())

	// The global ranking everyone shares.
	global, err := pcpm.Run(g, pcpm.Options{Iterations: 20})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("global top 5 (same for every user):")
	for i, e := range pcpm.TopK(global.Ranks, 5) {
		fmt.Printf("  %d. node %-6d rank %.5f\n", i+1, e.Node, e.Rank)
	}

	// One user's personalized view: ranks concentrate around their seeds.
	seeds := []uint32{4321}
	res, err := pcpm.RunPersonalized(g, seeds, pcpm.PPRRunOptions{TopK: 5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npersonalized top 5 for seed %v:\n", seeds)
	for i, e := range res.Top {
		fmt.Printf("  %d. node %-6d score %.5f\n", i+1, e.Node, e.Score)
	}
	fmt.Printf("(%d passes; residual L1 <= %.2g)\n", res.Rounds, res.ResidualL1)

	// One engine holds only the graph, and every query brings its own
	// parameters — a quick coarse answer and a high-precision one, with
	// nothing carried over between calls (the 20 bytes/node of push scratch
	// is recycled inside the library).
	eng, err := pcpm.NewPPREngine(g)
	if err != nil {
		log.Fatal(err)
	}
	coarse, err := eng.Run(seeds, pcpm.PPRRunOptions{TopK: 1, TopOnly: true, Epsilon: 1e-4})
	if err != nil {
		log.Fatal(err)
	}
	precise, err := eng.Run(seeds, pcpm.PPRRunOptions{TopK: 1, TopOnly: true, Epsilon: 1e-10})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsame engine, per-call precision: eps 1e-4 -> %d rounds, eps 1e-10 -> %d rounds (top node %d either way)\n",
		coarse.Rounds, precise.Rounds, precise.Top[0].Node)

	// Batch mode: many users, one engine, one loop. The /v1/graphs/{name}/ppr
	// endpoint evaluates cache misses the same way, one such loop per worker.
	fmt.Println("\nbatch of users, top recommendation each:")
	for _, user := range [][]uint32{{10}, {999, 1001}, {2500}, {4999}} {
		r, err := eng.Run(user, pcpm.PPRRunOptions{TopK: 1, TopOnly: true})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  user %v -> node %-6d score %.5f (%d pushes)\n",
			user, r.Top[0].Node, r.Top[0].Score, r.Pushes)
	}
}

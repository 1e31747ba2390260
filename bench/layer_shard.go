package main

import (
	"bytes"

	"repro/internal/shard"
)

const shardBlocks = 2

// probeShard walks what a two-worker fleet does with the workload's graph,
// one block after the other in this process (a real fleet needs more
// processes than this machine has cores, so only single-block times and
// counts are reported): assign row blocks, encode and decode each block's
// payload, and run one round of each block's solver.
func probeShard(env *probeEnv) error {
	g := env.g
	n := g.NumNodes()
	dec := env.scc // probeSCC ran first
	var assign shard.Assignment
	secs, err := env.timed("shard.AssignSCC", env.root, func() error {
		assign = shard.AssignSCC(g, dec, shardBlocks)
		return assign.Validate(n)
	})
	if err != nil {
		return err
	}
	env.res.put("shard.assign_s", secs)

	degs, err := shard.DegreesOf(g)
	if err != nil {
		return err
	}
	ranks := make([]float32, n)
	for i := range ranks {
		ranks[i] = 1 / float32(n)
	}
	peers := make([]string, len(assign))
	for i := range peers {
		peers[i] = "http://127.0.0.1:0"
	}
	var encode, decode, payloadBytes float64
	rounds := make([]float64, env.cfg.reps(3))
	for i, r := range assign {
		sub, err := g.RowBlock(r.Lo, r.Hi)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		meta := shard.PayloadMeta{Graph: graphName, Shard: i, Ranges: assign, Peers: peers, N: n, M: g.NumEdges()}
		s, err := env.timed("shard.WritePayload", env.root, func() error { return shard.WritePayload(&buf, meta, sub, degs) })
		if err != nil {
			return err
		}
		encode += s
		payloadBytes += float64(buf.Len())
		var p *shard.Payload
		s, err = env.timed("shard.ReadPayload", env.root, func() (err error) {
			p, err = shard.ReadPayload(bytes.NewReader(buf.Bytes()))
			return err
		})
		if err != nil {
			return err
		}
		decode += s
		solver, err := shard.NewBlockSolver(p.Sub, p.Degs, r.Lo, r.Hi, partitionBytes)
		if err != nil {
			return err
		}
		out := make([]float32, r.Len())
		per, err := env.repeat("shard.BlockSolver.Round", env.root, len(rounds), func(int) (err error) {
			_, err = solver.Round(ranks, out, shard.SolveOptions{Damping: damping})
			return err
		})
		if err != nil {
			return err
		}
		for j, s := range per {
			rounds[j] += s // a round of the fleet is every block's round
		}
	}
	env.res.put("shard.payload_bytes", payloadBytes)
	env.res.put("shard.payload_encode_s", encode)
	env.res.put("shard.payload_decode_s", decode)
	env.res.putMedian("shard.block_round_s", rounds)
	// Every worker sends its slice of 4-byte ranks to every peer (computed).
	env.res.put("shard.swap_bytes_per_round", float64(4*n*(len(assign)-1)))
	env.tr.count("shard.payload_bytes", int64(payloadBytes))
	return nil
}

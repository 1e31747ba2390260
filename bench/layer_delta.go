package main

import (
	"time"

	"repro/internal/delta"
	"repro/internal/graph"
)

func toEdges(pairs [][2]uint32) []graph.Edge {
	out := make([]graph.Edge, len(pairs))
	for i, p := range pairs {
		out[i] = graph.Edge{Src: graph.NodeID(p[0]), Dst: graph.NodeID(p[1]), W: 1}
	}
	return out
}

// edgeDelta is mutation o in the form the Server and delta.Apply take.
func edgeDelta(o op) delta.EdgeDelta {
	if o.Kind == opDelete {
		return delta.EdgeDelta{Delete: toEdges(o.Edges)}
	}
	return delta.EdgeDelta{Insert: toEdges(o.Edges)}
}

// insertDeletePairs draws insert batches from sched until count of them
// pass keep, and returns each followed by the delete that undoes it.
func insertDeletePairs(sched *writeSchedule, count int, keep func(op) bool) []op {
	var ops []op
	for len(ops) < 2*count {
		if ins := sched.batch(); keep(ins) {
			ops = append(ops, ins, ins.asDelete())
		}
	}
	return ops
}

// deltas probes the mutation path from the outside in, giving every level
// the same batches: the edges endpoint over HTTP (tail and hub batches),
// Server.ApplyEdgeDelta, delta.Apply on the snapshot the server holds, and
// graph.Patch alone. Every batch is inserted and then deleted, so the graph
// ends as it began. It also measures what one logged delta costs on disk.
func (sp *serveProbe) deltas() error {
	env := sp.env
	if err := sp.s.srv.Checkpoint(); err != nil { // so the deltas below are the whole log tail
		return err
	}
	sizeBefore := dirBytes(sp.dataDir)
	logged := 0

	viaHTTP := func(name string, ops []op) (ms []float64, fallbacks int, err error) {
		secs, err := env.repeat("http."+name, env.root, len(ops), func(i int) (err error) {
			var out opOutcome
			if out, err = sp.c.exec(ops[i]); out.Fallback {
				fallbacks++
			}
			return err
		})
		logged += len(ops)
		return scale(secs, 1000), fallbacks, err
	}
	hubOps := insertDeletePairs(newWriteSchedule(env.cfg.Seed+2, sp.n, hubVertices(sp.g, hubCount)),
		env.cfg.reps(3), func(o op) bool { return o.Hub })
	tailOps := insertDeletePairs(newWriteSchedule(env.cfg.Seed+3, sp.n, nil),
		env.cfg.reps(6), func(op) bool { return true })
	tail, tailFallbacks, err := viaHTTP("edges.tail", tailOps)
	if err != nil {
		return err
	}
	hub, hubFallbacks, err := viaHTTP("edges.hub", hubOps)
	if err != nil {
		return err
	}
	env.res.putMedian("serve.delta.tail_p50_ms", tail)
	env.res.putMedian("serve.delta.hub_p50_ms", hub)
	env.res.put("serve.delta.fallback_ratio", float64(tailFallbacks+hubFallbacks)/float64(len(tailOps)+len(hubOps)))

	// The same tail batches, one level down each time.
	direct, err := env.repeat("serve.Server.ApplyEdgeDelta", env.root, len(tailOps), func(i int) error {
		_, aerr := sp.s.srv.ApplyEdgeDelta(graphName, edgeDelta(tailOps[i]))
		return aerr
	})
	if err != nil {
		return err
	}
	logged += len(tailOps)
	env.res.putMedian("serve.delta.direct_p50_ms", scale(direct, 1000))
	env.res.put("wal.bytes_per_record", float64(dirBytes(sp.dataDir)-sizeBefore)/float64(logged))
	env.tr.count("wal.records", int64(logged))

	_, snap, err := sp.s.srv.TopK(graphName, 1)
	if err != nil {
		return err
	}
	g, ranks := snap.Graph, snap.Ranks
	var rounds float64
	var residualBytes, encodeSecs float64
	applies, err := env.repeat("delta.Apply", env.root, len(tailOps), func(i int) error {
		r, aerr := delta.Apply(g, ranks, edgeDelta(tailOps[i]), delta.Options{MaxRounds: 1000})
		if aerr != nil || r.FellBack {
			return aerr // a fallback leaves the inputs as they are
		}
		rounds += float64(r.Rounds)
		t0 := time.Now()
		blob, _ := delta.EncodeResidual(ranks, r.Ranks)
		encodeSecs += time.Since(t0).Seconds()
		residualBytes += float64(len(blob))
		g, ranks = r.Graph, r.Ranks
		return nil
	})
	if err != nil {
		return err
	}
	env.res.putMedian("delta.apply_p50_ms", scale(applies, 1000))
	env.res.put("ppr.repair_rounds", rounds/float64(len(tailOps)))
	env.res.put("delta.residual_bytes", residualBytes/float64(len(tailOps)))
	env.res.put("delta.encode_residual_s", encodeSecs/float64(len(tailOps)))

	g = snap.Graph
	patches, err := env.repeat("graph.Patch", env.root, len(tailOps), func(i int) (err error) {
		d := edgeDelta(tailOps[i])
		g, err = graph.Patch(g, d.Insert, d.Delete)
		return err
	})
	if err != nil {
		return err
	}
	env.res.putMedian("graph.patch_p50_ms", scale(patches, 1000))
	return nil
}

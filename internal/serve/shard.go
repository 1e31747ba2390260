package serve

import (
	"errors"
	"fmt"
	"time"

	pcpm "repro"
	"repro/internal/graph"
	"repro/internal/scc"
	"repro/internal/shard"
)

// MethodSharded is the method name reported by snapshots a shard fleet
// computed. It is serve-local: the facade's engine registry has no sharded
// entry because the distributed rounds run inside worker processes, not in
// this one.
const MethodSharded pcpm.Method = "pcpm-sharded"

// ErrShardUnsupported marks operations the coordinator cannot honor on a
// sharded deployment (currently edge deltas; re-upload to mutate).
var ErrShardUnsupported = errors.New("serve: not supported on sharded graphs")

// ShardInfo rides on sharded snapshots: the deployment the ranks live in.
// Ranks stay resident only on the workers — the snapshot's Ranks slice is
// nil and queries scatter-gather per request — but the snapshot keeps the
// graph structure, so coordinator-local paths that need it (personalized
// PageRank, stats, PPR bounds checks) are unchanged.
type ShardInfo struct {
	// Assignment maps shard index to its owned row block.
	Assignment shard.Assignment `json:"assignment"`
	// Workers is the fleet size.
	Workers int `json:"workers"`
	// Rounds and Delta describe the distributed solve that produced this
	// snapshot (mirrors Snapshot.Iterations / Snapshot.Delta).
	Rounds int     `json:"rounds"`
	Delta  float64 `json:"delta"`
}

// Sharded reports whether the server fronts a shard-worker fleet.
func (s *Server) Sharded() bool { return s.coord != nil }

// solveOptions lowers resolved pcpm options to the shard wire options,
// applying the facade's documented defaults (damping 0.85, 20 fixed
// iterations when no tolerance, MaxIterations cap 1000) so a sharded server
// honors the same knobs as the monolithic one.
func solveOptions(opts pcpm.Options) shard.SolveOptions {
	so := shard.SolveOptions{
		Damping:      opts.Damping,
		Tolerance:    opts.Tolerance,
		MaxRounds:    opts.MaxIterations,
		Workers:      opts.Workers,
		Redistribute: opts.RedistributeDangling,
	}
	if so.Damping == 0 {
		so.Damping = 0.85
	}
	if so.Tolerance <= 0 {
		so.Rounds = opts.Iterations
		if so.Rounds == 0 {
			so.Rounds = 20
		}
	}
	return so
}

// computeSharded is compute's coordinator-mode twin: instead of running an
// engine in-process it deploys (fresh ingest) or re-solves (recompute) on
// the worker fleet and wraps the deployment info in a snapshot with no
// resident rank vector. A deploy is the one consumer of a full decomposition
// in this package (the condensation-aware row-block cut), so it decomposes
// here and leaves the component summary in the new structure's memo.
func (s *Server) computeSharded(e *entry, g *graph.Graph, opts pcpm.Options, fresh bool) (*Snapshot, error) {
	so := solveOptions(opts)
	start := time.Now()
	var info shard.DeployInfo
	var dec *scc.Result
	if fresh {
		dec = scc.Decompose(g, 0)
		di, err := s.coord.Deploy(e.name, g, dec, so)
		if err != nil {
			return nil, err
		}
		info = *di
	} else {
		if err := s.coord.Solve(e.name, so); err != nil {
			return nil, err
		}
		di, ok := s.coord.Info(e.name)
		if !ok {
			return nil, fmt.Errorf("serve: sharded graph %q vanished mid-recompute", e.name)
		}
		info = di
	}
	snap := e.seal(&Snapshot{
		Graph:       g,
		Options:     opts,
		Method:      MethodSharded,
		Iterations:  info.Rounds,
		Delta:       info.Delta,
		Version:     e.version.Add(1),
		ComputedAt:  time.Now(),
		ComputeTime: time.Since(start),
		Shard: &ShardInfo{
			Assignment: info.Assignment,
			Workers:    len(s.coord.Workers()),
			Rounds:     info.Rounds,
			Delta:      info.Delta,
		},
	})
	if dec != nil {
		snap.comps.fill(g, func() (int, int) { return dec.NumComps, dec.LargestComponent() })
	}
	return snap, nil
}

// shardTopK answers a top-k query by fanning out to the workers and k-way
// merging their slices; the result is identical to selecting over the
// gathered vector.
func (s *Server) shardTopK(name string, k int) ([]pcpm.RankEntry, error) {
	entries, err := s.coord.TopK(name, k)
	if err != nil {
		return nil, err
	}
	out := make([]pcpm.RankEntry, len(entries))
	for i, e := range entries {
		out[i] = pcpm.RankEntry{Node: e.Node, Rank: e.Rank}
	}
	return out, nil
}

// shardRank routes a single-vertex query to the owning worker.
func (s *Server) shardRank(name string, snap *Snapshot, vertex uint32) (float32, error) {
	if n := snap.Graph.NumNodes(); int64(vertex) >= int64(n) {
		return 0, fmt.Errorf("serve: vertex %d out of range [0,%d)", vertex, n)
	}
	e, err := s.coord.Rank(name, vertex)
	if err != nil {
		return 0, err
	}
	return e.Rank, nil
}

// Ready reports whether the server can answer queries: a follower must have
// bootstrapped its registry from the leader, and a durable leader must have
// recovered its WAL. The health endpoint turns false into a 503 so
// coordinators and CI wait loops can poll without sleep heuristics.
func (s *Server) Ready() (bool, string) {
	if s.follower != nil && !s.promoted.Load() {
		if s.follower.bootstraps.Load() == 0 {
			return false, "follower has not bootstrapped from its leader yet"
		}
		return true, ""
	}
	if s.cfg.DataDir != "" && s.wal.Load() == nil {
		return false, "write-ahead log not recovered yet"
	}
	return true, ""
}

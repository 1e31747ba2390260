package serve

import (
	pcpm "repro"
	"repro/internal/graph"
	"repro/internal/shard"
)

// MethodSharded is the method name reported by snapshots a shard fleet
// computed. It is serve-local: the facade's engine registry has no sharded
// entry because the distributed rounds run inside worker processes, not in
// this one.
const MethodSharded pcpm.Method = "pcpm-sharded"

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

// solveSharded runs one solve of g on the worker fleet. The coordinator
// ships g's row blocks first when its workers hold another graph under name
// (an ingest, a replace, a delta's fallback, the first recompute after a
// restart), and the gathered vector comes back like an in-process run's.
func (s *Server) solveSharded(name string, g *graph.Graph, opts pcpm.Options) (*pcpm.Result, error) {
	ranks, rounds, delta, err := s.coord.Solve(name, g, solveOptions(opts))
	if err != nil {
		return nil, err
	}
	return &pcpm.Result{Ranks: ranks, Iterations: rounds, Delta: delta, Method: MethodSharded}, nil
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

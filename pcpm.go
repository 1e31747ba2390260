// Package pcpm is the public facade of the Partition-Centric Processing
// Methodology (PCPM) PageRank library, a from-scratch Go reproduction of
// "Accelerating PageRank using Partition-Centric Processing" (Lakhotia,
// Kannan, Prasanna — USENIX ATC 2018).
//
// The facade wraps the implementation packages under internal/ (graph
// substrate, partitioner, PNG layout, engines, traffic simulator) behind a
// small surface:
//
//	g, _ := pcpm.LoadEdgeList(file)
//	res, _ := pcpm.Run(g, pcpm.Options{Method: pcpm.MethodPCPM, Iterations: 20})
//	for _, e := range pcpm.TopK(res.Ranks, 10) { ... }
//
// Engines: MethodPDPR (pull baseline, Algorithm 1), MethodBVGAS (binning
// vertex-centric GAS, Algorithm 5), MethodPCPMCSR (partition-centric without the PNG layout, Algorithm 2),
// and MethodPCPM (the paper's contribution: PNG scatter, Algorithm 3, plus
// branch-avoiding gather, Algorithm 4).
//
// Beyond the paper's global PageRank, RunPersonalized and PPREngine answer
// Personalized PageRank queries (per-seed-set rank vectors) with the
// forward-push engine in internal/ppr.
package pcpm

import (
	"bufio"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/graph"
	"repro/internal/ppr"
	"repro/internal/scc"
)

// Method names a PageRank engine.
type Method string

// The available engines.
const (
	MethodPDPR    Method = "pdpr"
	MethodBVGAS   Method = "bvgas"
	MethodPCPMCSR Method = "pcpm-csr"
	MethodPCPM    Method = "pcpm"
)

// Methods lists every engine in baseline-to-contribution order.
func Methods() []Method {
	return []Method{MethodPDPR, MethodBVGAS, MethodPCPMCSR, MethodPCPM}
}

// Options configure a Run. Zero values select the paper's defaults:
// PCPM engine, damping 0.85, 256 KB partitions, GOMAXPROCS workers,
// 20 iterations, dangling mass leaking as in the paper's formulation.
type Options struct {
	// Method selects the engine (default MethodPCPM).
	Method Method
	// Damping is the PageRank damping factor d (default 0.85).
	Damping float64
	// PartitionBytes sets the PCPM partition / BVGAS bin width in bytes of
	// 4-byte vertex values; must be a power of two (default 256 KB).
	PartitionBytes int
	// Workers bounds engine parallelism (default GOMAXPROCS).
	Workers int
	// Iterations runs a fixed number of iterations (default 20) unless
	// Tolerance is set.
	Iterations int
	// Tolerance, if positive, runs until the L1 rank change drops below it
	// (capped at MaxIterations).
	Tolerance float64
	// MaxIterations caps convergence mode (default 1000).
	MaxIterations int
	// RedistributeDangling spreads dangling-node mass uniformly each
	// iteration so ranks sum to 1; the default (false) reproduces the
	// paper's formulation, which lets that mass leak.
	RedistributeDangling bool
}

// Result reports a completed PageRank computation.
type Result struct {
	// Ranks holds the final (unscaled) PageRank values, indexed by node.
	Ranks []float32
	// Iterations actually executed.
	Iterations int
	// Delta is the L1 change of the final iteration.
	Delta float64
	// Stats carries cumulative per-phase wall-clock times.
	Stats core.PhaseStats
	// PreprocessTime is the engine's setup cost: bin sizing for BVGAS, zero
	// for the pull baseline. For the PCPM engines it is the PNG build
	// time (Table 8) only when this Run built the layout — a graph keeps the
	// layout of its last partition size, so a later Run with the same
	// PartitionBytes reports just bin and rank-state allocation.
	PreprocessTime time.Duration
	// CompressionRatio is r = |E|/|E'| for the PCPM engines, 0 otherwise.
	CompressionRatio float64
	// Method that produced the result.
	Method Method
}

func (o Options) coreConfig() core.Config {
	cfg := core.Config{
		Damping:        o.Damping,
		Workers:        o.Workers,
		PartitionBytes: o.PartitionBytes,
	}
	if o.RedistributeDangling {
		cfg.Dangling = core.DanglingRedistribute
	}
	return cfg
}

// NewEngine constructs the engine selected by the options without running
// it, for callers that want to drive iterations themselves.
func NewEngine(g *graph.Graph, o Options) (core.Engine, error) {
	cfg := o.coreConfig()
	switch o.Method {
	case MethodPDPR:
		return core.NewPDPR(g, cfg)
	case MethodBVGAS:
		return core.NewBVGAS(g, cfg)
	case MethodPCPMCSR:
		return core.NewPCPMCSR(g, cfg)
	case MethodPCPM, "":
		return core.NewPCPM(g, cfg)
	default:
		return nil, fmt.Errorf("pcpm: unknown method %q", o.Method)
	}
}

// Run executes PageRank on g with the given options.
func Run(g *graph.Graph, o Options) (*Result, error) {
	e, err := NewEngine(g, o)
	if err != nil {
		return nil, err
	}
	res := &Result{Method: Method(e.Name()), PreprocessTime: e.PreprocessTime()}
	if p, ok := e.(*core.PCPM); ok {
		res.CompressionRatio = p.CompressionRatio()
	}
	if o.Tolerance > 0 {
		maxIters := o.MaxIterations
		if maxIters <= 0 {
			maxIters = 1000
		}
		res.Iterations, res.Delta = core.RunToConvergence(e, o.Tolerance, maxIters)
	} else {
		iters := o.Iterations
		if iters <= 0 {
			iters = 20
		}
		for i := 0; i < iters; i++ {
			res.Delta = e.Step()
		}
		res.Iterations = iters
	}
	res.Ranks = e.Ranks()
	res.Stats = e.Stats()
	return res, nil
}

// PPRRunOptions carry the parameters of one personalized PageRank run:
// damping, epsilon, top-k and the round cap. There are no others — an engine
// is sized by its graph's node count alone.
type PPRRunOptions = ppr.RunOptions

// PPREngine is reusable personalized PageRank scratch for one graph
// (~17 bytes/node). One engine is NOT safe for concurrent Run calls; pool
// several for concurrent serving, as internal/serve does.
type PPREngine = ppr.Engine

// NewPPREngine builds a reusable personalized PageRank engine for g. Query
// parameters are supplied per Engine.Run call, so one engine (or a pool)
// serves queries with arbitrary per-call epsilon, top-k, and damping.
func NewPPREngine(g *Graph) (*PPREngine, error) {
	return ppr.New(g, ppr.EngineOptions{})
}

// PPRResult is one completed personalized PageRank query: the full score
// vector, the optional top-K entries, round/push counts, and the residual
// L1 error bound.
type PPRResult = ppr.Result

// PPREntry pairs a vertex with its personalized score.
type PPREntry = ppr.Entry

// RunPersonalized computes the Personalized PageRank vector for a uniform
// distribution over the given seed vertices by residual forward push: a
// worklist of waiting vertices while few wait, in-place push sweeps over all
// vertices while many do. The result's ResidualL1 bounds the L1 distance to
// the exact answer by o.Epsilon. To answer many seed sets, build one
// PPREngine and loop.
func RunPersonalized(g *graph.Graph, seeds []uint32, o PPRRunOptions) (*PPRResult, error) {
	return ppr.Run(g, seeds, o)
}

// Edge re-exports the graph substrate's directed edge, the element type of
// edge-delta batches.
type Edge = graph.Edge

// EdgeDelta is one batch of edge insertions and deletions for a dynamic
// graph; see internal/delta for the exact matching semantics (deletions
// remove one parallel instance each, endpoints must already exist).
type EdgeDelta = delta.EdgeDelta

// DeltaOptions configure ApplyEdgeDelta: the damping the input ranks were
// computed with, the repair's epsilon (its own L1 error bound), the
// fallback threshold on dirtied residual mass, and an engine to reuse.
type DeltaOptions = delta.Options

// DeltaResult reports one applied edge delta: the rebuilt graph, the
// repaired ranks (nil when the repair fell back and the caller must rerun
// its engine), and drain statistics.
type DeltaResult = delta.Result

// ApplyEdgeDelta applies a batch of edge insertions/deletions to g and
// repairs ranks incrementally: residuals are seeded at the vertices whose
// out-neighborhoods changed (the sparse perturbation ((1−α)/α)(M′−M)p) and
// drained with the signed forward-push engine, so small deltas
// cost far less than a from-scratch engine run. When the dirtied mass
// exceeds DeltaOptions.FallbackL1 the result reports FellBack and carries
// only the rebuilt graph — run the engine on it instead.
func ApplyEdgeDelta(g *Graph, ranks []float32, d EdgeDelta, o DeltaOptions) (*DeltaResult, error) {
	return delta.Apply(g, ranks, d, o)
}

// RankEntry re-exports core.RankEntry for TopK consumers.
type RankEntry = core.RankEntry

// TopK returns the k highest-ranked nodes in descending order.
func TopK(ranks []float32, k int) []RankEntry { return core.TopK(ranks, k) }

// Graph re-exports the graph substrate's immutable CSR graph so facade
// consumers (and the serving layer) need not import internal packages.
type Graph = graph.Graph

// GraphStats re-exports the graph summary record (nodes, edges, degree
// extremes, dangling count, component summary).
type GraphStats = graph.Stats

// ComputeGraphStats summarizes g and fills the component fields (count and
// largest component) from a sequential SCC decomposition.
func ComputeGraphStats(g *Graph) GraphStats { return scc.ComputeStats(g) }

// NewGraphBuilder returns a builder for assembling a graph edge by edge.
func NewGraphBuilder(n int) *graph.Builder { return graph.NewBuilder(n) }

// LoadEdgeList parses a "src dst [weight]" text edge list; node count is
// inferred from the largest ID.
func LoadEdgeList(r io.Reader) (*graph.Graph, error) {
	return graph.ReadEdgeList(r, graph.BuildOptions{})
}

// LoadGraph reads a graph in either supported format, sniffing the binary
// magic from the stream's first bytes rather than trusting a file extension.
// Anything that is not the binary format is parsed as a text edge list; an
// empty stream is an error (a likely client mistake), not an empty graph.
func LoadGraph(r io.Reader) (*graph.Graph, error) {
	// A small buffer suffices for the 8-byte sniff; the format readers do
	// their own bulk buffering (ReadBinary reuses this *bufio.Reader).
	br := bufio.NewReaderSize(r, 4096)
	head, err := br.Peek(8)
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("pcpm: sniffing graph format: %w", err)
	}
	if len(head) == 0 {
		return nil, fmt.Errorf("pcpm: empty graph stream")
	}
	if graph.SniffBinary(head) {
		return graph.ReadBinary(br)
	}
	return graph.ReadEdgeList(br, graph.BuildOptions{})
}

// LoadBinary reads a graph in the repo's binary format.
func LoadBinary(r io.Reader) (*graph.Graph, error) { return graph.ReadBinary(r) }

// SaveBinary writes a graph in the repo's binary format.
func SaveBinary(w io.Writer, g *graph.Graph) error { return graph.WriteBinary(w, g) }

// SaveEdgeList writes a graph as a text edge list.
func SaveEdgeList(w io.Writer, g *graph.Graph) error { return graph.WriteEdgeList(w, g) }

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§5), plus per-engine micro-benchmarks and the DESIGN.md §5
// ablations. Experiment-level benchmarks regenerate the corresponding
// table through internal/harness at a reduced scale; run
//
//	go test -bench=. -benchmem
//
// for the whole suite, or cmd/pcpm-bench for full-scale tables.
package pcpm

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/memsim"
	"repro/internal/partition"
	"repro/internal/png"
	"repro/internal/reorder"
)

// benchExpOpts shrinks experiment-level benchmarks (~7K–29K-node analogs).
func benchExpOpts() harness.Options {
	return harness.Options{Divisor: 4096, Workers: 0, Iterations: 4, Seed: 42}
}

// benchEngineOpts sizes the per-engine micro-benchmarks (~28K–115K nodes).
func benchEngineOpts() harness.Options {
	return harness.Options{Divisor: 1024, Workers: 0, Iterations: 4, Seed: 42}
}

// benchExperiment runs a harness experiment once per b.N iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	exp, err := harness.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	opt := benchExpOpts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Run(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// --- One benchmark per paper table -----------------------------------------

func BenchmarkTable4Datasets(b *testing.B)      { benchExperiment(b, "table4") }
func BenchmarkTable5Time(b *testing.B)          { benchExperiment(b, "table5") }
func BenchmarkTable6GOrder(b *testing.B)        { benchExperiment(b, "table6") }
func BenchmarkTable7LabelTraffic(b *testing.B)  { benchExperiment(b, "table7") }
func BenchmarkTable8Preprocessing(b *testing.B) { benchExperiment(b, "table8") }

// --- One benchmark per paper figure -----------------------------------------

func BenchmarkFig1VertexTraffic(b *testing.B)     { benchExperiment(b, "fig1") }
func BenchmarkFig6ModelSweep(b *testing.B)        { benchExperiment(b, "fig6") }
func BenchmarkFig7GTEPS(b *testing.B)             { benchExperiment(b, "fig7") }
func BenchmarkFig8BytesPerEdge(b *testing.B)      { benchExperiment(b, "fig8") }
func BenchmarkFig9Bandwidth(b *testing.B)         { benchExperiment(b, "fig9") }
func BenchmarkFig10Energy(b *testing.B)           { benchExperiment(b, "fig10") }
func BenchmarkFig11CompressionSweep(b *testing.B) { benchExperiment(b, "fig11") }
func BenchmarkFig12CommSweep(b *testing.B)        { benchExperiment(b, "fig12") }
func BenchmarkFig13TimeSweep(b *testing.B)        { benchExperiment(b, "fig13") }
func BenchmarkFig14PhaseSweep(b *testing.B)       { benchExperiment(b, "fig14") }

// --- Extension benchmark (paper §6 future work) ------------------------------

func BenchmarkExtCompactIDs(b *testing.B)  { benchExperiment(b, "compact") }
func BenchmarkExtEdgeBalance(b *testing.B) { benchExperiment(b, "edgebalance") }

// --- Per-engine iteration benchmarks (the Table 5 / Fig 7 measurement at
// micro scale: one op = one PageRank iteration; throughput metric is GTEPS).

func loadBenchDataset(b *testing.B, name string) *graph.Graph {
	b.Helper()
	spec, err := harness.DatasetByName(name)
	if err != nil {
		b.Fatal(err)
	}
	g, err := harness.LoadDataset(spec, benchEngineOpts())
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func benchEngine(b *testing.B, g *graph.Graph, method Method) {
	b.Helper()
	e, err := NewEngine(g, Options{Method: method, PartitionBytes: 64 << 10})
	if err != nil {
		b.Fatal(err)
	}
	e.Step()                     // warm-up: writes destination IDs, touches all arrays
	b.SetBytes(g.NumEdges() * 8) // ~2 indices per edge as a traffic proxy
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
	b.StopTimer()
	gteps := float64(g.NumEdges()) / 1e9 / b.Elapsed().Seconds() * float64(b.N)
	b.ReportMetric(gteps, "GTEPS")
}

func BenchmarkEngines(b *testing.B) {
	for _, ds := range []string{"gplus", "pld", "web", "kron", "twitter", "sd1"} {
		g := loadBenchDataset(b, ds)
		for _, m := range Methods() {
			if m == MethodComponentwise {
				// No step-wise engine to time per iteration; see
				// BenchmarkComponentwiseVsMonolithic in internal/comp.
				continue
			}
			b.Run(fmt.Sprintf("%s/%s", ds, m), func(b *testing.B) {
				benchEngine(b, g, m)
			})
		}
	}
}

// --- Ablation benchmarks (DESIGN.md §5) -------------------------------------

// BenchmarkAblationPNG compares the PNG scatter (Algorithm 3) against the
// Algorithm 2 CSR scatter on the kron analog.
func BenchmarkAblationPNG(b *testing.B) {
	g := loadBenchDataset(b, "kron")
	b.Run("png-scatter", func(b *testing.B) { benchEngine(b, g, MethodPCPM) })
	b.Run("csr-scatter", func(b *testing.B) { benchEngine(b, g, MethodPCPMCSR) })
}

// BenchmarkAblationBranch compares branch-avoiding (Algorithm 4) and
// branching gathers.
func BenchmarkAblationBranch(b *testing.B) {
	g := loadBenchDataset(b, "kron")
	run := func(b *testing.B, branching bool) {
		e, err := NewEngine(g, Options{
			Method: MethodPCPM, PartitionBytes: 64 << 10, BranchingGather: branching,
		})
		if err != nil {
			b.Fatal(err)
		}
		e.Step()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Step()
		}
	}
	b.Run("branch-avoiding", func(b *testing.B) { run(b, false) })
	b.Run("branching", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationSched compares dynamic and static partition scheduling.
func BenchmarkAblationSched(b *testing.B) {
	g := loadBenchDataset(b, "twitter")
	run := func(b *testing.B, sched core.SchedKind) {
		e, err := core.NewPCPM(g, core.Config{PartitionBytes: 64 << 10, Sched: sched})
		if err != nil {
			b.Fatal(err)
		}
		e.Step()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Step()
		}
	}
	b.Run("dynamic", func(b *testing.B) { run(b, core.SchedDynamic) })
	b.Run("static", func(b *testing.B) { run(b, core.SchedStatic) })
}

// --- Substrate micro-benchmarks ----------------------------------------------

// BenchmarkPNGBuild measures PNG construction (the Table 8 preprocessing).
func BenchmarkPNGBuild(b *testing.B) {
	g := loadBenchDataset(b, "kron")
	layout, err := partition.FromBytes(g.NumNodes(), 64<<10)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(g.NumEdges() * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := png.Build(g, layout, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemsimAccess measures raw simulator throughput.
func BenchmarkMemsimAccess(b *testing.B) {
	sim, err := memsim.New(memsim.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Read(uint64(i*4)&0xFFFFFF, 4, memsim.StreamValues)
	}
}

// BenchmarkGOrder measures the reordering preprocessing cost the paper
// cites as the drawback of locality optimizations.
func BenchmarkGOrder(b *testing.B) {
	g, err := gen.Copying(gen.CopyingConfig{
		N: 20000, OutDegree: 10, CopyProb: 0.5, Locality: 0.4, Seed: 3,
	}, graph.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reorder.GOrder(g, reorder.DefaultGOrderConfig())
	}
}

// BenchmarkGraphBuild measures CSR+CSC construction throughput.
func BenchmarkGraphBuild(b *testing.B) {
	edges := make([]graph.Edge, 1<<20)
	r := gen.RandomPermutation(1<<20, 5)
	for i := range edges {
		edges[i] = graph.Edge{Src: r[i] % (1 << 18), Dst: r[(i+7)%len(r)] % (1 << 18)}
	}
	b.SetBytes(int64(len(edges)) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.FromEdges(1<<18, edges, false, graph.BuildOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// Package harness wires the substrate packages into the paper's
// evaluation (§5): it defines scaled generator analogs of the six
// evaluation datasets (Table 4) and one runner per table and figure —
// execution-time splits (Table 5, Figs. 7, 13–14), DRAM traffic and
// locality studies via memsim (Tables 6–7, Figs. 1, 8–12), analytical
// model sweeps via model (Fig. 6), and pre-processing cost (Table 8) —
// plus runners for the §6 extensions (16-bit ID streams, edge-balanced
// partitions) and design-choice ablations. Each runner returns a rendered
// Table carrying the measured values next to the paper's published
// numbers where they exist, so drift from the reproduction target is
// visible at a glance. Registry lists every runner by its paper ID;
// cmd/pcpm-bench is the CLI front end, and docs/PAPER_MAPPING.md maps the
// IDs back to the paper.
package harness

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"

	"repro/internal/gen"
	"repro/internal/graph"
)

// Options configure an experiment run.
type Options struct {
	// Divisor scales the paper's datasets down: an analog has
	// paper-nodes/Divisor nodes at the paper's average degree. 256 is the
	// default used by cmd/pcpm-bench; the in-repo benchmarks use 1024.
	Divisor int
	// Workers is the engine worker count (0 = GOMAXPROCS).
	Workers int
	// Iterations per timing measurement (the paper uses 20).
	Iterations int
	// Seed feeds every generator deterministically.
	Seed uint64
}

// DefaultOptions mirrors the paper's methodology at 1/256 scale.
func DefaultOptions() Options {
	return Options{Divisor: 256, Workers: 0, Iterations: 20, Seed: 42}
}

func (o Options) normalized() Options {
	if o.Divisor <= 0 {
		o.Divisor = 256
	}
	if o.Iterations <= 0 {
		o.Iterations = 20
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// TimingPartitionBytes is the engine partition/bin width used for
// wall-clock experiments. The paper tunes 256 KB against a 25 MB LLC; the
// Fig. 13 sweep reproduces the tuning at this repo's scale.
const TimingPartitionBytes = 64 << 10

// SimPartitionBytes returns the partition size used in traffic simulation:
// the paper's 256 KB scaled by the divisor (floor 256 B), preserving the
// paper's k = n/q geometry (440–1800 partitions per dataset).
func (o Options) SimPartitionBytes() int {
	b := (256 << 10) / o.Divisor
	if b < 256 {
		b = 256
	}
	// Round down to a power of two.
	p := 256
	for p*2 <= b {
		p *= 2
	}
	return p
}

// SimCacheBytes returns the simulated LLC size: the paper's 25 MB scaled by
// the divisor (floor 16 KB), preserving the cache:data ratio.
func (o Options) SimCacheBytes() int {
	b := (25 << 20) / o.Divisor
	if b < 16<<10 {
		b = 16 << 10
	}
	return b
}

// DatasetSpec describes one analog of a paper dataset (Table 4).
type DatasetSpec struct {
	Name        string
	Description string
	PaperNodesM float64 // paper's node count, millions
	PaperEdgesM float64 // paper's edge count, millions
	PaperDegree float64
	PaperROrig  float64 // Table 6: compression ratio, original labels
	PaperRGOrd  float64 // Table 6: compression ratio, GOrder labels

	generate func(n int, degree float64, seed uint64) (*graph.Graph, error)
}

// Nodes returns the analog's node count at the given divisor.
func (d DatasetSpec) Nodes(divisor int) int {
	n := int(d.PaperNodesM * 1e6 / float64(divisor))
	if n < 1024 {
		n = 1024
	}
	return n
}

// Generate builds the analog graph.
func (d DatasetSpec) Generate(divisor int, seed uint64) (*graph.Graph, error) {
	return d.generate(d.Nodes(divisor), d.PaperDegree, seed)
}

// genCopying builds a copying-model analog with *latent* community
// structure: the graph is generated with strong locality over a hidden
// ordering, then a fraction of node labels is displaced at random. The
// parameters are calibrated (TestTable6GOrderImprovesCompression checks
// the direction) so that, at the paper's n/q ≈ 440–1800 geometry, the
// displaced ("original") labeling matches the paper's Table 6 r and the
// hidden ordering approximates its GOrder r —
// mirroring real graphs, whose IDs only partially capture community
// structure and where GOrder rediscovers the remainder.
//
// CopyProb controls clustering/skew, Locality the hidden local-link share,
// PrefGlobal the hub tail, windowFrac the locality span relative to n, and
// displaced the fraction of scattered labels.
func genCopying(copyProb, locality, prefGlobal float64, windowFrac int, displaced float64) func(int, float64, uint64) (*graph.Graph, error) {
	return func(n int, degree float64, seed uint64) (*graph.Graph, error) {
		window := n / windowFrac
		if window < 8 {
			window = 8
		}
		g, err := gen.Copying(gen.CopyingConfig{
			N:          n,
			OutDegree:  int(degree + 0.5),
			CopyProb:   copyProb,
			Locality:   locality,
			PrefGlobal: prefGlobal,
			Window:     window,
			Seed:       seed,
		}, graph.BuildOptions{})
		if err != nil || displaced == 0 {
			return g, err
		}
		return displaceLabels(g, displaced, seed^0xD15C)
	}
}

// displaceLabels relocates roughly frac of the nodes to random label
// positions (a permutation that shuffles the selected nodes among their
// own slots), degrading label locality without touching structure.
func displaceLabels(g *graph.Graph, frac float64, seed uint64) (*graph.Graph, error) {
	n := g.NumNodes()
	r := rand.New(rand.NewPCG(seed, 0xBADC0DE))
	perm := make([]graph.NodeID, n)
	for i := range perm {
		perm[i] = graph.NodeID(i)
	}
	var sel []int
	for i := 0; i < n; i++ {
		if r.Float64() < frac {
			sel = append(sel, i)
		}
	}
	r.Shuffle(len(sel), func(i, j int) {
		perm[sel[i]], perm[sel[j]] = perm[sel[j]], perm[sel[i]]
	})
	edges := g.Edges()
	for i := range edges {
		edges[i].Src = perm[edges[i].Src]
		edges[i].Dst = perm[edges[i].Dst]
	}
	return graph.FromEdges(n, edges, g.Weighted(), graph.BuildOptions{})
}

// genKron builds the Graph500 Kronecker analog. Labels are left unpermuted:
// the paper measures r = 3.06 for its kron dataset, which implies the
// evaluated graph retains the generator's prefix locality (a fully random
// relabeling would give r ≈ 1 at k = 512).
func genKron(n int, degree float64, seed uint64) (*graph.Graph, error) {
	scale := int(math.Round(math.Log2(float64(n))))
	if scale < 10 {
		scale = 10
	}
	cfg := gen.Graph500RMAT(scale, int(degree+0.5), seed)
	cfg.PermuteLabels = false
	return gen.RMAT(cfg, graph.BuildOptions{})
}

// Datasets returns the six analogs in the paper's Table 4 order.
func Datasets() []DatasetSpec {
	return []DatasetSpec{
		{
			Name: "gplus", Description: "Google Plus follower network (social)",
			PaperNodesM: 28.94, PaperEdgesM: 462.99, PaperDegree: 16,
			PaperROrig: 1.9, PaperRGOrd: 2.94,
			generate: genCopying(0.55, 0.76, 0.5, 1024, 0.24),
		},
		{
			Name: "pld", Description: "Pay-Level-Domain hyperlink graph (web)",
			PaperNodesM: 42.89, PaperEdgesM: 623.06, PaperDegree: 14.53,
			PaperROrig: 1.79, PaperRGOrd: 3.73,
			generate: genCopying(0.45, 0.86, 0.4, 1024, 0.35),
		},
		{
			Name: "web", Description: "Webbase-2001 crawl, high-locality labels",
			PaperNodesM: 118.14, PaperEdgesM: 992.84, PaperDegree: 8.4,
			PaperROrig: 8.4, PaperRGOrd: 7.83,
			generate: genCopying(0.50, 0.99, 0, 16384, 0),
		},
		{
			Name: "kron", Description: "Graph500 scale-25 Kronecker (synthetic)",
			PaperNodesM: 33.5, PaperEdgesM: 1047.93, PaperDegree: 31.28,
			PaperROrig: 3.06, PaperRGOrd: 6.17,
			generate: genKron,
		},
		{
			Name: "twitter", Description: "Twitter follower network (social)",
			PaperNodesM: 61.58, PaperEdgesM: 1468.36, PaperDegree: 23.84,
			PaperROrig: 2.03, PaperRGOrd: 3.8,
			generate: genCopying(0.60, 0.82, 0.5, 1024, 0.28),
		},
		{
			Name: "sd1", Description: "Subdomain hyperlink graph (web)",
			PaperNodesM: 94.95, PaperEdgesM: 1937.49, PaperDegree: 20.4,
			PaperROrig: 1.98, PaperRGOrd: 5.29,
			generate: genCopying(0.45, 0.92, 0.4, 2048, 0.38),
		},
	}
}

// DatasetByName looks a spec up by name.
func DatasetByName(name string) (DatasetSpec, error) {
	for _, d := range Datasets() {
		if d.Name == name {
			return d, nil
		}
	}
	return DatasetSpec{}, fmt.Errorf("harness: unknown dataset %q", name)
}

// datasetCache memoizes generated graphs per (name, divisor, seed) so a
// bench suite does not regenerate the same analog for every experiment.
var datasetCache sync.Map

// LoadDataset returns the (possibly cached) analog graph for a spec.
func LoadDataset(spec DatasetSpec, opt Options) (*graph.Graph, error) {
	opt = opt.normalized()
	key := fmt.Sprintf("%s/%d/%d", spec.Name, opt.Divisor, opt.Seed)
	if g, ok := datasetCache.Load(key); ok {
		return g.(*graph.Graph), nil
	}
	g, err := spec.Generate(opt.Divisor, opt.Seed)
	if err != nil {
		return nil, err
	}
	datasetCache.Store(key, g)
	return g, nil
}

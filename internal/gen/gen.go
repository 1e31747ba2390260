// Package gen provides deterministic synthetic graph generators used as
// stand-ins for the paper's six real-world datasets (gplus, pld, web, kron,
// twitter, sd1), which total up to 1.9 billion edges and are not
// redistributable here.
//
// Each generator is seeded and reproducible. The substitution rationale
// (docs/PAPER_MAPPING.md, "Six evaluation datasets"): PCPM's behavior is
// governed by (a) degree distribution, (b) average degree, and (c)
// node-label locality — each generator matches those properties for its
// dataset class:
//
//   - Kronecker/R-MAT (Graph500 parameters) reproduces the paper's `kron`.
//   - Preferential attachment reproduces follower networks (gplus, twitter):
//     skewed in-degree, low label locality.
//   - The copying model with a locality knob reproduces hyperlink graphs
//     (pld, web, sd1): power-law + clustering; `web` uses high locality to
//     mimic its expensive crawl-order labeling (near-optimal compression
//     ratio with original labels, Table 6).
package gen

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/graph"
)

// rng returns the repo-standard deterministic PRNG for a seed.
func rng(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x2545f4914f6cdd1d))
}

// ErdosRenyi generates n nodes and m uniformly random directed edges
// (with possible duplicates unless dedup is requested via opts).
func ErdosRenyi(n int, m int64, seed uint64, opts graph.BuildOptions) (*graph.Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("gen: ErdosRenyi needs n > 0, got %d", n)
	}
	r := rng(seed)
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{
			Src: graph.NodeID(r.IntN(n)),
			Dst: graph.NodeID(r.IntN(n)),
			W:   1,
		}
	}
	return graph.FromEdges(n, edges, false, opts)
}

// RMATConfig parameterizes the recursive matrix (Kronecker) generator.
type RMATConfig struct {
	Scale      int     // n = 2^Scale nodes
	EdgeFactor int     // m = EdgeFactor * n directed edges
	A, B, C    float64 // quadrant probabilities; D = 1-A-B-C
	Noise      float64 // per-level probability perturbation, Graph500-style
	Seed       uint64
	// PermuteLabels applies a random node relabeling after generation, as
	// Graph500 does, destroying any label locality the recursion induced.
	PermuteLabels bool
}

// Graph500RMAT returns the Graph500 reference parameters
// (A=0.57, B=0.19, C=0.19) at the given scale and edge factor.
func Graph500RMAT(scale, edgeFactor int, seed uint64) RMATConfig {
	return RMATConfig{
		Scale: scale, EdgeFactor: edgeFactor,
		A: 0.57, B: 0.19, C: 0.19,
		Noise: 0.1, Seed: seed, PermuteLabels: true,
	}
}

// RMAT generates a Kronecker graph per the configuration. This is the
// substitute for the paper's `kron` dataset (scale-25 Graph500 Kronecker).
func RMAT(cfg RMATConfig, opts graph.BuildOptions) (*graph.Graph, error) {
	if cfg.Scale < 0 || cfg.Scale > 30 {
		return nil, fmt.Errorf("gen: RMAT scale %d out of range [0,30]", cfg.Scale)
	}
	if cfg.EdgeFactor < 0 {
		return nil, fmt.Errorf("gen: RMAT edge factor %d negative", cfg.EdgeFactor)
	}
	d := 1 - cfg.A - cfg.B - cfg.C
	if cfg.A < 0 || cfg.B < 0 || cfg.C < 0 || d < 0 {
		return nil, fmt.Errorf("gen: RMAT probabilities (%v,%v,%v) invalid", cfg.A, cfg.B, cfg.C)
	}
	n := 1 << cfg.Scale
	m := int64(cfg.EdgeFactor) * int64(n)
	r := rng(cfg.Seed)
	edges := make([]graph.Edge, m)
	for i := range edges {
		src, dst := rmatEdge(r, cfg)
		edges[i] = graph.Edge{Src: src, Dst: dst, W: 1}
	}
	if cfg.PermuteLabels {
		perm := RandomPermutation(n, cfg.Seed^0xABCD)
		for i := range edges {
			edges[i].Src = perm[edges[i].Src]
			edges[i].Dst = perm[edges[i].Dst]
		}
	}
	return graph.FromEdges(n, edges, false, opts)
}

func rmatEdge(r *rand.Rand, cfg RMATConfig) (graph.NodeID, graph.NodeID) {
	var src, dst uint32
	a, b, c := cfg.A, cfg.B, cfg.C
	for level := 0; level < cfg.Scale; level++ {
		// Graph500-style noise keeps the generator from producing an exactly
		// self-similar (and thus degenerate) degree sequence.
		na, nb, nc := a, b, c
		if cfg.Noise > 0 {
			na *= 1 + cfg.Noise*(2*r.Float64()-1)
			nb *= 1 + cfg.Noise*(2*r.Float64()-1)
			nc *= 1 + cfg.Noise*(2*r.Float64()-1)
		}
		sum := na + nb + nc + (1 - a - b - c)
		u := r.Float64() * sum
		src <<= 1
		dst <<= 1
		switch {
		case u < na:
			// top-left: no bits set
		case u < na+nb:
			dst |= 1
		case u < na+nb+nc:
			src |= 1
		default:
			src |= 1
			dst |= 1
		}
	}
	return src, dst
}

// PreferentialAttachment generates a directed graph where each new node
// emits outDegree edges whose targets are chosen proportionally to current
// in-degree (plus one smoothing). This matches the skewed in-degree and low
// label locality of follower networks (the paper's gplus and twitter).
func PreferentialAttachment(n, outDegree int, seed uint64, opts graph.BuildOptions) (*graph.Graph, error) {
	return PreferentialAttachmentMix(n, outDegree, 0, seed, opts)
}

// PreferentialAttachmentMix is PreferentialAttachment with a uniform
// mixture: each target is drawn uniformly with probability uniformFrac and
// by preferential attachment otherwise. Pure preferential attachment
// concentrates a constant fraction of all edges on the first node —
// far more skew than real follower networks exhibit — so the dataset
// analogs use a mixture to match realistic tail weight.
func PreferentialAttachmentMix(n, outDegree int, uniformFrac float64, seed uint64, opts graph.BuildOptions) (*graph.Graph, error) {
	if n <= 0 || outDegree < 0 {
		return nil, fmt.Errorf("gen: PreferentialAttachment(n=%d, outDegree=%d) invalid", n, outDegree)
	}
	if uniformFrac < 0 || uniformFrac > 1 {
		return nil, fmt.Errorf("gen: uniform fraction %v outside [0,1]", uniformFrac)
	}
	r := rng(seed)
	edges := make([]graph.Edge, 0, int64(n)*int64(outDegree))
	// targets holds one entry per received edge endpoint plus one smoothing
	// entry per node seen so far, giving in-degree-proportional sampling.
	targets := make([]graph.NodeID, 0, int64(n)*int64(outDegree)+int64(n))
	targets = append(targets, 0)
	for v := 1; v < n; v++ {
		for e := 0; e < outDegree; e++ {
			var dst graph.NodeID
			if uniformFrac > 0 && r.Float64() < uniformFrac {
				dst = graph.NodeID(r.IntN(n))
			} else {
				dst = targets[r.IntN(len(targets))]
			}
			edges = append(edges, graph.Edge{Src: graph.NodeID(v), Dst: dst, W: 1})
			targets = append(targets, dst)
		}
		targets = append(targets, graph.NodeID(v))
	}
	return graph.FromEdges(n, edges, false, opts)
}

// CopyingConfig parameterizes the copying-model web-graph generator.
type CopyingConfig struct {
	N         int     // node count
	OutDegree int     // edges per node
	CopyProb  float64 // probability an edge copies a prototype's target
	// Locality in [0,1]: probability a non-copied edge lands in a nearby ID
	// window rather than anywhere. High locality mimics crawl-order labels
	// (the paper's `web`); low locality mimics arbitrary labels.
	Locality float64
	Window   int // width of the nearby-ID window (defaults to N/64)
	// PrefGlobal in [0,1]: fraction of global (non-copied, non-local) links
	// drawn proportionally to current in-degree instead of uniformly,
	// producing the heavy-tailed hubs of scale-free graphs.
	PrefGlobal float64
	Seed       uint64
}

// Copying generates a web-crawl-like graph: each node picks a recent
// prototype and copies its targets with probability CopyProb, otherwise
// links to a random node (nearby with probability Locality). Copying
// produces power-law in-degrees and shared-neighbor clustering — the
// properties PNG compression (and GOrder) exploit.
func Copying(cfg CopyingConfig, opts graph.BuildOptions) (*graph.Graph, error) {
	if cfg.N <= 0 || cfg.OutDegree < 0 {
		return nil, fmt.Errorf("gen: Copying(n=%d, outDegree=%d) invalid", cfg.N, cfg.OutDegree)
	}
	if cfg.CopyProb < 0 || cfg.CopyProb > 1 || cfg.Locality < 0 || cfg.Locality > 1 {
		return nil, fmt.Errorf("gen: Copying probabilities out of range")
	}
	if cfg.PrefGlobal < 0 || cfg.PrefGlobal > 1 {
		return nil, fmt.Errorf("gen: PrefGlobal %v outside [0,1]", cfg.PrefGlobal)
	}
	window := cfg.Window
	if window <= 0 {
		window = cfg.N / 64
		if window < 8 {
			window = 8
		}
	}
	r := rng(cfg.Seed)
	type span struct{ lo, hi int64 } // out-edge range of each node in edges
	spans := make([]span, cfg.N)
	edges := make([]graph.Edge, 0, int64(cfg.N)*int64(cfg.OutDegree))
	var prefTargets []graph.NodeID // one entry per edge destination so far
	if cfg.PrefGlobal > 0 {
		prefTargets = make([]graph.NodeID, 0, int64(cfg.N)*int64(cfg.OutDegree))
	}
	for v := 0; v < cfg.N; v++ {
		spans[v].lo = int64(len(edges))
		var proto span
		hasProto := v > 0
		if hasProto {
			// Prototype drawn from a recent window: early nodes imitate very
			// early nodes, late nodes imitate late ones, giving the ID-space
			// clustering real crawls exhibit.
			lo := v - window
			if lo < 0 {
				lo = 0
			}
			proto = spans[lo+r.IntN(v-lo)]
		}
		for e := 0; e < cfg.OutDegree; e++ {
			var dst graph.NodeID
			switch {
			case hasProto && proto.hi > proto.lo && r.Float64() < cfg.CopyProb:
				dst = edges[proto.lo+r.Int64N(proto.hi-proto.lo)].Dst
			case r.Float64() < cfg.Locality:
				lo := v - window/2
				if lo < 0 {
					lo = 0
				}
				hi := lo + window
				if hi > cfg.N {
					hi = cfg.N
					lo = hi - window
					if lo < 0 {
						lo = 0
					}
				}
				dst = graph.NodeID(lo + r.IntN(hi-lo))
			case len(prefTargets) > 0 && r.Float64() < cfg.PrefGlobal:
				dst = prefTargets[r.IntN(len(prefTargets))]
			default:
				dst = graph.NodeID(r.IntN(cfg.N))
			}
			edges = append(edges, graph.Edge{Src: graph.NodeID(v), Dst: dst, W: 1})
			if prefTargets != nil {
				prefTargets = append(prefTargets, dst)
			}
		}
		spans[v].hi = int64(len(edges))
	}
	return graph.FromEdges(cfg.N, edges, false, opts)
}

// DAGCommunitiesConfig parameterizes the DAG-of-communities generator.
type DAGCommunitiesConfig struct {
	// Clusters is the number of strongly connected communities K.
	Clusters int
	// ClusterSize is the vertex count of each community.
	ClusterSize int
	// IntraDegree is the number of random intra-community edges added per
	// vertex on top of the Hamiltonian ring that makes the community
	// strongly connected.
	IntraDegree int
	// BridgeDegree is the number of forward-only bridge edges emitted per
	// community: each goes from a random member of community i to a random
	// member of a strictly later community j > i, so the condensation is a
	// DAG over exactly K nontrivial components.
	BridgeDegree int
	Seed         uint64
}

// DAGCommunities generates K strongly connected clusters wired by
// forward-only bridge edges — the component-rich member of the golden
// family sweeps, and the family whose contiguous components give the
// SCC-aware shard cut something to snap to. Every community is one
// nontrivial SCC (a directed ring plus IntraDegree random chords per
// vertex), bridges only point from lower- to higher-indexed communities,
// and the last community receives no outgoing bridges, so the condensation
// has K components stacked into a deep DAG.
func DAGCommunities(cfg DAGCommunitiesConfig, opts graph.BuildOptions) (*graph.Graph, error) {
	if cfg.Clusters <= 0 || cfg.ClusterSize <= 0 {
		return nil, fmt.Errorf("gen: DAGCommunities(clusters=%d, size=%d) invalid", cfg.Clusters, cfg.ClusterSize)
	}
	if cfg.IntraDegree < 0 || cfg.BridgeDegree < 0 {
		return nil, fmt.Errorf("gen: DAGCommunities degrees (%d, %d) negative", cfg.IntraDegree, cfg.BridgeDegree)
	}
	if cfg.BridgeDegree > 0 && cfg.Clusters < 2 {
		return nil, fmt.Errorf("gen: DAGCommunities bridges need at least 2 clusters")
	}
	n := cfg.Clusters * cfg.ClusterSize
	r := rng(cfg.Seed)
	member := func(c, i int) graph.NodeID { return graph.NodeID(c*cfg.ClusterSize + i) }
	edges := make([]graph.Edge, 0,
		int64(n)*int64(1+cfg.IntraDegree)+int64(cfg.Clusters)*int64(cfg.BridgeDegree))
	for c := 0; c < cfg.Clusters; c++ {
		for i := 0; i < cfg.ClusterSize; i++ {
			// The ring guarantees strong connectivity of the community.
			edges = append(edges, graph.Edge{
				Src: member(c, i), Dst: member(c, (i+1)%cfg.ClusterSize), W: 1,
			})
			for e := 0; e < cfg.IntraDegree; e++ {
				edges = append(edges, graph.Edge{
					Src: member(c, i), Dst: member(c, r.IntN(cfg.ClusterSize)), W: 1,
				})
			}
		}
		if c+1 < cfg.Clusters {
			for e := 0; e < cfg.BridgeDegree; e++ {
				dstC := c + 1 + r.IntN(cfg.Clusters-c-1)
				edges = append(edges, graph.Edge{
					Src: member(c, r.IntN(cfg.ClusterSize)),
					Dst: member(dstC, r.IntN(cfg.ClusterSize)),
					W:   1,
				})
			}
		}
	}
	return graph.FromEdges(n, edges, false, opts)
}

// RandomPermutation returns a uniformly random bijection perm[old] = new.
func RandomPermutation(n int, seed uint64) []graph.NodeID {
	r := rng(seed)
	perm := make([]graph.NodeID, n)
	for i := range perm {
		perm[i] = graph.NodeID(i)
	}
	r.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	return perm
}

// WithUniformWeights returns a weighted copy of g whose edge weights are
// drawn uniformly from [lo, hi). Used by the SpMV and weighted-PageRank
// extensions (§3.5).
func WithUniformWeights(g *graph.Graph, lo, hi float32, seed uint64) (*graph.Graph, error) {
	r := rng(seed)
	edges := g.Edges()
	for i := range edges {
		edges[i].W = lo + (hi-lo)*r.Float32()
	}
	return graph.FromEdges(g.NumNodes(), edges, true, graph.BuildOptions{})
}

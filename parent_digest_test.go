package pcpm

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/png"
	"repro/internal/shard"
	"repro/internal/spmv"
)

// testdata/parent_digests.json holds one digest per row of the table below,
// written by running this file, unchanged, inside a checkout of the commit
// before the layout stored its ID streams in 16 bits
// (go test -run TestBitIdenticalToParentLayout -update-parent-digests .).
// Every producer that walks the PNG layout must still yield those bits: the
// streams changed width, not order, and the apply changed shape, not
// arithmetic.
var updateParentDigests = flag.Bool("update-parent-digests", false,
	"rewrite testdata/parent_digests.json from this checkout's engines")

const parentDigestFile = "testdata/parent_digests.json"

// digestFamilies are the five generator families at two sizes: small, for the
// 1 KB-partition rows (a dozen partitions), and large, which spans three
// 256 KB partitions and two 512 KB ones, the last of each short.
type digestFamily struct {
	name         string
	small, large *graph.Graph
}

func digestFamilies(t testing.TB) []digestFamily {
	t.Helper()
	var fams []digestFamily
	add := func(name string, build func(n int) (*graph.Graph, error)) {
		t.Helper()
		small, err := build(3_000)
		if err != nil {
			t.Fatal(err)
		}
		large, err := build(140_000)
		if err != nil {
			t.Fatal(err)
		}
		fams = append(fams, digestFamily{name, small, large})
	}
	add("erdos-renyi", func(n int) (*graph.Graph, error) {
		return gen.ErdosRenyi(n, int64(5*n), 11, graph.BuildOptions{})
	})
	add("rmat", func(n int) (*graph.Graph, error) {
		scale := 12
		if n > 4096 {
			scale = 17
		}
		return gen.RMAT(gen.Graph500RMAT(scale, 4, 12), graph.BuildOptions{})
	})
	add("preferential", func(n int) (*graph.Graph, error) {
		return gen.PreferentialAttachmentMix(n, 4, 0.3, 13, graph.BuildOptions{})
	})
	add("copying", func(n int) (*graph.Graph, error) {
		return gen.Copying(gen.CopyingConfig{
			N: n, OutDegree: 4, CopyProb: 0.4, Locality: 0.5, PrefGlobal: 0.3, Seed: 14,
		}, graph.BuildOptions{})
	})
	add("dag-communities", func(n int) (*graph.Graph, error) {
		return gen.DAGCommunities(gen.DAGCommunitiesConfig{
			Clusters: n / 100, ClusterSize: 100, IntraDegree: 3, BridgeDegree: 10, Seed: 15,
		}, graph.BuildOptions{})
	})
	return fams
}

func digest(v []float32) string {
	h := fnv.New64a()
	var b [4]byte
	for _, f := range v {
		u := math.Float32bits(f)
		b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// kernelSums scatters a fixed vector through g's layout and returns every
// row's gathered sum.
func kernelSums(t *testing.T, g *graph.Graph, partBytes, workers int, branching bool) []float32 {
	t.Helper()
	layout, err := partition.FromBytes(g.NumNodes(), partBytes)
	if err != nil {
		t.Fatal(err)
	}
	pn, err := png.Build(g, layout, workers)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float32, g.NumNodes())
	for v := range x {
		x[v] = float32(v%97+1) / 1024
	}
	y := make([]float32, g.NumNodes())
	k := png.NewKernel(pn, workers)
	k.Scatter(x)
	k.Gather(branching, func(lo, hi graph.NodeID, sums []float32) (float64, float64) {
		copy(y[lo:hi], sums)
		return 0, 0
	})
	return y
}

func TestBitIdenticalToParentLayout(t *testing.T) {
	if testing.Short() {
		t.Skip("builds five 140k-node graphs")
	}
	got := make(map[string]string)
	for _, fam := range digestFamilies(t) {
		for _, partBytes := range []int{1 << 10, 256 << 10, 512 << 10} {
			g := fam.large
			if partBytes == 1<<10 {
				g = fam.small
			}
			for _, workers := range []int{1, 2} {
				row := fmt.Sprintf("%s/%dK/w%d", fam.name, partBytes>>10, workers)
				sums := kernelSums(t, g, partBytes, workers, false)
				got["gather/"+row] = digest(sums)
				if d := digest(kernelSums(t, g, partBytes, workers, true)); d != got["gather/"+row] {
					t.Errorf("%s: branching gather sums differ from branch-avoiding ones", row)
				}
				for _, redistribute := range []bool{false, true} {
					res, err := Run(g, Options{PartitionBytes: partBytes, Workers: workers, Iterations: 6,
						RedistributeDangling: redistribute})
					if err != nil {
						t.Fatal(err)
					}
					got[fmt.Sprintf("run/%s/redistribute=%v", row, redistribute)] = digest(res.Ranks)
				}
			}
			row := fmt.Sprintf("%s/%dK", fam.name, partBytes>>10)
			got["spmv/"+row] = digest(spmvProduct(t, g, partBytes))
			got["shard/"+row] = digest(shardRound(t, g, partBytes))
		}
	}
	if *updateParentDigests {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(parentDigestFile, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(parentDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("fixture has %d rows, this run produced %d", len(want), len(got))
	}
	for row, d := range got {
		if want[row] != d {
			t.Errorf("%s: digest %s, the parent commit produced %s", row, d, want[row])
		}
	}
}

// spmvProduct multiplies g's weighted adjacency matrix by a fixed vector
// with the partition-centric SpMV engine.
func spmvProduct(t *testing.T, g *graph.Graph, partBytes int) []float32 {
	t.Helper()
	wg, err := gen.WithUniformWeights(g, 0.5, 2, 77)
	if err != nil {
		t.Fatal(err)
	}
	m, err := spmv.FromGraph(wg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := spmv.NewPCPMEngine(m, partBytes, 2)
	if err != nil {
		t.Fatal(err)
	}
	x, y := make([]float32, m.Cols()), make([]float32, m.Rows())
	for v := range x {
		x[v] = float32(v%89+1) / 512
	}
	if err := e.Mul(x, y); err != nil {
		t.Fatal(err)
	}
	return y
}

// shardRound runs one distributed round on the middle third of g's rows, a
// block that straddles partition boundaries.
func shardRound(t *testing.T, g *graph.Graph, partBytes int) []float32 {
	t.Helper()
	n := graph.NodeID(g.NumNodes())
	lo, hi := n/3, 2*n/3
	degs, err := shard.DegreesOf(g)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := g.RowBlock(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	s, err := shard.NewBlockSolver(sub, degs, lo, hi, partBytes)
	if err != nil {
		t.Fatal(err)
	}
	p := make([]float32, n)
	for v := range p {
		p[v] = float32(v%53+1) / float32(27*int(n))
	}
	out := make([]float32, hi-lo)
	if _, err := s.Round(p, out, shard.SolveOptions{Damping: 0.85, Workers: 2, Redistribute: true}); err != nil {
		t.Fatal(err)
	}
	return out
}

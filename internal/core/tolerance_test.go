package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// tolFamily is one generator family of the tolerance-mode tests. steps says
// whether the geometric step speeds it up; where it does not, the step must
// not fire at all.
type tolFamily struct {
	name  string
	steps bool
	build func(n int) (*graph.Graph, error)
}

// tolFamilies are the five generator families, configured as the benchmark's
// graphs where it has them (PA-mix is the serving graph, copying the web
// graph of the solve workloads).
var tolFamilies = []tolFamily{
	{"pa-mix", true, func(n int) (*graph.Graph, error) {
		return gen.PreferentialAttachmentMix(n, 8, 0.2, 42, graph.BuildOptions{})
	}},
	{"erdos-renyi", true, func(n int) (*graph.Graph, error) {
		return gen.ErdosRenyi(n, int64(8*n), 42, graph.BuildOptions{})
	}},
	{"rmat", true, func(n int) (*graph.Graph, error) {
		scale := 0
		for 1<<scale < n {
			scale++
		}
		return gen.RMAT(gen.Graph500RMAT(scale, 8, 42), graph.BuildOptions{})
	}},
	{"copying", false, func(n int) (*graph.Graph, error) {
		return gen.Copying(gen.CopyingConfig{
			N: n, OutDegree: 8, CopyProb: 0.5, Locality: 0.99, Window: max(n/16384, 64), Seed: 42,
		}, graph.BuildOptions{})
	}},
	{"dag-communities", false, func(n int) (*graph.Graph, error) {
		return gen.DAGCommunities(gen.DAGCommunitiesConfig{
			Clusters: n / 128, ClusterSize: 128, IntraDegree: 3, BridgeDegree: 10, Seed: 42,
		}, graph.BuildOptions{})
	}},
}

var bothPolicies = []DanglingPolicy{DanglingLeak, DanglingRedistribute}

// tolTestNodes is the graph size of the tolerance-mode tests: 2^17, the
// serving graph's, or 2^14 in short mode.
func tolTestNodes() int {
	if testing.Short() {
		return 1 << 14
	}
	return 1 << 17
}

// oraclePageRank iterates eq. 1 in float64 until the L1 change is below
// 1e-13: the fixed point to within 1e-12.
func oraclePageRank(g *graph.Graph, damping float64, policy DanglingPolicy) []float64 {
	n := g.NumNodes()
	pr, next := make([]float64, n), make([]float64, n)
	for v := range pr {
		pr[v] = 1 / float64(n)
	}
	inOff, inAdj, outOff := g.InOffsets(), g.InAdjacency(), g.OutOffsets()
	for delta := math.Inf(1); delta >= 1e-13; {
		var dang float64
		if policy == DanglingRedistribute {
			for v := 0; v < n; v++ {
				if outOff[v+1] == outOff[v] {
					dang += pr[v]
				}
			}
		}
		delta = 0
		for v := 0; v < n; v++ {
			var sum float64
			for _, u := range inAdj[inOff[v]:inOff[v+1]] {
				sum += pr[u] / float64(outOff[u+1]-outOff[u])
			}
			next[v] = (1-damping)/float64(n) + damping*(sum+dang/float64(n))
			delta += math.Abs(next[v] - pr[v])
		}
		pr, next = next, pr
	}
	return pr
}

func l1ToOracle(ranks []float32, want []float64) float64 {
	var s float64
	for v, r := range ranks {
		s += math.Abs(float64(r) - want[v])
	}
	return s
}

// plainLoop is the tolerance loop without the step.
func plainLoop(e Engine, tol float64) (int, float64) {
	iters, delta := 0, math.Inf(1)
	for delta >= tol {
		delta = e.Step()
		iters++
	}
	return iters, delta
}

// certificate is d/(1−d): a plain iteration with L1 change δ leaves its
// output within certificate·δ of the fixed point.
const certificate = DefaultDamping / (1 - DefaultDamping)

// f32Floor is four float32 roundings of a unit rank mass: the slack of one
// iteration's L1 change over the exact map's.
const f32Floor = 4.0 / (1 << 24)

// TestToleranceGoldenAgainstPlainLoop runs the five families under both
// dangling policies at one and two workers to tol 1e-6, once with the plain
// loop and once with RunToConvergence. The stepped ranks are no farther from
// the float64 oracle than the plain ranks plus the two loops' certificates;
// where the step does not fire, ranks and iterations are the plain loop's
// bit for bit; and on the leak policy (the paper's, which the benchmark and
// the server run) the stepping families take at most half the plain loop's
// iterations at 2^17 nodes.
func TestToleranceGoldenAgainstPlainLoop(t *testing.T) {
	const tol = 1e-6
	n := tolTestNodes()
	for _, f := range tolFamilies {
		g, err := f.build(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range bothPolicies {
			want := oraclePageRank(g, DefaultDamping, pol)
			for _, w := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/%v/w%d", f.name, pol, w), func(t *testing.T) {
					e, err := NewPCPM(g, Config{Workers: w, Dangling: pol})
					if err != nil {
						t.Fatal(err)
					}
					pIters, pDelta := plainLoop(e, tol)
					plain := e.Ranks()
					pErr := l1ToOracle(plain, want)
					e.Reset()
					iters, delta, steps := RunToConvergence(e, tol, 1000)
					ranks := e.Ranks()
					err1 := l1ToOracle(ranks, want)
					t.Logf("plain %d iterations, L1 to oracle %.3g; stepped %d (%d steps), %.3g",
						pIters, pErr, iters, steps, err1)
					if delta >= tol {
						t.Fatalf("stopped at delta %g after %d iterations", delta, iters)
					}
					if bound := pErr + certificate*(pDelta+delta); err1 > bound {
						t.Errorf("L1 to oracle %.3g, above the plain loop's %.3g plus both certificates (%.3g)", err1, pErr, bound)
					}
					if iters > pIters {
						t.Errorf("%d iterations, plain loop %d", iters, pIters)
					}
					if !f.steps {
						if steps != 0 || iters != pIters || !sameBits(plain, ranks) {
							t.Errorf("step fired (%d steps): %d iterations vs plain %d, L1 %g between the two",
								steps, iters, pIters, L1Diff(plain, ranks))
						}
						return
					}
					if pol == DanglingLeak && !testing.Short() && 2*iters > pIters {
						t.Errorf("%d iterations, more than half the plain loop's %d", iters, pIters)
					}
				})
			}
		}
	}
}

// TestToleranceCertificate: the loop returns only after a plain iteration,
// so one more plain Step changes the ranks by at most d times the returned
// delta, up to float32 rounding.
func TestToleranceCertificate(t *testing.T) {
	n := tolTestNodes()
	for _, f := range tolFamilies[:3] {
		g, err := f.build(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range bothPolicies {
			e, err := NewPCPM(g, Config{Dangling: pol})
			if err != nil {
				t.Fatal(err)
			}
			iters, delta, steps := RunToConvergence(e, 1e-6, 1000)
			next := e.Step()
			t.Logf("%s/%v: %d iterations, %d steps, delta %.3g, next %.3g", f.name, pol, iters, steps, delta, next)
			if next > DefaultDamping*delta+f32Floor {
				t.Errorf("%s/%v: next plain delta %.3g above d·%.3g", f.name, pol, next, delta)
			}
		}
	}
}

// stepRecorder notes, before each Step, whether the apply is to extrapolate.
type stepRecorder struct {
	*PCPM
	stepped []bool
}

func (r *stepRecorder) Step() float64 {
	r.stepped = append(r.stepped, r.state.step != 0)
	return r.PCPM.Step()
}

// TestToleranceNeverReturnsAStep caps the loop at every iteration count up
// to convergence: the last iteration is always plain, a cap that lands on an
// iteration the uncapped loop extrapolates runs it plain instead, and the
// Extrapolations count is the number of stepped iterations.
func TestToleranceNeverReturnsAStep(t *testing.T) {
	g, err := tolFamilies[0].build(1 << 12)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewPCPM(g, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	full := &stepRecorder{PCPM: e}
	total, _, steps := RunToConvergence(full, 1e-6, 1000)
	if steps == 0 {
		t.Fatal("no step on PA-mix: nothing to cap")
	}
	for cap := 1; cap <= total; cap++ {
		e.Reset()
		r := &stepRecorder{PCPM: e}
		iters, delta, steps := RunToConvergence(r, 1e-6, cap)
		if iters != len(r.stepped) {
			t.Fatalf("cap %d: reported %d iterations, ran %d", cap, iters, len(r.stepped))
		}
		if r.stepped[iters-1] {
			t.Fatalf("cap %d: returned the stepped iteration %d", cap, iters)
		}
		var n int
		for i, s := range r.stepped {
			if s {
				n++
			}
			if s != full.stepped[i] && i != cap-1 {
				t.Fatalf("cap %d: iteration %d stepped=%v, uncapped %v", cap, i+1, s, full.stepped[i])
			}
		}
		if n != steps {
			t.Fatalf("cap %d: %d extrapolations reported, %d taken", cap, steps, n)
		}
		if next := e.Step(); next > DefaultDamping*delta+f32Floor {
			t.Fatalf("cap %d: next plain delta %.3g above d·%.3g", cap, next, delta)
		}
	}
}

// TestToleranceWorkersBitIdentical: the sample's sums are reduced in
// partition order, so tolerance-mode ranks, iterations and steps do not
// depend on the worker count.
func TestToleranceWorkersBitIdentical(t *testing.T) {
	g, err := tolFamilies[0].build(tolTestNodes())
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range bothPolicies {
		var ref []float32
		var refIters, refSteps int
		for _, w := range []int{1, 2, 3} {
			// 16 KB partitions give the graph 8 to 32 of them to share out.
			e, err := NewPCPM(g, Config{Workers: w, Dangling: pol, PartitionBytes: 1 << 14})
			if err != nil {
				t.Fatal(err)
			}
			iters, _, steps := RunToConvergence(e, 1e-6, 1000)
			ranks := e.Ranks()
			if w == 1 {
				ref, refIters, refSteps = ranks, iters, steps
				if pol == DanglingLeak && steps == 0 {
					t.Fatal("no step on PA-mix")
				}
				continue
			}
			if iters != refIters || steps != refSteps || !sameBits(ranks, ref) {
				t.Errorf("%v: %d workers took %d iterations (%d steps), 1 worker %d (%d); L1 %g",
					pol, w, iters, steps, refIters, refSteps, L1Diff(ranks, ref))
			}
		}
	}
}

func sameBits(a, b []float32) bool {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

// TestResetClearsTheFit: Reset drops the sample and a pending step, and
// fixed-iteration runs never extrapolate, so they match a fresh engine's.
func TestResetClearsTheFit(t *testing.T) {
	g, err := tolFamilies[0].build(1 << 12)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewPCPM(g, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	RunIterations(fresh, 20)
	want := fresh.Ranks()

	e, err := NewPCPM(g, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, steps := RunToConvergence(e, 1e-6, 1000); steps == 0 {
		t.Fatal("no step on PA-mix")
	}
	if e.state.step != 0 || e.state.sample != nil {
		t.Fatal("RunToConvergence left a step or a sample behind")
	}
	e.state.beginFit()
	e.state.step = 0.5
	e.Reset()
	if e.state.step != 0 || e.state.sample != nil || e.state.fits != nil {
		t.Fatal("Reset kept the fit")
	}
	RunIterations(e, 20)
	if L1Diff(e.Ranks(), want) != 0 {
		t.Fatal("fixed-iteration ranks after a tolerance run and Reset differ from a fresh engine's")
	}
}

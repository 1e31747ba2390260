package shard

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/scc"
)

func testGraph(t *testing.T, n int, m int64, seed uint64) *graph.Graph {
	t.Helper()
	g, err := gen.ErdosRenyi(n, m, seed, graph.BuildOptions{})
	if err != nil {
		t.Fatalf("ErdosRenyi: %v", err)
	}
	return g
}

func TestAssignContiguousAndBalanced(t *testing.T) {
	g := testGraph(t, 1000, 8000, 3)
	for _, shards := range []int{1, 2, 3, 4, 7, 16} {
		a := Assign(g, shards)
		if len(a) != shards {
			t.Fatalf("shards=%d: got %d ranges", shards, len(a))
		}
		if err := a.Validate(g.NumNodes()); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		// Balance: no shard should carry more than twice the ideal cost.
		var total int64 = g.NumEdges() + int64(g.NumNodes())
		ideal := total / int64(shards)
		for i, r := range a {
			var cost int64
			for v := r.Lo; v < r.Hi; v++ {
				cost += g.InDegree(v) + 1
			}
			if shards <= 8 && cost > 2*ideal+1 {
				t.Errorf("shards=%d: shard %d cost %d exceeds 2x ideal %d", shards, i, cost, ideal)
			}
		}
	}
}

func TestAssignMoreShardsThanNodes(t *testing.T) {
	g := testGraph(t, 3, 4, 9)
	a := Assign(g, 8)
	if err := a.Validate(3); err != nil {
		t.Fatal(err)
	}
	owned := 0
	for _, r := range a {
		owned += r.Len()
	}
	if owned != 3 {
		t.Fatalf("ranges own %d vertices, want 3", owned)
	}
}

func TestAssignSCCKeepsComponentsTogether(t *testing.T) {
	// DAG-communities graphs have many moderate components; after scc
	// decomposition a snapped cut should not straddle a component unless no
	// clean position exists near the balanced cut.
	g, err := gen.DAGCommunities(gen.DAGCommunitiesConfig{
		Clusters: 16, ClusterSize: 120, IntraDegree: 4, BridgeDegree: 10, Seed: 15,
	}, graph.BuildOptions{})
	if err != nil {
		t.Fatalf("DAGCommunities: %v", err)
	}
	r := scc.Decompose(g, 0)
	for _, shards := range []int{2, 4} {
		a := AssignSCC(g, r, shards)
		if err := a.Validate(g.NumNodes()); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		// Count components straddling a cut under both assignments; the
		// SCC-aware one must not be worse than the plain balanced cut.
		plain := Assign(g, shards)
		if straddles(r, a) > straddles(r, plain) {
			t.Errorf("shards=%d: SCC-aware assignment straddles %d components, plain %d",
				shards, straddles(r, a), straddles(r, plain))
		}
	}
}

// straddles counts the components of r with members on two shards of a.
func straddles(r *scc.Result, a Assignment) int {
	home := make([]int, r.NumComps) // 1 + first member's shard; 0 unseen, -1 counted
	count := 0
	for i, rg := range a {
		for _, c := range r.Comp[rg.Lo:rg.Hi] {
			switch s := i + 1; home[c] {
			case 0:
				home[c] = s
			case s, -1:
			default:
				home[c] = -1
				count++
			}
		}
	}
	return count
}

// reachLabels labels every vertex of g with the smallest vertex of its
// strongly connected component, by brute force: u and v share a component
// iff each reaches the other by forward BFS.
func reachLabels(g *graph.Graph) []int {
	n := g.NumNodes()
	reach := make([][]bool, n)
	for s := range reach {
		reach[s] = make([]bool, n)
		reach[s][s] = true
		queue := []graph.NodeID{graph.NodeID(s)}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, u := range g.OutNeighbors(v) {
				if !reach[s][u] {
					reach[s][u] = true
					queue = append(queue, u)
				}
			}
		}
	}
	label := make([]int, n)
	for v := range label {
		for u := 0; u <= v; u++ {
			if reach[u][v] && reach[v][u] {
				label[v] = u
				break
			}
		}
	}
	return label
}

// TestAssignSCCMatchesReachabilitySpans holds AssignSCC over Decompose to a
// cut built here from brute-force components: a position splits a component
// when its smallest member lies below it and its largest at or above, and a
// balanced cut that splits one moves to the nearest position within
// n/(2·shards) that splits none, the lower side first on a tie.
func TestAssignSCCMatchesReachabilitySpans(t *testing.T) {
	moved := 0
	for name, g := range goldenFamilies(t) {
		n := g.NumNodes()
		label := reachLabels(g)
		largest := make([]int, n) // indexed by a component's smallest member
		for v, c := range label {
			largest[c] = v
		}
		split := make([]bool, n+1)
		for c := range label {
			if label[c] == c {
				for b := c + 1; b <= largest[c]; b++ {
					split[b] = true
				}
			}
		}
		dec := scc.Decompose(g, 0)
		for _, shards := range []int{2, 3, 4} {
			want := Assign(g, shards)
			window := max(n/(2*shards), 1)
			prev := 0
			for i := 0; i < shards-1; i++ {
				cut := int(want[i].Hi)
			snap:
				for d := 1; split[cut] && d <= window; d++ {
					for _, p := range []int{cut - d, cut + d} {
						if p > prev && p <= n && !split[p] {
							cut = p
							moved++
							break snap
						}
					}
				}
				cut = max(cut, prev)
				want[i] = Range{Lo: graph.NodeID(prev), Hi: graph.NodeID(cut)}
				prev = cut
			}
			want[shards-1] = Range{Lo: graph.NodeID(prev), Hi: graph.NodeID(n)}
			got := AssignSCC(g, dec, shards)
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s, %d shards: AssignSCC = %v, reachability cut = %v", name, shards, got, want)
					break
				}
			}
		}
	}
	if moved == 0 {
		t.Error("no balanced cut was snapped: the families exercise nothing")
	}
}

func TestAssignSCCNilFallsBack(t *testing.T) {
	g := testGraph(t, 100, 500, 5)
	a := AssignSCC(g, nil, 4)
	if err := a.Validate(100); err != nil {
		t.Fatal(err)
	}
}

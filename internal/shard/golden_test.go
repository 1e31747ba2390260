package shard

import (
	"fmt"
	"sort"
	"testing"

	pcpm "repro"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// goldenFamilies mirrors the family sweep shared by the comp, ppr, and
// delta goldens so the sharded solver is held to the same bar on the same
// graphs.
func goldenFamilies(t testing.TB) map[string]*graph.Graph {
	t.Helper()
	families := make(map[string]*graph.Graph)
	var err error
	families["erdos-renyi"], err = gen.ErdosRenyi(2000, 16000, 11, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	families["rmat"], err = gen.RMAT(gen.Graph500RMAT(11, 8, 12), graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	families["preferential"], err = gen.PreferentialAttachmentMix(2000, 8, 0.3, 13, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	families["copying"], err = gen.Copying(gen.CopyingConfig{
		N: 2000, OutDegree: 8, CopyProb: 0.4, Locality: 0.5, PrefGlobal: 0.3, Seed: 14,
	}, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	families["dag-communities"], err = gen.DAGCommunities(gen.DAGCommunitiesConfig{
		Clusters: 16, ClusterSize: 120, IntraDegree: 4, BridgeDegree: 10, Seed: 15,
	}, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return families
}

// TestGoldenShardedVsMonolithic drives real worker processes' worth of HTTP
// machinery (httptest servers, allgather swaps) at 2 and 4 shards across the
// five generator families and holds the vector Solve gathers to 1e-6 L1 of
// the monolithic solver, with the same top-k node set, at Workers:1 per
// shard.
func TestGoldenShardedVsMonolithic(t *testing.T) {
	for name, g := range goldenFamilies(t) {
		mono, err := pcpm.Run(g, pcpm.Options{Tolerance: 1e-9})
		if err != nil {
			t.Fatalf("%s: monolithic run: %v", name, err)
		}
		for _, shards := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				c, _ := startFleet(t, shards)
				opts := SolveOptions{Damping: 0.85, Tolerance: 1e-9, Workers: 1}
				ranks, _, _, err := c.Solve(name, g, opts)
				if err != nil {
					t.Fatal(err)
				}
				if l1 := core.L1Diff(ranks, mono.Ranks); l1 > 1e-6 {
					t.Errorf("L1 vs monolithic = %g, want <= 1e-6", l1)
				}
				// The top-k NODE SET must match the monolithic server's answer
				// (values may differ in final bits, the set must not).
				const k = 100
				if !sameNodeSet(core.TopK(ranks, k), core.TopK(mono.Ranks, k)) {
					t.Errorf("top-%d node set differs from monolithic", k)
				}
			})
		}
	}
}

func sameNodeSet(a, b []core.RankEntry) bool {
	if len(a) != len(b) {
		return false
	}
	an := make([]graph.NodeID, len(a))
	bn := make([]graph.NodeID, len(b))
	for i := range a {
		an[i], bn[i] = a[i].Node, b[i].Node
	}
	sort.Slice(an, func(i, j int) bool { return an[i] < an[j] })
	sort.Slice(bn, func(i, j int) bool { return bn[i] < bn[j] })
	for i := range an {
		if an[i] != bn[i] {
			return false
		}
	}
	return true
}

package shard

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// goldenFamilies mirrors the family sweep shared by the ppr and delta
// goldens so the block solver and the assignment are held to the same bar on
// the same graphs.
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

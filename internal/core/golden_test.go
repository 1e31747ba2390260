package core

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/png"
)

// TestGoldenPaperFig4ScatterStream reproduces the paper's Fig. 4b byte-for-byte:
// scattering partition P2 = {6, 7, 8} of the Fig. 3a graph into bin 0 must
// produce exactly two updates (PR[6], PR[7]) — not the four updates
// (PR[6], PR[7], PR[7], PR[7]) that Vertex-centric GAS would send (Fig. 4a)
// — paired with the MSB-tagged destination stream {2*, 0*, 1, 2*}
// (* = MSB set), where node 7's first edge into P0 (node 2, from edge 7→2)
// opens its run.
func TestGoldenPaperFig4ScatterStream(t *testing.T) {
	edges := []graph.Edge{
		{Src: 3, Dst: 2}, {Src: 6, Dst: 0}, {Src: 6, Dst: 1}, {Src: 7, Dst: 2},
		{Src: 0, Dst: 4}, {Src: 1, Dst: 3}, {Src: 1, Dst: 4}, {Src: 2, Dst: 5},
		{Src: 2, Dst: 8}, {Src: 7, Dst: 8},
	}
	g, err := graph.FromEdges(9, edges, false, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The paper partitions into {0,1,2}, {3,4,5}, {6,7,8} (size 3); our
	// power-of-two layouts cannot express size 3, so verify against size 4
	// partitions {0..3}, {4..7}, {8}, where P1 = {4..7} plays Fig. 4's P2
	// role: its members with edges into P0 are again 6 and 7.
	layout, err := partition.NewLayout(9, 4)
	if err != nil {
		t.Fatal(err)
	}
	pn, err := png.Build(g, layout, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Bin 0 as the paper draws it, whatever width the layout stores it in.
	stream, binSrcs := pn.DecodeBin(0)

	// P1's compressed edges into bin 0: exactly sources {6, 7} — the
	// non-redundant updates of Fig. 4b.
	off := pn.SubOff[1]
	srcs := binSrcs[pn.UpdateWriteOff[1*pn.K+0]:][:off[1]-off[0]]
	if len(srcs) != 2 || srcs[0] != 6 || srcs[1] != 7 {
		t.Fatalf("P1→bin0 compressed sources = %v, want [6 7]", srcs)
	}

	// Engine-level check: after one scatter, bin 0's update region written
	// by P1 must hold {SPR[6], SPR[7]} — one update per source, not one per
	// edge.
	e, err := NewPCPM(g, Config{PartitionBytes: 16, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.scatterPNG()
	base := pn.UpdateWriteOff[1*pn.K+0]
	got := e.updates[0][base : base+2]
	spr := e.state.spr
	if got[0] != spr[6] || got[1] != spr[7] {
		t.Fatalf("bin 0 updates from P1 = %v, want [SPR[6]=%v SPR[7]=%v]", got, spr[6], spr[7])
	}

	// Destination stream for those updates: 6's run {0*, 1}, then 7's run
	// {2*} — the decoupled destID bins of Fig. 4b.
	// P0 contributes its own runs first (sources 1 and 3); find P1's tail.
	tail := stream[len(stream)-3:]
	want := []uint32{0 | graph.MSBMask, 1, 2 | graph.MSBMask}
	for i := range want {
		if tail[i] != want[i] {
			t.Fatalf("bin 0 destID tail = %#v, want %#v", tail, want)
		}
	}

	// And the redundancy claim itself: vertex-centric GAS would write one
	// update per edge into bin 0 (4 from P0∪P1), PCPM writes |E'| entries.
	var edgesIntoBin0 int64
	for _, e := range edges {
		if layout.PartitionOf(e.Dst) == 0 {
			edgesIntoBin0++
		}
	}
	if edgesIntoBin0 <= pn.UpdateCount[0] {
		t.Fatalf("no redundancy to eliminate: %d edges vs %d updates", edgesIntoBin0, pn.UpdateCount[0])
	}
}

package graph

import (
	"bytes"
	"sync"
	"testing"
	"unsafe"
)

// TestConstructorsLeaveTransposeUnbuilt holds the CSR-only contract: no way
// of making a graph, and no CSR-side summary of one, pays for the
// in-adjacency. Only an In* accessor builds it.
func TestConstructorsLeaveTransposeUnbuilt(t *testing.T) {
	g := randomGraph(3, 60, 400)
	var bin bytes.Buffer
	if err := WriteBinary(&bin, g); err != nil {
		t.Fatal(err)
	}
	read, err := ReadBinary(&bin)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ReadSnapshot(bytes.NewReader(encodeSnapshot(t, testSnapshot(t, true))))
	if err != nil {
		t.Fatal(err)
	}
	patched, err := Patch(g, []Edge{{Src: 1, Dst: 2}}, []Edge{g.Edges()[0]})
	if err != nil {
		t.Fatal(err)
	}
	block, err := g.RowBlock(10, 40)
	if err != nil {
		t.Fatal(err)
	}
	built, err := FromEdges(5, []Edge{{Src: 0, Dst: 4}, {Src: 3, Dst: 4}}, false, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g.ComputeStats()
	g.MaxInDegree()
	g.Validate()
	g.Edges()
	for name, h := range map[string]*Graph{
		"FromEdges": built, "ReadBinary": read, "ReadSnapshot": snap.Graph,
		"Patch": patched, "RowBlock": block, "stats of a built graph": g,
	} {
		if h.in.off != nil || h.in.adj != nil {
			t.Errorf("%s: transpose built without an In* call", name)
		}
	}
	g.InDegree(0)
	if g.in.off == nil {
		t.Fatal("InDegree did not build the transpose")
	}
}

// TestTransposeConcurrentFirstReaders races the first In* calls on a fresh
// graph (run it under -race): every reader must get the same arrays, built
// once.
func TestTransposeConcurrentFirstReaders(t *testing.T) {
	g := randomGraph(11, 500, 4000)
	const readers = 8
	offs := make([]*int64, readers)
	adjs := make([]*NodeID, readers)
	var wg sync.WaitGroup
	for i := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				g.InNeighbors(NodeID(i))
			}
			offs[i] = unsafe.SliceData(g.InOffsets())
			adjs[i] = unsafe.SliceData(g.InAdjacency())
		}()
	}
	wg.Wait()
	for i := 1; i < readers; i++ {
		if offs[i] != offs[0] || adjs[i] != adjs[0] {
			t.Fatalf("reader %d saw a different transpose than reader 0", i)
		}
	}
}

package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand/v2"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

// paperExample builds the 9-node graph of the paper's Fig. 3a. Edges were
// transcribed from the figure's bins: bin 0 receives updates from 3, 6, 7;
// bin 1 from nodes feeding 3..5; bin 2 from 2 and 7.
func paperExample(t testing.TB) *Graph {
	t.Helper()
	edges := []Edge{
		{Src: 3, Dst: 2}, {Src: 6, Dst: 0}, {Src: 6, Dst: 1}, {Src: 7, Dst: 2},
		{Src: 0, Dst: 4}, {Src: 1, Dst: 3}, {Src: 1, Dst: 4}, {Src: 2, Dst: 5},
		{Src: 2, Dst: 8}, {Src: 7, Dst: 8},
	}
	g, err := FromEdges(9, edges, false, BuildOptions{})
	if err != nil {
		t.Fatalf("building paper example: %v", err)
	}
	return g
}

func TestBuildBasic(t *testing.T) {
	g := paperExample(t)
	if g.NumNodes() != 9 {
		t.Fatalf("NumNodes = %d, want 9", g.NumNodes())
	}
	if g.NumEdges() != 10 {
		t.Fatalf("NumEdges = %d, want 10", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if d := g.OutDegree(2); d != 2 {
		t.Errorf("OutDegree(2) = %d, want 2", d)
	}
	if d := g.InDegree(4); d != 2 {
		t.Errorf("InDegree(4) = %d, want 2", d)
	}
	want := []NodeID{5, 8}
	got := g.OutNeighbors(2)
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("OutNeighbors(2) = %v, want %v", got, want)
	}
	in := g.InNeighbors(2)
	if len(in) != 2 || in[0] != 3 || in[1] != 7 {
		t.Errorf("InNeighbors(2) = %v, want [3 7]", in)
	}
}

func TestBuilderRejectsOutOfRange(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 9)
	if _, err := b.Build(BuildOptions{}); err == nil {
		t.Fatal("Build accepted out-of-range edge")
	}
}

func TestBuilderRejectsNegativeNodeCount(t *testing.T) {
	b := NewBuilder(-1)
	if _, err := b.Build(BuildOptions{}); err == nil {
		t.Fatal("Build accepted negative node count")
	}
}

func TestEmptyGraph(t *testing.T) {
	g, err := FromEdges(0, nil, false, BuildOptions{})
	if err != nil {
		t.Fatalf("empty graph: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph has nodes/edges: %d/%d", g.NumNodes(), g.NumEdges())
	}
}

func TestSingleNodeSelfLoop(t *testing.T) {
	g, err := FromEdges(1, []Edge{{Src: 0, Dst: 0}}, false, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.OutDegree(0) != 1 || g.InDegree(0) != 1 {
		t.Fatal("self loop lost")
	}
	g2, err := FromEdges(1, []Edge{{Src: 0, Dst: 0}}, false, BuildOptions{DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != 0 {
		t.Fatal("DropSelfLoops did not remove the loop")
	}
}

func TestDedup(t *testing.T) {
	edges := []Edge{{0, 1, 2}, {0, 1, 3}, {1, 0, 1}}
	g, err := FromEdges(2, edges, true, BuildOptions{Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2 after dedup", g.NumEdges())
	}
	if w := g.OutWeights(0); len(w) != 1 || w[0] != 5 {
		t.Fatalf("dedup weight sum = %v, want [5]", w)
	}
}

func TestDanglingCount(t *testing.T) {
	g := paperExample(t)
	// Nodes 4, 5, 8 have no out-edges in the fixture.
	if d := g.DanglingCount(); d != 3 {
		t.Fatalf("DanglingCount = %d, want 3", d)
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	g := paperExample(t)
	edges := g.Edges()
	g2, err := FromEdges(g.NumNodes(), edges, false, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(g2) {
		t.Fatal("Edges() round trip changed the graph")
	}
}

func TestTextIORoundTrip(t *testing.T) {
	g := paperExample(t)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeListN(&buf, 9, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(g2) {
		t.Fatal("text round trip changed the graph")
	}
}

func TestTextIOWeighted(t *testing.T) {
	in := "0 1 0.5\n1 2 1.5\n# comment\n2 0 2\n"
	g, err := ReadEdgeList(strings.NewReader(in), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !g.Weighted() {
		t.Fatal("weighted edge list not detected")
	}
	if w := g.OutWeights(1); len(w) != 1 || w[0] != 1.5 {
		t.Fatalf("weight = %v, want [1.5]", w)
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(g2) {
		t.Fatal("weighted text round trip changed the graph")
	}
}

func TestTextIOMalformed(t *testing.T) {
	cases := []string{
		"0\n",          // too few fields
		"0 1 2 3\n",    // too many fields
		"a b\n",        // non-numeric
		"0 -1\n",       // negative
		"0 1 nope\n",   // bad weight
		"2147483648 0", // exceeds 2^31-1
	}
	for _, c := range cases {
		if _, err := ReadEdgeList(strings.NewReader(c), BuildOptions{}); err == nil {
			t.Errorf("ReadEdgeList(%q) succeeded, want error", c)
		}
	}
}

func TestTextIOExplicitNTooSmall(t *testing.T) {
	if _, err := ReadEdgeListN(strings.NewReader("0 5\n"), 3, BuildOptions{}); err == nil {
		t.Fatal("ReadEdgeListN accepted edge beyond n")
	}
}

// TestTextIOInferredNodesBounded: an inferred node count may not exceed the
// bytes read, so a few bytes cannot demand millions of nodes; an explicit
// count is the caller's and stays unbounded.
func TestTextIOInferredNodesBounded(t *testing.T) {
	for _, c := range []string{"0 3", "0 1000\n", "0 10000000"} {
		if g, err := ReadEdgeList(strings.NewReader(c), BuildOptions{}); err == nil {
			t.Errorf("ReadEdgeList(%q) built %d nodes from %d bytes, want error", c, g.NumNodes(), len(c))
		}
	}
	for _, c := range []string{"1 2", "0 2", "# c\n0 7\n"} {
		g, err := ReadEdgeList(strings.NewReader(c), BuildOptions{})
		if err != nil {
			t.Errorf("ReadEdgeList(%q): %v", c, err)
		} else if g.NumNodes() > len(c) {
			t.Errorf("ReadEdgeList(%q) built %d nodes from %d bytes", c, g.NumNodes(), len(c))
		}
	}
	if g, err := ReadEdgeListN(strings.NewReader("0 5\n"), 1000, BuildOptions{}); err != nil || g.NumNodes() != 1000 {
		t.Fatalf("ReadEdgeListN with explicit n=1000: %v", err)
	}
}

func TestBinaryIORoundTrip(t *testing.T) {
	g := paperExample(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(g2) {
		t.Fatal("binary round trip changed the graph")
	}
}

func TestBinaryIOWeighted(t *testing.T) {
	g, err := FromEdges(3, []Edge{{0, 1, 0.25}, {1, 2, 4}, {2, 0, 8}}, true, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(g2) {
		t.Fatal("weighted binary round trip changed the graph")
	}
}

func TestBinaryIOBadMagic(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("NOTAGRAPHFILE___")); err == nil {
		t.Fatal("ReadBinary accepted garbage")
	}
}

func TestBinaryIOTruncated(t *testing.T) {
	g := paperExample(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{4, 12, 30, len(full) - 3} {
		if _, err := ReadBinary(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("ReadBinary accepted file truncated to %d bytes", cut)
		}
	}
}

// TestBinaryIOLyingHeader feeds headers whose claimed node/edge counts far
// exceed the stream's actual bytes; the reader must fail on the short read
// without allocating anywhere near what the header claims (the stream may
// be an untrusted upload).
func TestBinaryIOLyingHeader(t *testing.T) {
	header := func(n, m uint64) []byte {
		b := append([]byte{}, binaryMagic[:]...)
		for _, v := range []uint64{n, m, 0} {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		return b
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, h := range [][]byte{
		header(MaxNodes, 0),        // 2^31 nodes claimed, zero offset bytes present
		header(4, 1<<60),           // astronomic edge count
		header(1<<20, 1<<40),       // both large
		append(header(8, 4), 1, 2), // a few stray bytes after the header
	} {
		if _, err := ReadBinary(bytes.NewReader(h)); err == nil {
			t.Errorf("ReadBinary accepted lying header %v", h[:16])
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Errorf("lying headers drove %d MB of allocation; want bounded by stream size", grew>>20)
	}
}

// randomGraph builds a deterministic pseudo-random graph for properties.
func randomGraph(seed uint64, n int, m int) *Graph {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{Src: NodeID(rng.IntN(n)), Dst: NodeID(rng.IntN(n)), W: 1}
	}
	g, err := FromEdges(n, edges, false, BuildOptions{})
	if err != nil {
		panic(err)
	}
	return g
}

func TestPropertyBinaryRoundTrip(t *testing.T) {
	f := func(seed uint64, nRaw uint8, mRaw uint16) bool {
		n := int(nRaw)%200 + 1
		m := int(mRaw) % 2000
		g := randomGraph(seed, n, m)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			return false
		}
		g2, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		return g.Equal(g2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCSRCSCConsistent(t *testing.T) {
	f := func(seed uint64, nRaw uint8, mRaw uint16) bool {
		n := int(nRaw)%300 + 1
		m := int(mRaw) % 3000
		g := randomGraph(seed, n, m)
		if g.Validate() != nil {
			return false
		}
		// Sum of out-degrees and in-degrees must both equal m.
		var sumOut, sumIn int64
		for v := 0; v < n; v++ {
			sumOut += g.OutDegree(NodeID(v))
			sumIn += g.InDegree(NodeID(v))
		}
		return sumOut == g.NumEdges() && sumIn == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestComputeStats(t *testing.T) {
	g := paperExample(t)
	s := g.ComputeStats()
	if s.Nodes != 9 || s.Edges != 10 || s.Dangling != 3 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MaxOutDegree != 2 || s.MaxInDegree != 2 {
		t.Fatalf("degree stats = %+v", s)
	}
	if s.AvgDegree < 1.1 || s.AvgDegree > 1.2 {
		t.Fatalf("AvgDegree = %v", s.AvgDegree)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := paperExample(t)
	g.out[0].Adj[0] |= MSBMask
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted MSB-set adjacency")
	}
	g.out[0].Adj[0] &= IDMask

	off := g.out[0].Off
	off[3], off[4] = off[4], off[3]
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted non-monotone offsets")
	}
}

func TestPropertyEdgesRoundTripRandom(t *testing.T) {
	f := func(seed uint64, nRaw uint8, mRaw uint16) bool {
		n := int(nRaw)%150 + 1
		m := int(mRaw) % 1500
		g := randomGraph(seed, n, m)
		if int64(len(g.Edges())) != g.NumEdges() {
			return false
		}
		g2, err := FromEdges(n, g.Edges(), false, BuildOptions{})
		if err != nil {
			return false
		}
		return g.Equal(g2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDedupIdempotent(t *testing.T) {
	f := func(seed uint64, nRaw uint8, mRaw uint16) bool {
		n := int(nRaw)%100 + 1
		m := int(mRaw) % 1000
		g := randomGraph(seed, n, m)
		d1, err := FromEdges(n, g.Edges(), false, BuildOptions{Dedup: true})
		if err != nil {
			return false
		}
		d2, err := FromEdges(n, d1.Edges(), false, BuildOptions{Dedup: true})
		if err != nil {
			return false
		}
		if !d1.Equal(d2) {
			return false
		}
		// A deduped graph has no repeated (src, dst) pairs.
		for v := 0; v < n; v++ {
			adj := d1.OutNeighbors(NodeID(v))
			for i := 1; i < len(adj); i++ {
				if adj[i] == adj[i-1] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDerivedKeepsOneValuePerGraph(t *testing.T) {
	g, err := FromEdges(3, []Edge{{Src: 0, Dst: 1}}, false, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	builds := 0
	get := func(key int, fail bool) (any, error) {
		return g.Derived(key, func() (any, error) {
			builds++
			if fail {
				return nil, errors.New("no")
			}
			return &builds, nil // any non-nil value
		})
	}
	if _, err := get(1, true); err == nil || builds != 1 {
		t.Fatalf("failed build: err=%v builds=%d", err, builds)
	}
	a, _ := get(1, false) // the failure stored nothing, so this builds
	b, _ := get(1, false) // ... and this does not
	if builds != 2 || a != b {
		t.Fatalf("same key: %d builds, want 2", builds)
	}
	get(2, false) // another key replaces the value
	get(1, false) // ... so the first key builds again
	if builds != 4 {
		t.Fatalf("alternating keys: %d builds, want 4 (one slot, not a map)", builds)
	}
	// Graphs made from g start empty.
	patched, err := Patch(g, []Edge{{Src: 1, Dst: 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	block, err := g.RowBlock(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, h := range map[string]*Graph{"Patch": patched, "RowBlock": block} {
		before := builds
		if _, err := h.Derived(1, func() (any, error) { builds++; return name, nil }); err != nil || builds != before+1 {
			t.Fatalf("%s inherited the derived value (err=%v)", name, err)
		}
	}
}

package graph

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"slices"
	"testing"
	"unsafe"
)

// FuzzReadEdgeList hammers the text edge-list reader, the other format a
// graph upload may carry. Any input may be rejected, but none may panic, and
// an accepted graph must be structurally valid with no more nodes than the
// input has bytes (the bound that keeps a tiny upload from demanding a huge
// allocation).
func FuzzReadEdgeList(f *testing.F) {
	f.Add([]byte("1 2"))
	f.Add([]byte("0 1 0.5\n1 2 1.5\n# comment\n2 0 2\n"))
	f.Add([]byte("% header\n0 0\n3 1\n"))
	f.Add([]byte("0 10000000"))
	f.Add([]byte("2147483648 0"))
	f.Add([]byte("0 1 nope\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadEdgeList(bytes.NewReader(data), BuildOptions{})
		if err != nil {
			return
		}
		if verr := g.Validate(); verr != nil {
			t.Fatalf("ReadEdgeList accepted an invalid graph: %v", verr)
		}
		if g.NumNodes() > len(data) {
			t.Fatalf("ReadEdgeList built %d nodes from %d bytes", g.NumNodes(), len(data))
		}
	})
}

// fuzzSeedGraph serializes a small deterministic graph (optionally
// weighted) for the seed corpus.
func fuzzSeedGraph(t testing.TB, weighted bool) []byte {
	t.Helper()
	edges := []Edge{
		{Src: 0, Dst: 1, W: 1}, {Src: 0, Dst: 2, W: 2}, {Src: 1, Dst: 2, W: 0.5},
		{Src: 2, Dst: 0, W: 1}, {Src: 3, Dst: 3, W: 4}, // self-loop + dangling node 4
	}
	g, err := FromEdges(5, edges, weighted, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// lyingHeader claims a huge graph on a tiny stream — the classic
// allocation-bomb shape the chunked readers defend against.
func lyingHeader(n, m uint64) []byte {
	var buf bytes.Buffer
	buf.Write(binaryMagic[:])
	for _, v := range []uint64{n, m, 0} {
		binary.Write(&buf, binary.LittleEndian, v) //nolint:errcheck // bytes.Buffer
	}
	buf.WriteString("short")
	return buf.Bytes()
}

// FuzzReadBinary hammers the untrusted binary-graph reader (the
// graph-upload path of the serving daemon). Any input may be rejected,
// but none may panic, over-allocate against a lying header, or produce a
// structurally invalid graph; accepted graphs must survive a write/read
// round-trip unchanged.
func FuzzReadBinary(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("PCPMGRF"))              // magic truncated
	f.Add([]byte("NOTAGRAPH_AT_ALL"))     // wrong magic
	f.Add(fuzzSeedGraph(f, false))        // valid unweighted
	f.Add(fuzzSeedGraph(f, true))         // valid weighted
	f.Add(fuzzSeedGraph(f, false)[:20])   // header cut mid-field
	f.Add(lyingHeader(1<<40, 1<<50))      // node count past the ID space
	f.Add(lyingHeader(100, 1000))         // plausible counts, missing bytes
	f.Add(append(fuzzSeedGraph(f, false), // trailing garbage is ignored
		0xde, 0xad, 0xbe, 0xef))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return // bound memory; io is already chunk-limited
		}
		g, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return // rejected is fine; panicking is the bug class
		}
		if verr := g.Validate(); verr != nil {
			t.Fatalf("ReadBinary accepted an invalid graph: %v", verr)
		}
		var buf bytes.Buffer
		if werr := WriteBinary(&buf, g); werr != nil {
			t.Fatalf("round-trip write failed: %v", werr)
		}
		g2, rerr := ReadBinary(&buf)
		if rerr != nil {
			t.Fatalf("round-trip read failed: %v", rerr)
		}
		if !g.Equal(g2) {
			t.Fatal("round-trip changed the graph")
		}
	})
}

// lyingSnapshotHeader claims huge section lengths on a tiny stream; the
// reader must reject it without allocating what the header promises.
func lyingSnapshotHeader(metaLen uint32, ranksN, graphLen uint64) []byte {
	var buf bytes.Buffer
	buf.Write(snapshotMagic[:])
	binary.Write(&buf, binary.LittleEndian, uint32(snapshotVersion)) //nolint:errcheck // bytes.Buffer
	binary.Write(&buf, binary.LittleEndian, metaLen)                 //nolint:errcheck // bytes.Buffer
	binary.Write(&buf, binary.LittleEndian, ranksN)                  //nolint:errcheck // bytes.Buffer
	binary.Write(&buf, binary.LittleEndian, graphLen)                //nolint:errcheck // bytes.Buffer
	buf.WriteString("short")
	return buf.Bytes()
}

// FuzzSnapshotLoad hammers the snapshot reader warm recovery trusts with
// whatever it finds on disk. Any input may be rejected, but none may panic
// or allocate against a lying header; accepted snapshots must carry a
// structurally valid graph, a matching rank vector, and survive a
// write/read round-trip byte-identically.
func FuzzSnapshotLoad(f *testing.F) {
	seed := func(weighted bool) []byte {
		edges := []Edge{{Src: 0, Dst: 1, W: 1}, {Src: 1, Dst: 2, W: 2}, {Src: 2, Dst: 0, W: 3}}
		g, err := FromEdges(4, edges, weighted, BuildOptions{})
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		s := &Snapshot{Graph: g, Ranks: []float32{0.4, 0.3, 0.2, 0.1}, Meta: []byte(`{"lsn":7}`)}
		if err := WriteSnapshot(&buf, s); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add([]byte{})
	f.Add([]byte("PCPMSNP"))                    // magic truncated
	f.Add(seed(false))                          // valid unweighted
	f.Add(seed(true))                           // valid weighted
	f.Add(seed(false)[:20])                     // header cut mid-field
	f.Add(lyingSnapshotHeader(1<<31, 1<<40, 1)) // meta + rank bombs
	f.Add(lyingSnapshotHeader(8, 4, 1<<60))     // graph-length bomb
	f.Add(append(seed(false), 0xde, 0xad))      // trailing garbage is ignored
	corrupt := seed(true)
	corrupt[len(corrupt)/2] ^= 0x40
	f.Add(corrupt) // checksum must catch a mid-payload flip

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		s, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return // rejected is fine; panicking or ballooning is the bug class
		}
		if verr := s.Graph.Validate(); verr != nil {
			t.Fatalf("ReadSnapshot accepted an invalid graph: %v", verr)
		}
		if len(s.Ranks) != s.Graph.NumNodes() {
			t.Fatalf("ReadSnapshot accepted %d ranks for %d nodes", len(s.Ranks), s.Graph.NumNodes())
		}
		var buf bytes.Buffer
		if werr := WriteSnapshot(&buf, s); werr != nil {
			t.Fatalf("round-trip write failed: %v", werr)
		}
		s2, rerr := ReadSnapshot(&buf)
		if rerr != nil {
			t.Fatalf("round-trip read failed: %v", rerr)
		}
		if !s.Graph.Equal(s2.Graph) || !bytes.Equal(s.Meta, s2.Meta) {
			t.Fatal("round-trip changed the snapshot")
		}
	})
}

// FuzzSniffBinary pins the sniffing contract the upload dispatcher relies
// on: SniffBinary never panics on arbitrary (including short) heads, and
// every stream ReadBinary accepts is one SniffBinary claims.
func FuzzSniffBinary(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("P"))
	f.Add([]byte("PCPMGRF1"))
	f.Add([]byte("PCPMGRF2"))
	f.Add([]byte("# an edge list\n0 1\n"))
	f.Add(fuzzSeedGraph(f, false))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		sniffed := SniffBinary(data)
		if len(data) >= 8 && !sniffed && bytes.Equal(data[:8], binaryMagic[:]) {
			t.Fatal("SniffBinary missed the magic")
		}
		if _, err := ReadBinary(bytes.NewReader(data)); err == nil && !sniffed {
			t.Fatal("ReadBinary accepted a stream SniffBinary rejects — the upload dispatcher would parse it as an edge list")
		}
	})
}

// FuzzPatch drives Patch across chunk seams. The graph has a node count
// that is not a multiple of ChunkSize, so its last chunk is partial, and the
// batch's sources lean on the seams: ChunkSize−1 and ChunkSize, the first
// and last vertices of the last chunk, vertex 0. ops is read three bytes at
// a time (kind and source, then two bytes picking a destination or the
// instance to delete). The patched graph must equal FromEdges over the
// edited edge list, bit for bit; every chunk the batch leaves alone must be
// the parent's own, and the parent must read back unchanged.
func FuzzPatch(f *testing.F) {
	f.Add(false, uint16(0), uint64(1), []byte{0, 0, 1, 2, 0, 0})
	f.Add(true, uint16(7), uint64(2), []byte{1, 3, 0, 3, 0, 0, 4, 9, 9, 6, 1, 1})
	f.Add(true, uint16(4095), uint64(3), []byte{2, 0, 0, 5, 0, 0, 7, 1, 0, 8, 2, 0})
	f.Add(false, uint16(1), uint64(4), []byte{9, 0, 0, 11, 0, 0, 13, 0, 0})

	f.Fuzz(func(t *testing.T, weighted bool, extra uint16, seed uint64, ops []byte) {
		n := 2*ChunkSize + 1 + int(extra)%(2*ChunkSize)
		if n%ChunkSize == 0 {
			n++
		}
		// A weight is a function of the pair, so parallel instances are
		// interchangeable and only the multiset of edges decides the graph.
		edge := func(src, dst int) Edge {
			e := Edge{Src: NodeID(src), Dst: NodeID(dst), W: 1}
			if weighted {
				e.W = float32(1+(src*31+dst)%7) / 4
			}
			return e
		}
		last := n &^ chunkMask // the last chunk's first vertex
		seams := []int{ChunkSize - 1, ChunkSize, last, n - 1, 0}
		r := rand.New(rand.NewPCG(seed, uint64(n)))
		var edges []Edge
		for range 3 * n {
			src := r.IntN(n)
			if r.IntN(4) == 0 {
				src = seams[r.IntN(len(seams))]
			}
			edges = append(edges, edge(src, r.IntN(n)))
		}
		g, err := FromEdges(n, edges, weighted, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		before := g.Edges()
		parent := slices.Clone(g.out)

		// Deletions name instances the parent holds, each at most once.
		left := map[int][]NodeID{}
		var ins, del []Edge
		for i := 0; i+2 < len(ops) && i < 3*64; i += 3 {
			src := int(ops[i]>>1) % (len(seams) + 1)
			if src < len(seams) {
				src = seams[src]
			} else {
				src = int(ops[i+1]) << 8 % n
			}
			pick := int(ops[i+1])<<8 | int(ops[i+2])
			if ops[i]&1 == 0 {
				ins = append(ins, edge(src, pick%n))
				continue
			}
			if _, ok := left[src]; !ok {
				left[src] = slices.Clone(g.OutNeighbors(NodeID(src)))
			}
			if l := left[src]; len(l) > 0 {
				j := pick % len(l)
				del = append(del, edge(src, int(l[j])))
				left[src] = slices.Delete(l, j, j+1)
			}
		}
		if len(ins)+len(del) == 0 {
			return
		}
		got, err := Patch(g, ins, del)
		if err != nil {
			t.Fatalf("Patch: %v", err)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("patched graph invalid: %v", err)
		}

		remove := map[Edge]int{}
		for _, e := range del {
			remove[e]++
		}
		var kept []Edge
		for _, e := range before {
			if remove[e] > 0 {
				remove[e]--
				continue
			}
			kept = append(kept, e)
		}
		want, err := FromEdges(n, append(kept, ins...), weighted, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) || !slices.Equal(got.Edges(), want.Edges()) {
			t.Fatal("Patch differs from FromEdges over the edited edge list")
		}

		touched := map[int]bool{}
		for _, e := range append(ins, del...) {
			touched[int(e.Src)>>ChunkShift] = true
		}
		for c := range got.out {
			shared := unsafe.SliceData(got.out[c].Off) == unsafe.SliceData(g.out[c].Off)
			if shared == touched[c] {
				t.Fatalf("chunk %d: shared with the parent %v, touched by the batch %v", c, shared, touched[c])
			}
		}
		if !slices.EqualFunc(g.out, parent, func(a, b Chunk) bool {
			return unsafe.SliceData(a.Off) == unsafe.SliceData(b.Off) && unsafe.SliceData(a.Adj) == unsafe.SliceData(b.Adj)
		}) || !slices.Equal(g.Edges(), before) || g.Validate() != nil {
			t.Fatal("Patch changed its parent")
		}
	})
}

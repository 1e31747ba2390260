package graph

import (
	"bytes"
	"encoding/binary"
	"testing"
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

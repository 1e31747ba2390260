package shard

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// payloadSeed encodes shard i of a small Erdős–Rényi graph cut in two.
func payloadSeed(f *testing.F, i int, weighted bool) []byte {
	f.Helper()
	g, err := gen.ErdosRenyi(12, 40, 5, graph.BuildOptions{})
	if err == nil && weighted {
		g, err = gen.WithUniformWeights(g, 0.5, 2, 6)
	}
	if err != nil {
		f.Fatal(err)
	}
	a := Assign(g, 2)
	sub, err := g.RowBlock(a[i].Lo, a[i].Hi)
	if err != nil {
		f.Fatal(err)
	}
	degs, err := DegreesOf(g)
	if err != nil {
		f.Fatal(err)
	}
	meta := PayloadMeta{Graph: "g", Shard: i, Ranges: a, Peers: []string{"http://a", "http://b"}, N: g.NumNodes(), M: g.NumEdges()}
	var buf bytes.Buffer
	if err := WritePayload(&buf, meta, sub, degs); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadPayload hammers the PCPMSHD1 decoder, ReadPayload. Any input may be rejected, but none may panic or
// allocate more than fixed buffers plus a multiple of its own length (a
// lying header must not size an allocation); an accepted payload keeps
// every sub-graph edge inside the owned block and survives a re-encode.
func FuzzReadPayload(f *testing.F) {
	good := payloadSeed(f, 0, false)
	lying := binary.LittleEndian.AppendUint32(append([]byte(nil), payloadMagic[:]...), maxMetaBytes)
	f.Add([]byte{})
	f.Add(good)
	f.Add(payloadSeed(f, 1, true))
	f.Add(good[:len(good)/2]) // cut inside the sub-graph
	f.Add(good[:len(good)-3]) // cut inside the degrees
	f.Add(append(lying, '{')) // meta length past the stream

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		// bufio's 1 MiB buffer, a meta of at most maxMetaBytes and the
		// chunked readers' scratch are fixed; the decoded arrays grow with
		// the bytes that carry them.
		limit := uint64(8<<20 + 32*len(data))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, err := ReadPayload(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(data), alloc, limit)
		}
		if err != nil {
			return
		}
		own := p.Meta.Ranges[p.Meta.Shard]
		for _, ch := range p.Sub.Chunks() {
			for _, u := range ch.Adj {
				if u < own.Lo || u >= own.Hi {
					t.Fatalf("accepted an edge into %d outside the owned block [%d, %d)", u, own.Lo, own.Hi)
				}
			}
		}
		if len(p.Degs) != p.Meta.N {
			t.Fatalf("accepted %d degrees for %d nodes", len(p.Degs), p.Meta.N)
		}
		var buf bytes.Buffer
		if err := WritePayload(&buf, p.Meta, p.Sub, p.Degs); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		q, err := ReadPayload(&buf)
		if err != nil || !q.Sub.Equal(p.Sub) {
			t.Fatalf("re-encoded payload did not decode to itself: %v", err)
		}
	})
}

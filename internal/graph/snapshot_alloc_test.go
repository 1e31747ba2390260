package graph_test

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// TestSnapshotCodecAllocatesWithSize: encoding or decoding the snapshot of
// a 300-node graph (about 13 KB) allocates well under 256 KiB. The codec
// reads and writes through one scratch buffer sized by the stream, not
// through fixed megabyte buffers.
func TestSnapshotCodecAllocatesWithSize(t *testing.T) {
	g, err := gen.ErdosRenyi(300, 2400, 7, graph.BuildOptions{Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	s := &graph.Snapshot{Graph: g, Ranks: make([]float32, g.NumNodes()), Meta: []byte(`{"name":"g","lsn":7}`)}
	blob, err := graph.EncodeSnapshot(s)
	if err != nil {
		t.Fatal(err)
	}
	perOp := func(op func() error) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range 10 {
			if err := op(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / 10
	}
	encode := perOp(func() error { _, err := graph.EncodeSnapshot(s); return err })
	decode := perOp(func() error { _, err := graph.ReadSnapshot(bytes.NewReader(blob)); return err })
	if encode >= 256<<10 || decode >= 256<<10 {
		t.Errorf("a %d-byte snapshot allocates %d bytes to encode and %d to decode, want each under 256 KiB",
			len(blob), encode, decode)
	}
}

// TestSnapshotDecodeAllocatesOnce: from a reader that knows its length,
// decoding a snapshot allocates each array once, so the whole decode costs
// at most 1.3× the blob (the offsets are held twice: as read, and cut into
// chunks). A truncated blob whose header claims the whole graph costs no
// more than the bytes it holds.
func TestSnapshotDecodeAllocatesOnce(t *testing.T) {
	g, err := gen.PreferentialAttachment(1<<15, 8, 42, graph.BuildOptions{Dedup: true, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	ranks := make([]float32, g.NumNodes())
	for i := range ranks {
		ranks[i] = float32(i+1) / float32(len(ranks))
	}
	blob, err := graph.EncodeSnapshot(&graph.Snapshot{Graph: g, Ranks: ranks, Meta: []byte(`{"name":"g","lsn":7}`)})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []struct {
		name  string
		bytes []byte
		ok    bool
	}{{"whole", blob, true}, {"truncated", blob[:len(blob)/3], false}} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := graph.ReadSnapshot(bytes.NewReader(in.bytes))
		runtime.ReadMemStats(&after)
		if (err == nil) != in.ok {
			t.Fatalf("%s: decode error %v", in.name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; float64(got) > 1.3*float64(len(in.bytes)) {
			t.Errorf("%s: decoding %d bytes allocates %d, want at most 1.3×", in.name, len(in.bytes), got)
		}
	}
}

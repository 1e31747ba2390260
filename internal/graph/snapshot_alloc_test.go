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

package wal

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
)

func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}, {Src: 2, Dst: 3}}
	g, err := graph.FromEdges(4, edges, false, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testSnap(t testing.TB, meta string) *graph.Snapshot {
	t.Helper()
	g := testGraph(t)
	return &graph.Snapshot{
		Graph: g,
		Ranks: []float32{0.4, 0.3, 0.2, 0.1},
		Meta:  []byte(meta),
	}
}

func mustOpen(t testing.TB, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func mustAppend(t testing.TB, s *Store, typ RecordType, meta, blob []byte) uint64 {
	t.Helper()
	lsn, err := s.Append(typ, meta, blob)
	if err != nil {
		t.Fatal(err)
	}
	return lsn
}

func collect(t testing.TB, s *Store) []Record {
	t.Helper()
	var recs []Record
	err := s.Replay(func(r *Record) error {
		recs = append(recs, Record{
			LSN: r.LSN, Type: r.Type, Offset: r.Offset,
			Meta: append([]byte(nil), r.Meta...),
			Blob: append([]byte(nil), r.Blob...),
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func segmentPaths(t testing.TB, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	want := []struct {
		typ  RecordType
		meta string
		blob string
	}{
		{RecAddGraph, `{"name":"g"}`, "graph-bytes"},
		{RecEdgeDelta, `{"name":"g","insert":[[0,1]]}`, ""},
		{RecRecompute, `{"name":"g"}`, ""},
		{RecRemoveGraph, `{"name":"g"}`, ""},
	}
	for i, w := range want {
		lsn := mustAppend(t, s, w.typ, []byte(w.meta), []byte(w.blob))
		if lsn != uint64(i+1) {
			t.Fatalf("append %d: LSN %d, want %d", i, lsn, i+1)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re := mustOpen(t, dir, Options{})
	recs := collect(t, re)
	if len(recs) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(want))
	}
	for i, w := range want {
		r := recs[i]
		if r.LSN != uint64(i+1) || r.Type != w.typ ||
			string(r.Meta) != w.meta || string(r.Blob) != w.blob {
			t.Fatalf("record %d = {%d %d %q %q}, want {%d %d %q %q}",
				i, r.LSN, r.Type, r.Meta, r.Blob, i+1, w.typ, w.meta, w.blob)
		}
	}
	if got := re.NextLSN(); got != uint64(len(want)+1) {
		t.Fatalf("NextLSN = %d, want %d", got, len(want)+1)
	}
	// Appends continue the sequence across a restart.
	if lsn := mustAppend(t, re, RecEdgeDelta, []byte("{}"), nil); lsn != uint64(len(want)+1) {
		t.Fatalf("post-restart LSN = %d, want %d", lsn, len(want)+1)
	}
}

func TestReplayExcludesOwnAppends(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	mustAppend(t, s, RecEdgeDelta, []byte("a"), nil)
	s.Close()

	re := mustOpen(t, dir, Options{})
	mustAppend(t, re, RecEdgeDelta, []byte("b"), nil)
	if recs := collect(t, re); len(recs) != 1 || string(recs[0].Meta) != "a" {
		t.Fatalf("replay saw %d records (want only the pre-open one)", len(recs))
	}
}

func TestMidLogCorruptionFailsClosedWithOffset(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	mustAppend(t, s, RecEdgeDelta, []byte("first"), nil)
	second := mustAppend(t, s, RecEdgeDelta, []byte("second"), nil)
	mustAppend(t, s, RecEdgeDelta, []byte("third"), nil)
	s.Close()

	seg := segmentPaths(t, dir)[0]
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of the middle record: a torn tail cannot
	// explain damage with valid bytes after it, so Open must fail closed
	// naming the file and the record's exact offset.
	firstLen := frameSize(len("first"), 0)
	raw[firstLen+frameHeader+payloadMin] ^= 0xff
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = Open(dir, Options{})
	var cerr *CorruptionError
	if !errors.As(err, &cerr) {
		t.Fatalf("Open = %v, want a *CorruptionError", err)
	}
	if cerr.Path != seg || cerr.Offset != firstLen {
		t.Fatalf("corruption at %s:%d, want %s:%d", cerr.Path, cerr.Offset, seg, firstLen)
	}
	_ = second
}

func TestLSNGapIsCorruption(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	mustAppend(t, s, RecEdgeDelta, []byte("a"), nil)
	mustAppend(t, s, RecEdgeDelta, []byte("b"), nil)
	s.Close()

	// Splice record 2's frame out of the middle by rewriting the segment
	// as records 1 and 3 — the LSN discontinuity must be rejected.
	var frames []byte
	frames = appendFrame(frames, 1, RecEdgeDelta, []byte("a"), nil)
	frames = appendFrame(frames, 3, RecEdgeDelta, []byte("c"), nil)
	seg := segmentPaths(t, dir)[0]
	if err := os.WriteFile(seg, frames, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir, Options{})
	var cerr *CorruptionError
	if !errors.As(err, &cerr) || !strings.Contains(cerr.Reason, "LSN") {
		t.Fatalf("Open = %v, want an LSN corruption error", err)
	}
}

func TestSegmentGapIsCorruption(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	mustAppend(t, s, RecEdgeDelta, []byte("a"), nil)
	s.Close()

	// A second segment claiming to start past the first's end means a
	// whole segment of acknowledged records is missing.
	var frames []byte
	frames = appendFrame(frames, 7, RecEdgeDelta, []byte("late"), nil)
	if err := os.WriteFile(filepath.Join(dir, "0000000000000007.wal"), frames, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir, Options{})
	var cerr *CorruptionError
	if !errors.As(err, &cerr) || !strings.Contains(cerr.Reason, "gap") {
		t.Fatalf("Open = %v, want a segment-gap corruption error", err)
	}
}

func TestCheckpointPersistsAndPrunes(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	mustAppend(t, s, RecAddGraph, []byte(`{"name":"g"}`), []byte("blob"))
	lsn := mustAppend(t, s, RecEdgeDelta, []byte(`{"name":"g"}`), nil)

	err := s.Checkpoint([]CheckpointEntry{{Name: "g", LSN: lsn, Snap: testSnap(t, `{"lsn":2}`)}})
	if err != nil {
		t.Fatal(err)
	}
	// Both pre-checkpoint records are covered: only the marker segment may
	// survive, holding exactly the RecCheckpoint marker.
	if segs := segmentPaths(t, dir); len(segs) != 1 {
		t.Fatalf("%d segments after checkpoint, want 1 (pruned)", len(segs))
	}
	post := mustAppend(t, s, RecEdgeDelta, []byte(`{"name":"g","post":true}`), nil)
	s.Close()

	re := mustOpen(t, dir, Options{})
	snaps := re.Snapshots()
	if len(snaps) != 1 || snaps[0].Name != "g" {
		t.Fatalf("recovered snapshots = %+v, want one named g", snaps)
	}
	if !snaps[0].Snap.Graph.Equal(testGraph(t)) {
		t.Fatal("recovered snapshot graph differs")
	}
	if string(snaps[0].Snap.Meta) != `{"lsn":2}` {
		t.Fatalf("snapshot meta = %q", snaps[0].Snap.Meta)
	}
	recs := collect(t, re)
	if len(recs) != 2 || recs[0].Type != RecCheckpoint || recs[1].LSN != post {
		t.Fatalf("replayed %d records (types %v), want marker + post-checkpoint delta",
			len(recs), recs)
	}
	var meta checkpointMeta
	if err := json.Unmarshal(recs[0].Meta, &meta); err != nil || meta.Graphs["g"] != lsn {
		t.Fatalf("marker meta = %q (err %v), want coverage of g at %d", recs[0].Meta, err, lsn)
	}
}

func TestCheckpointRemovesStaleSnapshots(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	a := mustAppend(t, s, RecAddGraph, []byte(`{"name":"a"}`), nil)
	b := mustAppend(t, s, RecAddGraph, []byte(`{"name":"b"}`), nil)
	if err := s.Checkpoint([]CheckpointEntry{
		{Name: "a", LSN: a, Snap: testSnap(t, "a")},
		{Name: "b", LSN: b, Snap: testSnap(t, "b")},
	}); err != nil {
		t.Fatal(err)
	}
	// b is removed before the next checkpoint; its snapshot file must go.
	mustAppend(t, s, RecRemoveGraph, []byte(`{"name":"b"}`), nil)
	if err := s.Checkpoint([]CheckpointEntry{
		{Name: "a", LSN: a, Snap: testSnap(t, "a")},
	}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	re := mustOpen(t, dir, Options{})
	snaps := re.Snapshots()
	if len(snaps) != 1 || snaps[0].Name != "a" {
		t.Fatalf("snapshots after removal checkpoint = %+v, want only a", snaps)
	}
}

func TestCheckpointEmptyRegistry(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	mustAppend(t, s, RecAddGraph, []byte(`{"name":"g"}`), nil)
	mustAppend(t, s, RecRemoveGraph, []byte(`{"name":"g"}`), nil)
	if err := s.Checkpoint(nil); err != nil {
		t.Fatal(err)
	}
	s.Close()
	re := mustOpen(t, dir, Options{})
	if snaps := re.Snapshots(); len(snaps) != 0 {
		t.Fatalf("snapshots = %+v, want none", snaps)
	}
	recs := collect(t, re)
	if len(recs) != 1 || recs[0].Type != RecCheckpoint {
		t.Fatalf("replay after empty checkpoint = %+v, want just the marker", recs)
	}
}

func TestRepeatedCheckpointsDoNotAccumulateSegments(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for i := 0; i < 5; i++ {
		lsn := mustAppend(t, s, RecEdgeDelta, []byte(`{"name":"g"}`), nil)
		if err := s.Checkpoint([]CheckpointEntry{{Name: "g", LSN: lsn, Snap: testSnap(t, "m")}}); err != nil {
			t.Fatal(err)
		}
	}
	// A checkpoint with no interleaved appends must not rotate forever.
	if err := s.Checkpoint([]CheckpointEntry{{Name: "g", LSN: s.NextLSN() - 1, Snap: testSnap(t, "m")}}); err != nil {
		t.Fatal(err)
	}
	if segs := segmentPaths(t, dir); len(segs) > 2 {
		t.Fatalf("%d segments after repeated checkpoints, want ≤ 2", len(segs))
	}
}

func TestAdvanceGuardsSnapshotOnlyDirectory(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	lsn := mustAppend(t, s, RecAddGraph, []byte(`{"name":"g"}`), nil)
	if err := s.Checkpoint([]CheckpointEntry{{Name: "g", LSN: lsn, Snap: testSnap(t, "m")}}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Simulate out-of-band log loss: snapshots survive, segments do not.
	for _, p := range segmentPaths(t, dir) {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	re := mustOpen(t, dir, Options{})
	if len(re.Snapshots()) != 1 {
		t.Fatal("snapshot should survive log loss")
	}
	if err := re.Advance(lsn); err != nil {
		t.Fatal(err)
	}
	if got := mustAppend(t, re, RecEdgeDelta, []byte("x"), nil); got <= lsn {
		t.Fatalf("post-advance LSN %d not past snapshot coverage %d", got, lsn)
	}

	// With an intact log, advancing to a covered position is a no-op and
	// advancing past the tail is refused.
	if err := re.Advance(1); err != nil {
		t.Fatalf("no-op advance: %v", err)
	}
	if err := re.Advance(re.NextLSN() + 10); err == nil {
		t.Fatal("Advance past existing records was allowed")
	}
}

func TestRecordTooLargeRejected(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	if _, err := s.Append(RecAddGraph, nil, make([]byte, MaxRecordBytes)); err == nil {
		t.Fatal("oversized record accepted")
	}
	// The store stays usable after the rejection.
	mustAppend(t, s, RecEdgeDelta, []byte("ok"), nil)
}

func TestClosedStoreFailsOperations(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	mustAppend(t, s, RecEdgeDelta, nil, nil)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(RecEdgeDelta, nil, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
}

// TestWait pins the long-poll call: it returns at once when a record at or
// past the cursor exists, and otherwise on an append from another
// goroutine, on ctx's end, or with ErrClosed when the store closes.
func TestWait(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	mustAppend(t, s, RecAddGraph, nil, nil)
	if next, err := s.Wait(context.Background(), 1); err != nil || next != 2 {
		t.Fatalf("Wait(1) with record 1 logged: %d, %v; want 2 at once", next, err)
	}

	// park runs Wait(ctx, from) in another goroutine, requires it still
	// waiting 20 ms later, then does act and returns what Wait returned.
	park := func(ctx context.Context, from uint64, act func()) (uint64, error) {
		t.Helper()
		type result struct {
			next uint64
			err  error
		}
		done := make(chan result, 1)
		go func() {
			next, err := s.Wait(ctx, from)
			done <- result{next, err}
		}()
		select {
		case r := <-done:
			t.Fatalf("Wait(%d) returned %d, %v before anything happened", from, r.next, r.err)
		case <-time.After(20 * time.Millisecond):
		}
		act()
		select {
		case r := <-done:
			return r.next, r.err
		case <-time.After(5 * time.Second):
			t.Fatalf("Wait(%d) still waiting 5 s later", from)
			return 0, nil
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	if next, err := park(ctx, 2, cancel); !errors.Is(err, context.Canceled) || next != 2 {
		t.Errorf("Wait(2), canceled: %d, %v; want 2, context.Canceled", next, err)
	}
	appendOne := func() { mustAppend(t, s, RecAddGraph, nil, nil) }
	if next, err := park(context.Background(), 2, appendOne); err != nil || next != 3 {
		t.Errorf("Wait(2), record 2 appended: %d, %v; want 3, nil", next, err)
	}
	closeStore := func() {
		if err := s.Close(); err != nil {
			t.Error(err)
		}
	}
	if next, err := park(context.Background(), 3, closeStore); !errors.Is(err, ErrClosed) || next != 3 {
		t.Errorf("Wait(3), store closed: %d, %v; want 3, ErrClosed", next, err)
	}
}

func TestSyncPolicies(t *testing.T) {
	// Never-sync and interval-sync stores must still produce a fully
	// recoverable log through a graceful Close (which always syncs).
	for name, opts := range map[string]Options{
		"never":    {SyncEvery: -1},
		"interval": {SyncEvery: 5 * time.Millisecond},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir, opts)
			for i := 0; i < 10; i++ {
				mustAppend(t, s, RecEdgeDelta, []byte{byte(i)}, nil)
			}
			if opts.SyncEvery > 0 {
				time.Sleep(20 * time.Millisecond) // let the background sync tick
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			re := mustOpen(t, dir, Options{})
			if recs := collect(t, re); len(recs) != 10 {
				t.Fatalf("replayed %d records, want 10", len(recs))
			}
		})
	}
}

func TestStaleSnapshotTmpRemoved(t *testing.T) {
	dir := t.TempDir()
	// A crash mid-snapshot-write leaves a .tmp the next Open must clear.
	tmp := filepath.Join(dir, "6767.snap.tmp")
	if err := os.WriteFile(tmp, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	mustOpen(t, dir, Options{})
	if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale tmp still present: %v", err)
	}
}

func TestCorruptSnapshotFailsClosed(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	lsn := mustAppend(t, s, RecAddGraph, []byte(`{"name":"g"}`), nil)
	if err := s.Checkpoint([]CheckpointEntry{{Name: "g", LSN: lsn, Snap: testSnap(t, "m")}}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	snaps, err := filepath.Glob(filepath.Join(dir, "*.snap"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snap files = %v (err %v)", snaps, err)
	}
	raw, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(snaps[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open accepted a corrupt snapshot")
	}
}

func TestScanStopsEarlyWithoutCorruption(t *testing.T) {
	var frames []byte
	frames = appendFrame(frames, 1, RecEdgeDelta, []byte("a"), nil)
	frames = appendFrame(frames, 2, RecEdgeDelta, []byte("b"), nil)
	n := 0
	res, err := Scan(bytes.NewReader(frames), int64(len(frames)), 1, func(r *Record) error {
		n++
		return ErrStop
	})
	if err != nil || n != 1 || res.Torn {
		t.Fatalf("early stop: err=%v n=%d res=%+v", err, n, res)
	}
}

package wal

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/graph"
)

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("wal: store closed")

// ErrPruned is returned by ReadFrom when the requested cursor predates the
// oldest retained record — a checkpoint pruned the segments holding it. The
// caller (a replication follower) must re-bootstrap from snapshots.
var ErrPruned = errors.New("wal: records before cursor pruned")

// Options configure a Store.
type Options struct {
	// SyncEvery selects the fsync policy for log appends: 0 (the default)
	// fsyncs every append before acknowledging it, a negative duration
	// never fsyncs explicitly (the OS flushes on its own schedule), and a
	// positive duration fsyncs from a background goroutine at that
	// interval — bounding loss after a crash to the last interval's
	// acknowledged records.
	SyncEvery time.Duration

	// open overrides how the active segment file is opened for appending;
	// the fault-injection tests substitute a shim that errors or
	// short-writes after a byte budget. Nil means the real file.
	open func(path string) (walFile, error)
}

// walFile is the slice of *os.File the append path needs; the
// fault-injection harness implements it over a byte-budgeted shim.
type walFile interface {
	io.Writer
	io.Closer
	Sync() error
	Truncate(size int64) error
}

func osOpenAppend(path string) (walFile, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// GraphSnapshot is one persisted graph loaded during Open. The Meta inside
// Snap is the caller's document (the serving layer keeps the graph name,
// engine options, covered LSN, and accumulated repair drift there).
type GraphSnapshot struct {
	Name string
	Snap *graph.Snapshot
}

// CheckpointEntry is one graph to persist in a checkpoint.
type CheckpointEntry struct {
	Name string
	// LSN is the last log record whose effect the snapshot includes;
	// segments wholly at or below every entry's LSN are pruned.
	LSN  uint64
	Snap *graph.Snapshot
}

type segmentInfo struct {
	path  string
	first uint64 // LSN of the segment's first record (from the filename)
	size  int64  // valid bytes (past any truncated torn tail)
}

// Store is the durable log-plus-snapshots directory. Appends are safe for
// concurrent use; Open → Replay → appends is the expected lifecycle.
type Store struct {
	dir  string
	opts Options

	mu         sync.Mutex
	err        error         // guarded by mu; sticky fatal failure; set once, fails everything after
	file       walFile       // guarded by mu; active segment, opened lazily on first append
	segName    string        // guarded by mu; active segment path ("" = next append starts a segment)
	segSize    int64         // guarded by mu
	nextLSN    uint64        // guarded by mu
	hasRecords bool          // guarded by mu
	segs       []segmentInfo // guarded by mu; all live segments in LSN order; last is active
	buf        []byte        // guarded by mu

	replaySegs []segmentInfo // segment sizes as of Open, for Replay
	snaps      []GraphSnapshot

	notify chan struct{} // guarded by mu; closed on append and on Close, to wake Wait

	stopSync chan struct{}
	syncDone chan struct{}
}

// Open loads the durable state under dir, creating it when absent. It
// reads every persisted graph snapshot, validates the whole log chain —
// truncating a torn final record, failing closed with a precise offset on
// any other damage — and leaves the store ready for Replay and appends.
func Open(dir string, opts Options) (*Store, error) {
	if opts.open == nil {
		opts.open = osOpenAppend
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	s := &Store{dir: dir, opts: opts, nextLSN: 1}

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var snapFiles []string
	for _, e := range entries {
		name := e.Name()
		switch {
		case e.IsDir():
			continue
		case strings.HasSuffix(name, ".tmp"):
			// A snapshot write that never reached its rename; the durable
			// copy it was replacing is still in place.
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return nil, fmt.Errorf("wal: removing stale %s: %w", name, err)
			}
		case strings.HasSuffix(name, ".wal"):
			first, err := strconv.ParseUint(strings.TrimSuffix(name, ".wal"), 16, 64)
			if err != nil {
				return nil, fmt.Errorf("wal: segment %s: malformed name", name)
			}
			fi, err := e.Info()
			if err != nil {
				return nil, fmt.Errorf("wal: %w", err)
			}
			s.segs = append(s.segs, segmentInfo{path: filepath.Join(dir, name), first: first, size: fi.Size()})
		case strings.HasSuffix(name, ".snap"):
			snapFiles = append(snapFiles, name)
		}
	}
	sort.Slice(s.segs, func(i, j int) bool { return s.segs[i].first < s.segs[j].first })

	// Validate the chain: contiguous LSNs within and across segments, torn
	// tail tolerated (and cut) only at the very end of the last segment.
	want := uint64(0)
	for i := range s.segs {
		seg := &s.segs[i]
		if i == 0 {
			want = seg.first
		} else if seg.first != want {
			return nil, &CorruptionError{Path: seg.path,
				Reason: fmt.Sprintf("segment starts at LSN %d, want %d (gap in the log)", seg.first, want)}
		}
		res, err := scanSegment(*seg, nil)
		if err != nil {
			return nil, err
		}
		if res.Torn {
			if i != len(s.segs)-1 {
				return nil, &CorruptionError{Path: seg.path, Offset: res.ValidBytes,
					Reason: "torn record inside a non-final segment"}
			}
			if err := os.Truncate(seg.path, res.ValidBytes); err != nil {
				return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", seg.path, err)
			}
		}
		seg.size = res.ValidBytes
		want = res.NextLSN
		if res.Records > 0 {
			s.hasRecords = true
		}
	}
	if len(s.segs) > 0 {
		last := s.segs[len(s.segs)-1]
		s.segName, s.segSize = last.path, last.size
		s.nextLSN = want
	}
	s.replaySegs = append([]segmentInfo(nil), s.segs...)

	sort.Strings(snapFiles)
	for _, name := range snapFiles {
		raw, err := hex.DecodeString(strings.TrimSuffix(name, ".snap"))
		if err != nil {
			return nil, fmt.Errorf("wal: snapshot %s: malformed name", name)
		}
		snap, err := readSnapshotFile(filepath.Join(dir, name))
		if err != nil {
			// A snapshot is published by atomic rename, so a half-written
			// file cannot exist; damage here is real corruption.
			return nil, fmt.Errorf("wal: snapshot %s: %w", name, err)
		}
		s.snaps = append(s.snaps, GraphSnapshot{Name: string(raw), Snap: snap})
	}

	if opts.SyncEvery > 0 {
		s.stopSync = make(chan struct{})
		s.syncDone = make(chan struct{})
		go s.syncLoop(opts.SyncEvery)
	}
	return s, nil
}

// scanSegment runs Scan over the first seg.size bytes of one segment file,
// naming the file in a corruption error. A segment that no longer exists
// was pruned by a checkpoint after the caller listed it.
func scanSegment(seg segmentInfo, fn func(*Record) error) (ScanResult, error) {
	f, err := os.Open(seg.path)
	if err != nil {
		if os.IsNotExist(err) {
			return ScanResult{}, fmt.Errorf("%w (segment %s pruned mid-read)", ErrPruned, filepath.Base(seg.path))
		}
		return ScanResult{}, fmt.Errorf("wal: %w", err)
	}
	//lint:ignore closecheck read-only descriptor; the scan already consumed the bytes, close has nothing to flush
	defer f.Close()
	res, err := Scan(f, seg.size, seg.first, fn)
	var cerr *CorruptionError
	if errors.As(err, &cerr) && cerr.Path == "" {
		cerr.Path = seg.path
	}
	return res, err
}

// walk streams the records of segs in order through fn; fn returning
// ErrStop ends the walk without error.
func walk(segs []segmentInfo, fn func(*Record) error) error {
	stopped := false
	for _, seg := range segs {
		if seg.size == 0 {
			continue
		}
		_, err := scanSegment(seg, func(rec *Record) error {
			err := fn(rec)
			stopped = errors.Is(err, ErrStop)
			return err
		})
		if err != nil || stopped {
			return err
		}
	}
	return nil
}

func readSnapshotFile(path string) (*graph.Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	//lint:ignore closecheck read-only descriptor; ReadSnapshot validated the payload, close has nothing to flush
	defer f.Close()
	return graph.ReadSnapshot(f)
}

// Snapshots returns the graph snapshots loaded during Open, in stable
// (filename) order.
func (s *Store) Snapshots() []GraphSnapshot { return s.snaps }

// Replay streams every record that was durable at Open time, in LSN order.
// A non-nil error from fn aborts the replay with that error (ErrStop ends
// it without one). Records appended after Open are not replayed — they are
// this process's own writes, already applied.
func (s *Store) Replay(fn func(*Record) error) error { return walk(s.replaySegs, fn) }

// NextLSN returns the sequence number the next appended record will carry.
func (s *Store) NextLSN() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextLSN
}

// Advance raises the next LSN past lsn. Recovery calls it with the highest
// LSN named by any loaded snapshot, so that a log lost out-of-band (the
// snapshots survive, the segments do not) cannot make fresh appends reuse
// sequence numbers the snapshots already claim to cover. With an intact
// log this is a no-op: every snapshot LSN is below the log's own tail.
func (s *Store) Advance(lsn uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if lsn < s.nextLSN {
		return nil
	}
	if s.hasRecords {
		return fmt.Errorf("wal: cannot advance to LSN %d past existing records (log ends at %d)",
			lsn+1, s.nextLSN-1)
	}
	// The log is empty; drop any empty segment file named for the old
	// position so the first real append names its segment correctly.
	if s.segName != "" {
		if s.file != nil {
			//lint:ignore closecheck the segment is empty (hasRecords is false) and removed on the next line; a close failure has no bytes to lose
			s.file.Close()
			s.file = nil
		}
		os.Remove(s.segName)
		s.segName, s.segSize = "", 0
		s.segs = s.segs[:0]
	}
	s.nextLSN = lsn + 1
	return nil
}

// Append writes one record and returns its LSN. Under the default sync
// policy the record is fsynced before Append returns. A failed or short
// write is rolled back by truncating the segment to its pre-append size;
// if even that fails the store is marked broken and every later operation
// returns the sticky error.
func (s *Store) Append(typ RecordType, meta, blob []byte) (uint64, error) {
	if int64(payloadMin+len(meta)+len(blob)) > MaxRecordBytes {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds the %d-byte cap",
			payloadMin+len(meta)+len(blob), MaxRecordBytes)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return 0, s.err
	}
	if err := s.ensureSegmentLocked(); err != nil {
		return 0, err
	}
	lsn := s.nextLSN
	s.buf = appendFrame(s.buf[:0], lsn, typ, meta, blob)
	n, err := s.file.Write(s.buf)
	if err != nil || n != len(s.buf) {
		if err == nil {
			err = io.ErrShortWrite
		}
		if terr := s.file.Truncate(s.segSize); terr != nil {
			s.err = fmt.Errorf("wal: append failed (%v), rollback failed: %w", err, terr)
			return 0, s.err
		}
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	s.segSize += int64(n)
	s.segs[len(s.segs)-1].size = s.segSize
	if s.opts.SyncEvery == 0 {
		if err := s.file.Sync(); err != nil {
			s.err = fmt.Errorf("wal: fsync: %w", err)
			return 0, s.err
		}
	}
	s.nextLSN = lsn + 1
	s.hasRecords = true
	if s.notify != nil {
		close(s.notify)
		s.notify = nil
	}
	return lsn, nil
}

// Wait blocks until the log holds a record at or past from and returns
// the next LSN then: at once if one exists, else on the append that adds
// one, with ctx's error when ctx ends, or with the sticky error (ErrClosed
// after Close) once the store can no longer append.
func (s *Store) Wait(ctx context.Context, from uint64) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.err == nil && from >= s.nextLSN {
		if err := ctx.Err(); err != nil {
			return s.nextLSN, err
		}
		if s.notify == nil {
			s.notify = make(chan struct{})
		}
		appended := s.notify
		s.mu.Unlock()
		select {
		case <-appended:
		case <-ctx.Done():
		}
		s.mu.Lock()
	}
	return s.nextLSN, s.err
}

// OldestLSN returns the sequence number of the oldest record still retained
// in the log. With no retained records (a fresh directory, or everything
// pruned into snapshots) it equals NextLSN: nothing below it is readable.
func (s *Store) OldestLSN() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.segs) == 0 {
		return s.nextLSN
	}
	return s.segs[0].first
}

// ReadFrom streams every durable record with LSN >= from, in order,
// including records appended after Open (unlike Replay, which stops at the
// Open-time tail). It is safe to call concurrently with appends and
// checkpoints: the segment list and sizes are snapshotted under the lock,
// so only whole acknowledged frames are visited. When from predates the
// oldest retained record — or a checkpoint prunes a segment mid-read —
// ReadFrom fails with ErrPruned and the caller must restart from snapshots.
// fn may return ErrStop to end the stream early without error.
func (s *Store) ReadFrom(from uint64, fn func(*Record) error) error {
	s.mu.Lock()
	if s.err != nil {
		err := s.err
		s.mu.Unlock()
		return err
	}
	segs := append([]segmentInfo(nil), s.segs...)
	next := s.nextLSN
	s.mu.Unlock()

	if from >= next {
		return nil
	}
	if len(segs) == 0 || from < segs[0].first {
		oldest := next
		if len(segs) > 0 {
			oldest = segs[0].first
		}
		return fmt.Errorf("%w (cursor %d, oldest retained %d)", ErrPruned, from, oldest)
	}
	// Skip segments wholly below the cursor: a segment is skippable when the
	// next one starts at or before the cursor.
	start := 0
	for start+1 < len(segs) && segs[start+1].first <= from {
		start++
	}
	return walk(segs[start:], func(rec *Record) error {
		if rec.LSN < from {
			return nil
		}
		return fn(rec)
	})
}

func (s *Store) ensureSegmentLocked() error {
	if s.file != nil {
		return nil
	}
	if s.segName == "" {
		s.segName = filepath.Join(s.dir, fmt.Sprintf("%016x.wal", s.nextLSN))
		s.segSize = 0
		s.segs = append(s.segs, segmentInfo{path: s.segName, first: s.nextLSN})
	}
	f, err := s.opts.open(s.segName)
	if err != nil {
		return fmt.Errorf("wal: opening segment: %w", err)
	}
	s.file = f
	return nil
}

// checkpointMeta is the marker record's payload: which snapshot covers
// what, for offline debugging of a data directory.
type checkpointMeta struct {
	Graphs map[string]uint64 `json:"graphs"`
}

// Checkpoint persists the given graphs as snapshot files (temp file, fsync,
// atomic rename), deletes snapshot files for graphs no longer present,
// rotates to a fresh segment, appends a RecCheckpoint marker, and prunes
// segments every entry's LSN covers. The order is crash-safe at every step:
// new snapshots land before old ones are removed, and segments are deleted
// only after the snapshots superseding them are durable.
func (s *Store) Checkpoint(entries []CheckpointEntry) error {
	if err := s.sticky(); err != nil {
		return err
	}
	keep := make(map[string]bool, len(entries))
	for _, e := range entries {
		base := hex.EncodeToString([]byte(e.Name)) + ".snap"
		keep[base] = true
		if err := s.writeSnapshotFile(base, e.Snap); err != nil {
			return err
		}
	}
	dirEnts, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	for _, de := range dirEnts {
		if name := de.Name(); strings.HasSuffix(name, ".snap") && !keep[name] {
			if err := os.Remove(filepath.Join(s.dir, name)); err != nil {
				return fmt.Errorf("wal: removing stale snapshot %s: %w", name, err)
			}
		}
	}

	// Rotate so the marker starts a fresh segment; skip when the active
	// segment holds nothing (the previous checkpoint's marker would then
	// rotate forever).
	s.mu.Lock()
	if s.err != nil {
		err := s.err
		s.mu.Unlock()
		return err
	}
	if s.segSize > 0 && s.file != nil {
		if err := s.file.Sync(); err != nil {
			ferr := fmt.Errorf("wal: fsync: %w", err)
			s.err = ferr
			s.mu.Unlock()
			return ferr
		}
		if err := s.file.Close(); err != nil {
			ferr := fmt.Errorf("wal: closing segment: %w", err)
			s.err = ferr
			s.mu.Unlock()
			return ferr
		}
		s.file = nil
		s.segName, s.segSize = "", 0
	}
	s.mu.Unlock()

	meta := checkpointMeta{Graphs: make(map[string]uint64, len(entries))}
	for _, e := range entries {
		meta.Graphs[e.Name] = e.LSN
	}
	mb, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	markerLSN, err := s.Append(RecCheckpoint, mb, nil)
	if err != nil {
		return err
	}

	// Prune: a segment is disposable once the next segment's first LSN is
	// at or below minCovered+1 — every record in it is then reflected in a
	// durable snapshot (or, with no graphs at all, predates the marker).
	minCovered := markerLSN
	for _, e := range entries {
		minCovered = min(minCovered, e.LSN)
	}
	s.mu.Lock()
	for len(s.segs) > 1 && s.segs[1].first <= minCovered+1 {
		if err := os.Remove(s.segs[0].path); err != nil {
			s.mu.Unlock()
			return fmt.Errorf("wal: pruning segment: %w", err)
		}
		s.segs = s.segs[1:]
	}
	s.mu.Unlock()
	return syncDir(s.dir)
}

func (s *Store) writeSnapshotFile(base string, snap *graph.Snapshot) error {
	tmp := filepath.Join(s.dir, base+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	err = graph.WriteSnapshot(f, snap)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: writing snapshot %s: %w", base, err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, base)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	return syncDir(s.dir)
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	err = d.Sync()
	//lint:ignore closecheck directory descriptor opened read-only for the fsync; close cannot lose anything
	d.Close()
	if err != nil {
		return fmt.Errorf("wal: fsync %s: %w", dir, err)
	}
	return nil
}

func (s *Store) sticky() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Sync flushes the active segment to stable storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	if s.file == nil {
		return nil
	}
	if err := s.file.Sync(); err != nil {
		s.err = fmt.Errorf("wal: fsync: %w", err)
		return s.err
	}
	return nil
}

func (s *Store) syncLoop(every time.Duration) {
	defer close(s.syncDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			//lint:ignore closecheck Sync records a failure in s.err; the very next Append or Sync surfaces it to the caller
			s.Sync()
		case <-s.stopSync:
			return
		}
	}
}

// Close fsyncs and closes the active segment and stops the background sync
// goroutine. The store is unusable afterwards.
func (s *Store) Close() error {
	if s.stopSync != nil {
		close(s.stopSync)
		<-s.syncDone
		s.stopSync = nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if errors.Is(s.err, ErrClosed) {
		return nil
	}
	var err error
	if s.file != nil {
		err = s.file.Sync()
		if cerr := s.file.Close(); err == nil {
			err = cerr
		}
		s.file = nil
	}
	if s.notify != nil {
		// Wake waiters so they return ErrClosed instead of waiting out ctx.
		close(s.notify)
		s.notify = nil
	}
	if s.err == nil {
		s.err = ErrClosed
	}
	return err
}

// Package wal is the durability subsystem of the rank-serving daemon: a
// length-prefixed, CRC32-C-checksummed append-only log of durable records
// (graph ingests, edge-delta batches, removals, recompute runs, checkpoint
// markers) plus a snapshot store that periodically persists each registered
// graph — via the versioned snapshot framing in internal/graph — and
// truncates the log up to the covered position.
//
// # Record framing
//
// Every record is one frame (little endian):
//
//	length uint32  payload byte count
//	crc    uint32  CRC32-C of the payload
//	payload:
//	    lsn     uint64      log sequence number, strictly +1 per record
//	    type    uint8       RecordType
//	    metaLen uint32      caller metadata (JSON) byte count
//	    meta    metaLen × byte
//	    blob    (length − 13 − metaLen) × byte
//
// The log is a sequence of segment files named <firstLSN:%016x>.wal; a
// checkpoint rotates to a fresh segment and deletes segments whose every
// record is covered by the persisted snapshots, so "truncating up to the
// marker" never rewrites a file in place.
//
// # Crash semantics
//
// Appends write the frame and (under the default sync policy) fsync before
// returning, so an acknowledged record survives a crash. A crash mid-append
// can leave a torn final record: a frame whose bytes run out at end of log,
// or whose payload was only partially written (checksum mismatch at the
// very tail). Recovery truncates such a tail and continues — at most the
// one unacknowledged record is lost. Any invalid frame that is followed by
// more bytes cannot be a torn tail; recovery then fails closed with the
// exact file and offset rather than silently dropping acknowledged records.
//
// # One decoder, two policies
//
// Decoder is the only frame reader, for segment files and for the
// replication wire (internal/repl streams these exact frames over HTTP).
// On a stream it reports io.EOF between frames, ErrTorn when bytes run out
// mid-frame, and *CorruptionError for anything else, including a length or
// checksum failure: a header that arrived whole cannot be torn. Scan puts
// the disk's one extra rule on top — a frame failing its length or
// checksum check whose claimed end reaches end of file is a torn tail —
// because on disk a crash can leave exactly that. A bad LSN, record type or
// metadata length is corruption everywhere.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// RecordType tags one durable record. The WAL itself only interprets
// RecCheckpoint; every other payload is opaque caller metadata.
type RecordType uint8

// The durable record types of the serving daemon.
const (
	// RecAddGraph is a graph ingest (or replace): meta carries the name and
	// resolved engine options, blob the graph's binary serialization.
	RecAddGraph RecordType = 1
	// RecEdgeDelta is one applied batch of edge insertions/deletions.
	RecEdgeDelta RecordType = 2
	// RecRemoveGraph drops a graph from the registry.
	RecRemoveGraph RecordType = 3
	// RecRecompute is an engine re-run whose options replaced the graph's;
	// logging it keeps replayed option state (damping, method, ...) in sync
	// with what the live daemon served.
	RecRecompute RecordType = 4
	// RecCheckpoint marks a completed checkpoint: every graph's snapshot
	// was durably persisted covering all records up to the marker.
	RecCheckpoint RecordType = 5
	// RecRankResidual is a recompute whose blob carries only the signed
	// residual delta against the parent snapshot's rank vector (sparse
	// node/delta pairs) instead of the full vector; the writer guarantees
	// exact float32 reconstruction, falling back to RecRecompute when the
	// residual encoding is not smaller.
	RecRankResidual RecordType = 6
)

func (t RecordType) valid() bool { return t >= RecAddGraph && t <= RecRankResidual }

// Record is one decoded WAL record.
type Record struct {
	// LSN is the record's log sequence number; consecutive records differ
	// by exactly 1, which recovery verifies.
	LSN uint64
	// Type tags the payload.
	Type RecordType
	// Meta is the caller's metadata document (JSON in the serving layer).
	Meta []byte
	// Blob is the bulk payload (a binary graph for RecAddGraph), nil
	// otherwise.
	Blob []byte
	// Offset is the frame's start offset within its segment file (or
	// stream); the crash-point tests sweep truncations against these
	// boundaries.
	Offset int64
}

const (
	frameHeader = 8  // length + crc
	payloadMin  = 13 // lsn + type + metaLen
	// MaxRecordBytes caps one record's payload. Graph ingests carry the
	// whole upload, so the cap matches the daemon's largest default upload
	// (1 GiB) with framing headroom.
	MaxRecordBytes = 1<<30 + 1<<20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendFrame encodes one record frame onto dst.
func appendFrame(dst []byte, lsn uint64, typ RecordType, meta, blob []byte) []byte {
	plen := payloadMin + len(meta) + len(blob)
	start := len(dst)
	dst = append(dst, make([]byte, frameHeader)...)
	dst = binary.LittleEndian.AppendUint64(dst, lsn)
	dst = append(dst, byte(typ))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(meta)))
	dst = append(dst, meta...)
	dst = append(dst, blob...)
	payload := dst[start+frameHeader:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(plen))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, crcTable))
	return dst
}

// frameSize returns the on-disk byte count of a record with the given
// section lengths.
func frameSize(metaLen, blobLen int) int64 {
	return int64(frameHeader + payloadMin + metaLen + blobLen)
}

// EncodeFrame appends rec's canonical wire frame to dst and returns the
// extended slice. The encoding is byte-identical to the on-disk segment
// framing, so a record read from the log can be re-framed for the
// replication stream without touching its payload.
func EncodeFrame(dst []byte, rec *Record) []byte {
	return appendFrame(dst, rec.LSN, rec.Type, rec.Meta, rec.Blob)
}

// parsePayload decodes an already-checksummed frame payload of at least
// payloadMin bytes. Every error it returns is a *CorruptionError without
// Path or Offset: only the caller knows where the frame sits.
func parsePayload(payload []byte) (*Record, error) {
	rec := &Record{
		LSN:  binary.LittleEndian.Uint64(payload[0:]),
		Type: RecordType(payload[8]),
	}
	metaLen := int64(binary.LittleEndian.Uint32(payload[9:]))
	if !rec.Type.valid() {
		return nil, &CorruptionError{Reason: fmt.Sprintf("unknown record type %d", rec.Type)}
	}
	if metaLen > int64(len(payload)-payloadMin) {
		return nil, &CorruptionError{Reason: fmt.Sprintf("metadata length %d exceeds payload", metaLen)}
	}
	rec.Meta = payload[payloadMin : payloadMin+metaLen]
	if rest := payload[payloadMin+metaLen:]; len(rest) > 0 {
		rec.Blob = rest
	}
	return rec, nil
}

// CorruptionError reports an invalid frame that cannot be explained by
// bytes that never arrived. Recovery fails closed on it rather than dropping
// acknowledged records; a follower re-bootstraps.
type CorruptionError struct {
	Path   string // segment file, when known
	Offset int64  // byte offset of the bad frame
	Reason string
	// end is where a frame that failed its length or checksum check claimed
	// to end, 0 for any other damage. Scan calls such a frame reaching end
	// of file a torn tail.
	end int64
}

func (e *CorruptionError) Error() string {
	if e.Path == "" {
		return fmt.Sprintf("wal: corrupt record at offset %d: %s", e.Offset, e.Reason)
	}
	return fmt.Sprintf("wal: corrupt record in %s at offset %d: %s", e.Path, e.Offset, e.Reason)
}

// ErrTorn reports a stream that ended (or failed) partway through a frame:
// a crash mid-append on disk, a transport that died mid-record on the wire.
// Records decoded before the tear are intact.
var ErrTorn = errors.New("wal: stream torn mid-frame")

// Decoder reads frames from a stream: a segment file or a replication
// response body. It is the one frame reader; Scan adds the disk's rule.
type Decoder struct {
	r    *bufio.Reader
	want uint64 // next expected LSN; 0 disables the continuity check
	off  int64
	hdr  [frameHeader]byte // a local array would escape through io.ReadFull, one allocation per frame
}

// NewDecoder wraps r. A non-zero from arms the LSN continuity check: the
// first record must carry exactly that sequence number and successors must
// increment by one (tail streams). Zero accepts any order — bootstrap
// streams carry unrelated per-graph positions.
func NewDecoder(r io.Reader, from uint64) *Decoder {
	return &Decoder{r: bufio.NewReaderSize(r, 1<<16), want: from}
}

// Offset returns the number of stream bytes consumed by complete frames.
func (d *Decoder) Offset() int64 { return d.off }

// Next decodes one frame. It returns io.EOF at a clean end of stream
// (between frames), an error wrapping ErrTorn and its cause when the stream
// ends or fails mid-frame, and a *CorruptionError for a frame that must not
// be trusted: an insane length, a checksum mismatch, a bad type or metadata
// length, or a broken LSN sequence. A header arrived whole cannot be torn,
// so on a stream a lying length is corruption.
func (d *Decoder) Next() (*Record, error) {
	hdr := d.hdr[:]
	if _, err := io.ReadFull(d.r, hdr); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w (header at offset %d): %w", ErrTorn, d.off, err)
	}
	plen := int64(binary.LittleEndian.Uint32(hdr[0:]))
	end := d.off + frameHeader + plen
	if plen < payloadMin || plen > MaxRecordBytes {
		return nil, &CorruptionError{Offset: d.off, end: end,
			Reason: fmt.Sprintf("payload length %d outside [%d, %d]", plen, payloadMin, MaxRecordBytes)}
	}
	payload, err := readPayload(d.r, plen)
	if err != nil {
		return nil, fmt.Errorf("%w (payload at offset %d): %w", ErrTorn, d.off, err)
	}
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(hdr[4:]) {
		return nil, &CorruptionError{Offset: d.off, end: end, Reason: "checksum mismatch"}
	}
	rec, err := parsePayload(payload)
	if err != nil {
		err.(*CorruptionError).Offset = d.off
		return nil, err
	}
	if d.want != 0 {
		if rec.LSN != d.want {
			// A stale, repeated or skipped LSN would fork whoever applies it.
			return nil, &CorruptionError{Offset: d.off, Reason: fmt.Sprintf("LSN %d, want %d", rec.LSN, d.want)}
		}
		d.want++
	}
	rec.Offset = d.off
	d.off = end
	return rec, nil
}

// readPayload reads n bytes, allocating as they arrive: a payload of up to
// 1 MiB gets one allocation of its size, a longer one starts at 1 MiB and
// doubles, so a lying length costs at most twice the bytes present.
func readPayload(r io.Reader, n int64) ([]byte, error) {
	buf := make([]byte, min(n, 1<<20))
	for off := 0; ; {
		if _, err := io.ReadFull(r, buf[off:]); err != nil {
			return nil, err
		}
		if int64(len(buf)) == n {
			return buf, nil
		}
		grown := make([]byte, min(n, 2*int64(len(buf))))
		off = copy(grown, buf)
		buf = grown
	}
}

// ScanResult summarizes one segment scan.
type ScanResult struct {
	// Records decoded successfully.
	Records int
	// ValidBytes is the offset one past the last valid record: the
	// truncation point when the tail is torn.
	ValidBytes int64
	// Torn reports that trailing bytes after ValidBytes formed no complete
	// valid record (the crash-mid-append shape).
	Torn bool
	// NextLSN is the LSN the record after the last valid one must carry.
	NextLSN uint64
}

// ErrStop lets fn terminate a Scan or ReadFrom early without error.
var ErrStop = errors.New("wal: scan stopped")

// Scan runs a Decoder over one segment stream of the given size, calling fn
// for each record. firstLSN is the LSN the segment's first record must
// carry (0 skips the check on that record, for tooling over arbitrary
// streams); subsequent records must increment by exactly 1.
//
// The disk adds one rule to the decoder's: a frame that fails its length
// or checksum check and claims to reach end of file is a torn tail, as is a
// frame whose bytes run out there — the shapes a crash mid-append leaves.
// A torn tail is reported as Torn=true with ValidBytes at the cut; any
// other invalid frame fails with a *CorruptionError.
func Scan(r io.Reader, size int64, firstLSN uint64, fn func(*Record) error) (ScanResult, error) {
	res := ScanResult{NextLSN: firstLSN}
	dec := NewDecoder(io.LimitReader(r, size), firstLSN)
	var cerr *CorruptionError
	for {
		rec, err := dec.Next()
		switch {
		case err == io.EOF:
			return res, nil
		case errors.As(err, &cerr) && cerr.end >= size,
			errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
			res.Torn = true
			return res, nil
		case err != nil: // corruption, or a read that failed rather than ran out
			return res, err
		}
		if firstLSN == 0 && res.Records == 0 {
			dec.want = rec.LSN + 1 // continuity from the second record on
		}
		if fn != nil {
			if err := fn(rec); errors.Is(err, ErrStop) {
				res.ValidBytes = dec.Offset()
				return res, nil
			} else if err != nil {
				return res, err
			}
		}
		res.Records++
		res.ValidBytes = dec.Offset()
		res.NextLSN = rec.LSN + 1
	}
}

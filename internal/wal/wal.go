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
package wal

import (
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
	// Offset is the frame's start offset within its segment file; the
	// crash-point tests sweep truncations against these boundaries.
	Offset int64
}

const (
	frameHeader = 8  // length + crc
	payloadMin  = 13 // lsn + type + metaLen
	// MaxRecordBytes caps one record's payload. Graph ingests carry the
	// whole upload, so the cap matches the daemon's largest default upload
	// (1 GiB) with framing headroom.
	MaxRecordBytes = 1<<30 + 1<<20

	// FrameHeaderLen and MinPayloadLen expose the frame geometry for
	// consumers that decode frames outside a segment file — the replication
	// wire protocol streams the exact on-disk framing over HTTP.
	FrameHeaderLen = frameHeader
	MinPayloadLen  = payloadMin
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

// DecodePayload validates one frame payload (the bytes after the
// length+crc header) against wantCRC and decodes it into a Record. The
// returned record aliases payload. It cannot distinguish a torn tail from
// corruption — stream decoders that need that distinction (the wire
// decoder in internal/repl) make the call from framing context.
func DecodePayload(payload []byte, wantCRC uint32) (*Record, error) {
	if crc32.Checksum(payload, crcTable) != wantCRC {
		return nil, &CorruptionError{Reason: "checksum mismatch"}
	}
	return parsePayload(payload)
}

// parsePayload decodes an already-checksummed frame payload. Every error it
// returns is a *CorruptionError without Path or Offset: only the caller
// knows where the frame sits.
func parsePayload(payload []byte) (*Record, error) {
	if len(payload) < payloadMin {
		return nil, &CorruptionError{Reason: fmt.Sprintf("payload of %d bytes, want at least %d", len(payload), payloadMin)}
	}
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

// CorruptionError reports an invalid record that cannot be a torn tail:
// more bytes follow it, so a crash mid-append cannot explain the damage.
// Recovery fails closed on it rather than dropping acknowledged records.
type CorruptionError struct {
	Path   string // segment file, when known
	Offset int64  // byte offset of the bad frame
	Reason string
}

func (e *CorruptionError) Error() string {
	if e.Path == "" {
		return fmt.Sprintf("wal: corrupt record at offset %d: %s", e.Offset, e.Reason)
	}
	return fmt.Sprintf("wal: corrupt record in %s at offset %d: %s", e.Path, e.Offset, e.Reason)
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

// Scan decodes records from one segment stream of the given size, calling
// fn for each. firstLSN is the LSN the segment's first record must carry
// (0 skips the check, for tooling over arbitrary streams); subsequent
// records must increment by exactly 1.
//
// A malformed frame with nothing after it is reported as a torn tail
// (Torn=true, ValidBytes at the cut); a malformed frame with bytes
// following it is corruption and fails with a *CorruptionError. Allocation
// is bounded by the stream size, never by a lying length prefix.
func Scan(r io.Reader, size int64, firstLSN uint64, fn func(*Record) error) (ScanResult, error) {
	res := ScanResult{NextLSN: firstLSN}
	var off int64
	var hdr [frameHeader]byte
	wantLSN := firstLSN
	for off < size {
		torn := func(reason string) (ScanResult, error) {
			res.Torn = true
			res.ValidBytes = off
			return res, nil
		}
		corrupt := func(reason string) (ScanResult, error) {
			res.ValidBytes = off
			return res, &CorruptionError{Offset: off, Reason: reason}
		}
		if size-off < frameHeader {
			return torn("short frame header")
		}
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return res, fmt.Errorf("wal: reading frame header at %d: %w", off, err)
		}
		plen := int64(binary.LittleEndian.Uint32(hdr[0:]))
		wantCRC := binary.LittleEndian.Uint32(hdr[4:])
		end := off + frameHeader + plen
		switch {
		case plen < payloadMin || plen > MaxRecordBytes:
			// An insane length that still claims bytes past EOF is the torn
			// shape; one with real bytes after it is corruption.
			if end >= size {
				return torn("bad payload length")
			}
			return corrupt(fmt.Sprintf("payload length %d outside [%d, %d]", plen, payloadMin, MaxRecordBytes))
		case end > size:
			return torn("payload extends past end of log")
		}
		// plen is bounded by the remaining stream, so this allocation grows
		// with bytes actually present.
		payload := make([]byte, plen)
		if _, err := io.ReadFull(r, payload); err != nil {
			return res, fmt.Errorf("wal: reading payload at %d: %w", off, err)
		}
		if crc32.Checksum(payload, crcTable) != wantCRC {
			if end == size {
				return torn("checksum mismatch at tail")
			}
			return corrupt("checksum mismatch")
		}
		rec, err := parsePayload(payload)
		if err != nil {
			return corrupt(err.(*CorruptionError).Reason)
		}
		rec.Offset = off
		if wantLSN != 0 && rec.LSN != wantLSN {
			return corrupt(fmt.Sprintf("LSN %d, want %d", rec.LSN, wantLSN))
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				if errors.Is(err, ErrStop) {
					res.ValidBytes = end
					return res, nil
				}
				return res, err
			}
		}
		off = end
		res.Records++
		res.ValidBytes = off
		wantLSN = rec.LSN + 1
		res.NextLSN = wantLSN
	}
	return res, nil
}

package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"
)

// flip returns b with mask XORed into byte pos.
func flip(b []byte, pos int, mask byte) []byte {
	b = append([]byte(nil), b...)
	b[pos] ^= mask
	return b
}

type outcome int

const (
	clean outcome = iota
	torn
	corrupt
)

func (o outcome) String() string { return [...]string{"clean", "torn", "corrupt"}[o] }

// verdict is what one policy makes of a stream: how many records it
// delivered before it stopped, and why it stopped.
type verdict struct {
	records int
	outcome outcome
}

func (v verdict) String() string { return fmt.Sprintf("%d records, %v", v.records, v.outcome) }

// diskVerdict runs the stream through Scan, the recovery path.
func diskVerdict(t *testing.T, stream []byte, from uint64) (verdict, int64) {
	t.Helper()
	res, err := Scan(bytes.NewReader(stream), int64(len(stream)), from, nil)
	var cerr *CorruptionError
	switch {
	case err == nil && res.Torn:
		return verdict{res.Records, torn}, res.ValidBytes
	case err == nil:
		return verdict{res.Records, clean}, res.ValidBytes
	case errors.As(err, &cerr):
		return verdict{res.Records, corrupt}, res.ValidBytes
	}
	t.Fatalf("disk: error is neither torn nor corruption: %v", err)
	return verdict{}, 0
}

// wireVerdict runs the stream through a Decoder, the follower's path.
func wireVerdict(t *testing.T, stream []byte, from uint64) (verdict, int64) {
	t.Helper()
	d := NewDecoder(bytes.NewReader(stream), from)
	for n := 0; ; n++ {
		rec, err := d.Next()
		var cerr *CorruptionError
		switch {
		case err == nil:
			if !rec.Type.valid() {
				t.Fatalf("wire: decoded invalid record type %d", rec.Type)
			}
			continue
		case err == io.EOF:
			return verdict{n, clean}, d.Offset()
		case errors.Is(err, ErrTorn) && !errors.As(err, &cerr):
			return verdict{n, torn}, d.Offset()
		case errors.As(err, &cerr) && !errors.Is(err, ErrTorn):
			return verdict{n, corrupt}, d.Offset()
		}
		t.Fatalf("wire: error is neither torn nor corruption: %v", err)
	}
}

// TestFrameDamage is the one table of damaged streams, each run through
// both policies of the one frame decoder: Scan (a segment file at
// recovery) and Decoder (a follower's replication stream). The disk calls a
// frame torn when its claimed extent reaches end of file; on the wire a
// header that arrived whole cannot be torn. Neither path may allocate
// against a length prefix the stream does not back with bytes.
func TestFrameDamage(t *testing.T) {
	two := fuzzSeedLog(1, 2)
	firstLen := len(fuzzSeedLog(1))
	// A whole header claiming 1 GiB, followed by 3 payload bytes: 11 bytes.
	gib := []byte{0, 0, 0, 0x40, 0, 0, 0, 0, 1, 2, 3}
	// A frame whose checksum holds but whose type byte names no record.
	badType := appendFrame(nil, 2, RecordType(99), nil, nil)

	type row struct {
		name       string
		stream     []byte
		from       uint64 // Scan's firstLSN and the decoder's from
		disk, wire verdict
	}
	rows := []row{
		{"clean stream", fuzzSeedLog(5, 6, 7), 5, verdict{3, clean}, verdict{3, clean}},
		{"empty stream", nil, 1, verdict{0, clean}, verdict{0, clean}},
		{"tail bitflip in the LSN (0x01)", flip(two, firstLen+frameHeader+3, 0x01), 1, verdict{1, torn}, verdict{1, corrupt}},
		{"tail bitflip in the LSN (0x80)", flip(two, firstLen+frameHeader+3, 0x80), 1, verdict{1, torn}, verdict{1, corrupt}},
		{"mid-stream bitflip", flip(fuzzSeedLog(1, 2, 3), firstLen+frameHeader+3, 0x01), 1, verdict{1, corrupt}, verdict{1, corrupt}},
		{"lying length alone (4 GiB)", []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}, 1, verdict{0, torn}, verdict{0, corrupt}},
		{"lying length after a record (1 GiB - 1)", append(fuzzSeedLog(1), 0xff, 0xff, 0xff, 0x3f, 0, 0, 0, 0), 1, verdict{1, torn}, verdict{1, torn}},
		{"11 bytes claiming 1 GiB", gib, 1, verdict{0, torn}, verdict{0, torn}},
		{"short length at the tail", append(fuzzSeedLog(1), 5, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4, 5), 1, verdict{1, torn}, verdict{1, corrupt}},
		{"short length mid-stream", append(append(fuzzSeedLog(1), 5, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4, 5), fuzzSeedLog(2)...), 1, verdict{1, corrupt}, verdict{1, corrupt}},
		{"unknown record type at the tail", append(fuzzSeedLog(1), badType...), 1, verdict{1, corrupt}, verdict{1, corrupt}},
		{"replayed LSN", fuzzSeedLog(4, 4), 4, verdict{1, corrupt}, verdict{1, corrupt}},
		{"LSN gap", fuzzSeedLog(4, 9), 4, verdict{1, corrupt}, verdict{1, corrupt}},
		{"backward LSN", fuzzSeedLog(4, 3), 4, verdict{1, corrupt}, verdict{1, corrupt}},
		{"stale first record", fuzzSeedLog(3), 4, verdict{0, corrupt}, verdict{0, corrupt}},
		// With from = 0 the decoder checks no LSN (bootstrap frames carry
		// unrelated per-graph positions); Scan still requires the records
		// after the first to follow it.
		{"unarmed continuity", fuzzSeedLog(9, 2, 2), 0, verdict{1, corrupt}, verdict{3, clean}},
	}
	for cut := firstLen + 1; cut < len(two); cut++ {
		rows = append(rows, row{fmt.Sprintf("cut %d bytes into the second frame", cut-firstLen),
			two[:cut], 1, verdict{1, torn}, verdict{1, torn}})
	}

	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			for _, path := range []struct {
				name string
				run  func(*testing.T, []byte, uint64) (verdict, int64)
				want verdict
			}{{"disk", diskVerdict, r.disk}, {"wire", wireVerdict, r.wire}} {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				got, valid := path.run(t, r.stream, r.from)
				runtime.ReadMemStats(&after)
				if got != path.want {
					t.Errorf("%s: %v, want %v", path.name, got, path.want)
				}
				// Whatever the verdict, the good prefix ends where the last
				// delivered record did.
				if want := int64(frameOffset(r.stream, got.records)); valid != want {
					t.Errorf("%s: valid prefix %d bytes, want %d", path.name, valid, want)
				}
				if grew := after.TotalAlloc - before.TotalAlloc; grew >= 2<<20 {
					t.Errorf("%s: allocated %d bytes for a %d-byte stream", path.name, grew, len(r.stream))
				}
			}
		})
	}
}

// frameOffset returns where the n-th frame of a stream starts, reading
// only the length prefixes of the n frames before it.
func frameOffset(stream []byte, n int) int {
	off := 0
	for range n {
		off += frameHeader + int(binary.LittleEndian.Uint32(stream[off:]))
	}
	return off
}

// BenchmarkDecodeFrames decodes a stream of edge-delta frames the size the
// serving daemon logs per mutation (~850 kB) under both policies: Scan over
// a segment and the replication Decoder.
func BenchmarkDecodeFrames(b *testing.B) {
	const records, blobBytes = 16, 850_000
	meta := []byte(`{"name":"g","parent":1}`)
	blob := bytes.Repeat([]byte{0x5a}, blobBytes)
	var stream []byte
	for lsn := uint64(1); lsn <= records; lsn++ {
		stream = appendFrame(stream, lsn, RecEdgeDelta, meta, blob)
	}
	b.Run("disk", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(stream)))
		for b.Loop() {
			res, err := Scan(bytes.NewReader(stream), int64(len(stream)), 1, nil)
			if err != nil || res.Records != records {
				b.Fatalf("scan: %+v, %v", res, err)
			}
		}
	})
	b.Run("wire", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(stream)))
		for b.Loop() {
			d := NewDecoder(bytes.NewReader(stream), 1)
			n := 0
			for {
				if _, err := d.Next(); err == io.EOF {
					break
				} else if err != nil {
					b.Fatal(err)
				}
				n++
			}
			if n != records {
				b.Fatalf("decoded %d records, want %d", n, records)
			}
		}
	})
}

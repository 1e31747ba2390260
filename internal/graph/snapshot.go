package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
)

// Versioned snapshot framing (little endian): a durable container for one
// graph together with the rank vector computed on it and caller-defined
// metadata. The durability layer (internal/wal) persists one of these per
// registered graph at every checkpoint; warm recovery loads it back and
// replays only the log tail on top.
//
//	magic    [8]byte  "PCPMSNP1"
//	version  uint32   framing version, currently 1
//	metaLen  uint32   bytes of caller metadata
//	ranksN   uint64   rank vector length (must equal the graph's node count)
//	graphLen uint64   exact byte length of the embedded WriteBinary stream
//	meta     metaLen × byte
//	ranks    ranksN × float32
//	graph    graphLen × byte (the existing binary graph format)
//	crc      uint32   CRC32-C over everything between magic and crc
//
// The trailing checksum covers every field after the magic, so a torn or
// bit-flipped snapshot is detected as a unit; the version field lets the
// framing evolve without silently misreading old files. Like ReadBinary,
// the reader never allocates proportionally to a count the header merely
// claims — arrays grow only as the corresponding bytes actually arrive.
var snapshotMagic = [8]byte{'P', 'C', 'P', 'M', 'S', 'N', 'P', '1'}

// snapshotVersion is the current framing version written by WriteSnapshot.
const snapshotVersion = 1

// maxSnapshotMeta bounds the metadata section; real metadata is a small
// JSON document, so anything past this is a lying header.
const maxSnapshotMeta = 16 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Snapshot bundles one graph with the rank vector computed on it and
// opaque caller metadata (the serving layer stores engine options, the
// snapshot's WAL position, and its accumulated repair drift there).
type Snapshot struct {
	Graph *Graph
	Ranks []float32
	Meta  []byte
}

// binaryLen returns the exact byte length WriteBinary produces for g; the
// snapshot framing records it so the reader can bound and checksum the
// embedded graph stream without buffering it.
func binaryLen(g *Graph) uint64 {
	n := uint64(8 + 24) // magic + (n, m, flags)
	n += uint64(g.n+1) * 8
	n += uint64(g.m) * 4
	if g.Weighted() {
		n += uint64(g.m) * 4
	}
	return n
}

// WriteSnapshot serializes s in the versioned snapshot framing.
func WriteSnapshot(w io.Writer, s *Snapshot) error {
	if s.Graph == nil {
		return fmt.Errorf("graph: snapshot has no graph")
	}
	if len(s.Ranks) != s.Graph.NumNodes() {
		return fmt.Errorf("graph: snapshot ranks length %d != %d nodes",
			len(s.Ranks), s.Graph.NumNodes())
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(snapshotMagic[:]); err != nil {
		return err
	}
	h := crc32.New(castagnoli)
	tee := io.MultiWriter(bw, h)

	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:], snapshotVersion)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(s.Meta)))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(s.Ranks)))
	binary.LittleEndian.PutUint64(hdr[16:], binaryLen(s.Graph))
	if _, err := tee.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := tee.Write(s.Meta); err != nil {
		return err
	}
	rbuf := make([]byte, 4*(1<<16))
	for off := 0; off < len(s.Ranks); {
		c := min(len(s.Ranks)-off, 1<<16)
		for i := 0; i < c; i++ {
			binary.LittleEndian.PutUint32(rbuf[4*i:], math.Float32bits(s.Ranks[off+i]))
		}
		if _, err := tee.Write(rbuf[:4*c]); err != nil {
			return err
		}
		off += c
	}
	if err := WriteBinary(tee, s.Graph); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], h.Sum32())
	if _, err := bw.Write(crc[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// hashReader tees everything read through a CRC state.
type hashReader struct {
	r io.Reader
	h hash.Hash32
}

func (hr *hashReader) Read(p []byte) (int, error) {
	n, err := hr.r.Read(p)
	if n > 0 {
		hr.h.Write(p[:n])
	}
	return n, err
}

// ReadSnapshot deserializes a snapshot written by WriteSnapshot, verifying
// the framing version, the embedded graph's structural validity, and the
// trailing checksum. Untrusted or torn files are rejected with an error —
// never a panic — and allocation grows with bytes actually read, so a
// crafted header cannot OOM the recovering daemon.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<20)
	}
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("graph: reading snapshot magic: %w", err)
	}
	if magic != snapshotMagic {
		return nil, fmt.Errorf("graph: bad snapshot magic %q", magic[:])
	}
	hr := &hashReader{r: br, h: crc32.New(castagnoli)}

	var hdr [24]byte
	if _, err := io.ReadFull(hr, hdr[:]); err != nil {
		return nil, fmt.Errorf("graph: reading snapshot header: %w", err)
	}
	version := binary.LittleEndian.Uint32(hdr[0:])
	metaLen := binary.LittleEndian.Uint32(hdr[4:])
	ranksN := binary.LittleEndian.Uint64(hdr[8:])
	graphLen := binary.LittleEndian.Uint64(hdr[16:])
	if version != snapshotVersion {
		return nil, fmt.Errorf("graph: unsupported snapshot version %d (want %d)", version, snapshotVersion)
	}
	if metaLen > maxSnapshotMeta {
		return nil, fmt.Errorf("graph: snapshot metadata %d bytes exceeds %d", metaLen, maxSnapshotMeta)
	}
	if ranksN > MaxNodes {
		return nil, fmt.Errorf("graph: snapshot rank count %d exceeds 2^31", ranksN)
	}

	meta, err := readChunked(hr, int64(metaLen), decodeBytes)
	if err != nil {
		return nil, fmt.Errorf("graph: reading snapshot metadata: %w", err)
	}
	ranks, err := readChunked(hr, int64(ranksN), decodeF32)
	if err != nil {
		return nil, fmt.Errorf("graph: reading snapshot ranks: %w", err)
	}

	// The graph section is byte-bounded by the header so the checksum can
	// cover it exactly; ReadBinary consumes precisely its own framing, and
	// the declared length must agree with the graph actually parsed.
	lr := io.LimitReader(hr, int64(graphLen))
	g, err := ReadBinary(bufio.NewReaderSize(lr, 1<<20))
	if err != nil {
		return nil, fmt.Errorf("graph: reading snapshot graph: %w", err)
	}
	if drained, err := io.Copy(io.Discard, lr); err != nil {
		return nil, fmt.Errorf("graph: reading snapshot graph: %w", err)
	} else if drained > 0 || binaryLen(g) != graphLen {
		return nil, fmt.Errorf("graph: snapshot graph length %d does not match contents", graphLen)
	}
	if uint64(g.NumNodes()) != ranksN {
		return nil, fmt.Errorf("graph: snapshot ranks length %d != %d nodes", ranksN, g.NumNodes())
	}

	sum := hr.h.Sum32()
	var crc [4]byte
	if _, err := io.ReadFull(br, crc[:]); err != nil {
		return nil, fmt.Errorf("graph: reading snapshot checksum: %w", err)
	}
	if want := binary.LittleEndian.Uint32(crc[:]); want != sum {
		return nil, fmt.Errorf("graph: snapshot checksum mismatch: file %08x, computed %08x", want, sum)
	}
	return &Snapshot{Graph: g, Ranks: ranks, Meta: meta}, nil
}

package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
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
	if _, err := w.Write(snapshotMagic[:]); err != nil {
		return err
	}
	h := crc32.New(castagnoli)
	bw := newBlockWriter(io.MultiWriter(w, h), s.Graph)
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:], snapshotVersion)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(s.Meta)))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(s.Ranks)))
	binary.LittleEndian.PutUint64(hdr[16:], binaryLen(s.Graph))
	bw.bytes(hdr[:])
	bw.bytes(s.Meta)
	bw.f32s(s.Ranks)
	bw.binary(s.Graph)
	if err := bw.flush(); err != nil {
		return err
	}
	_, err := w.Write(binary.LittleEndian.AppendUint32(nil, h.Sum32()))
	return err
}

// EncodeSnapshot returns WriteSnapshot's bytes for s, in one buffer of
// their exact length.
func EncodeSnapshot(s *Snapshot) ([]byte, error) {
	var size uint64
	if s.Graph != nil {
		size = 8 + 24 + uint64(len(s.Meta)) + 4*uint64(len(s.Ranks)) + binaryLen(s.Graph) + 4
	}
	buf := bytes.NewBuffer(make([]byte, 0, size))
	if err := WriteSnapshot(buf, s); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
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
// never a panic — and allocation is bounded by the bytes the input holds,
// so a crafted header cannot OOM the recovering daemon. It reads through one
// scratch buffer, so r needs no buffering of its own. When r can tell how
// many bytes it holds (see inputSize), every array is allocated once, for
// the fewer of the values its header claims and the values those bytes can
// hold; otherwise each array grows as its bytes arrive.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("graph: reading snapshot magic: %w", err)
	}
	if magic != snapshotMagic {
		return nil, fmt.Errorf("graph: bad snapshot magic %q", magic[:])
	}
	hr := &hashReader{r: r, h: crc32.New(castagnoli)}

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

	br := &blockReader{r: hr, left: inputSize(r)}
	meta, err := readBlocks(br, int64(metaLen), decodeBytes)
	if err != nil {
		return nil, fmt.Errorf("graph: reading snapshot metadata: %w", err)
	}
	ranks, err := readBlocks(br, int64(ranksN), decodeF32)
	if err != nil {
		return nil, fmt.Errorf("graph: reading snapshot ranks: %w", err)
	}

	// The graph section is byte-bounded by the header so the checksum can
	// cover it exactly; the binary reader consumes precisely its own
	// framing, and the declared length must agree with the graph parsed.
	lr := io.LimitReader(hr, int64(graphLen))
	br.r = lr
	g, err := br.binary()
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
	if _, err := io.ReadFull(r, crc[:]); err != nil {
		return nil, fmt.Errorf("graph: reading snapshot checksum: %w", err)
	}
	if want := binary.LittleEndian.Uint32(crc[:]); want != sum {
		return nil, fmt.Errorf("graph: snapshot checksum mismatch: file %08x, computed %08x", want, sum)
	}
	return &Snapshot{Graph: g, Ranks: ranks, Meta: meta}, nil
}

package shard

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/graph"
)

// Shard payload wire format (one row block and what its solver needs):
//
//	magic   [8]byte  "PCPMSHD1"
//	metaLen uint32   little endian, capped at maxMetaBytes
//	meta    metaLen bytes of PayloadMeta JSON
//	graph   row-block sub-graph in graph.WriteBinary framing
//	degs    n × uint32 little endian — full-graph out-degrees
//
// The sub-graph keeps the full n-vertex ID space (graph.RowBlock), so no ID
// remapping travels on the wire; the out-degrees must be global because a
// block's in-edges originate anywhere.
var payloadMagic = [8]byte{'P', 'C', 'P', 'M', 'S', 'H', 'D', '1'}

const maxMetaBytes = 1 << 20

// PayloadMeta describes one block's place in an assignment.
type PayloadMeta struct {
	// Graph names the graph the block was cut from.
	Graph string `json:"graph"`
	// Shard is this block's index into Ranges and Peers.
	Shard int `json:"shard"`
	// Ranges is the full assignment, shard index → owned row block.
	Ranges Assignment `json:"ranges"`
	// Peers holds one address per block, indexed by shard (self included).
	Peers []string `json:"peers"`
	// N and M describe the FULL graph (M is the total edge count across all
	// blocks, reported in stats; the payload's sub-graph carries only the
	// block's edges).
	N int   `json:"n"`
	M int64 `json:"m"`
}

// Payload is a decoded shard payload.
type Payload struct {
	Meta PayloadMeta
	Sub  *graph.Graph // row-block sub-graph over the full ID space
	Degs []uint32     // global out-degrees, len N
}

// WritePayload encodes a shard payload. degs must be the full graph's
// out-degrees; out-degrees above 2^32-1 do not fit the wire format and are
// rejected (unreachable for any graph within the 2^31 node ID space unless
// multigraph edges push a single source past 4B out-edges).
func WritePayload(w io.Writer, meta PayloadMeta, sub *graph.Graph, degs []uint32) error {
	mj, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("shard: encoding payload meta: %w", err)
	}
	if len(mj) > maxMetaBytes {
		return fmt.Errorf("shard: payload meta too large (%d bytes)", len(mj))
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(payloadMagic[:]); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(mj))); err != nil {
		return err
	}
	if _, err := bw.Write(mj); err != nil {
		return err
	}
	if err := graph.WriteBinary(bw, sub); err != nil {
		return err
	}
	buf := make([]byte, 4)
	for _, d := range degs {
		binary.LittleEndian.PutUint32(buf, d)
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// DegreesOf extracts a graph's out-degrees in payload form, erroring if any
// single degree overflows uint32.
func DegreesOf(g *graph.Graph) ([]uint32, error) {
	n := g.NumNodes()
	degs := make([]uint32, n)
	for v := 0; v < n; v++ {
		d := g.OutDegree(graph.NodeID(v))
		if d > math.MaxUint32 {
			return nil, fmt.Errorf("shard: out-degree of node %d (%d) overflows payload format", v, d)
		}
		degs[v] = uint32(d)
	}
	return degs, nil
}

// ReadPayload decodes and validates a shard payload. Like graph.ReadBinary
// it treats the stream as untrusted: allocations grow with bytes actually
// read, the embedded sub-graph is fully validated, and the meta must be
// consistent (assignment covers [0, N), shard index in range, one peer per
// range, sub-graph edges confined to the owned block).
func ReadPayload(r io.Reader) (*Payload, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("shard: reading payload magic: %w", err)
	}
	if magic != payloadMagic {
		return nil, fmt.Errorf("shard: bad payload magic %q", magic[:])
	}
	var metaLen uint32
	if err := binary.Read(br, binary.LittleEndian, &metaLen); err != nil {
		return nil, fmt.Errorf("shard: reading meta length: %w", err)
	}
	if metaLen == 0 || metaLen > maxMetaBytes {
		return nil, fmt.Errorf("shard: meta length %d out of range", metaLen)
	}
	mj := make([]byte, metaLen)
	if _, err := io.ReadFull(br, mj); err != nil {
		return nil, fmt.Errorf("shard: reading meta: %w", err)
	}
	var meta PayloadMeta
	if err := json.Unmarshal(mj, &meta); err != nil {
		return nil, fmt.Errorf("shard: decoding meta: %w", err)
	}
	sub, err := graph.ReadBinary(br)
	if err != nil {
		return nil, fmt.Errorf("shard: decoding sub-graph: %w", err)
	}
	if sub.NumNodes() != meta.N {
		return nil, fmt.Errorf("shard: sub-graph has %d nodes, meta says %d", sub.NumNodes(), meta.N)
	}
	if meta.Graph == "" {
		return nil, fmt.Errorf("shard: payload missing graph name")
	}
	if err := meta.Ranges.Validate(meta.N); err != nil {
		return nil, err
	}
	if meta.Shard < 0 || meta.Shard >= len(meta.Ranges) {
		return nil, fmt.Errorf("shard: shard index %d out of range for %d ranges", meta.Shard, len(meta.Ranges))
	}
	if len(meta.Peers) != len(meta.Ranges) {
		return nil, fmt.Errorf("shard: %d peers for %d ranges", len(meta.Peers), len(meta.Ranges))
	}
	own := meta.Ranges[meta.Shard]
	for _, ch := range sub.Chunks() {
		for _, u := range ch.Adj {
			if u < own.Lo || u >= own.Hi {
				return nil, fmt.Errorf("shard: sub-graph has in-edges at node %d outside owned block [%d, %d)", u, own.Lo, own.Hi)
			}
		}
	}
	degs, err := readU32Count(br, int64(meta.N))
	if err != nil {
		return nil, fmt.Errorf("shard: reading degrees: %w", err)
	}
	return &Payload{Meta: meta, Sub: sub, Degs: degs}, nil
}

// readU32Count decodes count little-endian uint32s, growing with actual
// input like graph's chunked readers.
func readU32Count(r io.Reader, count int64) ([]uint32, error) {
	const chunk = 1 << 16
	capHint := count
	if capHint > chunk {
		capHint = chunk
	}
	out := make([]uint32, 0, capHint)
	buf := make([]byte, 4*chunk)
	for remaining := count; remaining > 0; {
		c := remaining
		if c > chunk {
			c = chunk
		}
		if _, err := io.ReadFull(r, buf[:4*c]); err != nil {
			return nil, err
		}
		for i := int64(0); i < c; i++ {
			out = append(out, binary.LittleEndian.Uint32(buf[4*i:]))
		}
		remaining -= c
	}
	return out, nil
}

package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Edge-list text format: one "src dst [weight]" triple per line, whitespace
// separated; lines starting with '#' or '%' are comments. Node IDs must be
// decimal and < MaxNodes. The node count is max(ID)+1 unless a larger count
// is given explicitly via ReadEdgeListN.

// ReadEdgeList parses a text edge list and builds a graph whose node count
// is one more than the largest ID seen.
func ReadEdgeList(r io.Reader, opts BuildOptions) (*Graph, error) {
	return ReadEdgeListN(r, -1, opts)
}

// ReadEdgeListN parses a text edge list with an explicit node count n.
// Pass n < 0 to infer the count from the largest node ID.
func ReadEdgeListN(r io.Reader, n int, opts BuildOptions) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var edges []Edge
	weighted := false
	maxID := int64(-1)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 && len(fields) != 3 {
			return nil, fmt.Errorf("graph: line %d: want 2 or 3 fields, got %d", lineNo, len(fields))
		}
		src, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad source %q: %v", lineNo, fields[0], err)
		}
		dst, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad destination %q: %v", lineNo, fields[1], err)
		}
		if src >= MaxNodes || dst >= MaxNodes {
			return nil, fmt.Errorf("graph: line %d: node ID exceeds 2^31-1", lineNo)
		}
		e := Edge{Src: NodeID(src), Dst: NodeID(dst), W: 1}
		if len(fields) == 3 {
			w, err := strconv.ParseFloat(fields[2], 32)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad weight %q: %v", lineNo, fields[2], err)
			}
			e.W = float32(w)
			weighted = true
		}
		if int64(e.Src) > maxID {
			maxID = int64(e.Src)
		}
		if int64(e.Dst) > maxID {
			maxID = int64(e.Dst)
		}
		edges = append(edges, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	if n < 0 {
		n = int(maxID + 1)
	} else if maxID >= int64(n) {
		return nil, fmt.Errorf("graph: edge references node %d but n=%d", maxID, n)
	}
	return FromEdges(n, edges, weighted, opts)
}

// WriteEdgeList writes the graph as a text edge list, including weights for
// weighted graphs.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# nodes=%d edges=%d weighted=%v\n", g.NumNodes(), g.NumEdges(), g.Weighted())
	for v := 0; v < g.n; v++ {
		adj := g.OutNeighbors(NodeID(v))
		ws := g.OutWeights(NodeID(v))
		for i, u := range adj {
			var err error
			if ws != nil {
				_, err = fmt.Fprintf(bw, "%d %d %g\n", v, u, ws[i])
			} else {
				_, err = fmt.Fprintf(bw, "%d %d\n", v, u)
			}
			if err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Binary format (little endian):
//
//	magic   [8]byte  "PCPMGRF1"
//	n       uint64
//	m       uint64
//	flags   uint64   bit 0: weighted
//	outOff  (n+1) × uint64
//	outAdj  m × uint32
//	outW    m × float32 (only if weighted)
var binaryMagic = [8]byte{'P', 'C', 'P', 'M', 'G', 'R', 'F', '1'}

// SniffBinary reports whether head (the first bytes of a stream, at least 8)
// starts with the binary graph format's magic. Callers use it to dispatch
// between ReadBinary and ReadEdgeList without trusting file extensions.
func SniffBinary(head []byte) bool {
	return len(head) >= len(binaryMagic) && [8]byte(head[:8]) == binaryMagic
}

// WriteBinary serializes the graph in the repo's binary format.
func WriteBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	var flags uint64
	if g.Weighted() {
		flags |= 1
	}
	hdr := []uint64{uint64(g.n), uint64(g.m), flags}
	for _, h := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
			return err
		}
	}
	for _, o := range g.outOff {
		if err := binary.Write(bw, binary.LittleEndian, uint64(o)); err != nil {
			return err
		}
	}
	if err := writeU32Slice(bw, g.outAdj); err != nil {
		return err
	}
	if g.Weighted() {
		if err := binary.Write(bw, binary.LittleEndian, g.outW); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary deserializes a graph written by WriteBinary. The header's
// claimed node and edge counts are not trusted for allocation: arrays grow
// only as the corresponding bytes actually arrive, so a crafted header on a
// short stream cannot force a huge upfront allocation (the input may be an
// untrusted HTTP upload).
func ReadBinary(r io.Reader) (*Graph, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<20)
	}
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("graph: reading magic: %w", err)
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("graph: bad magic %q", magic[:])
	}
	var n, m, flags uint64
	for _, p := range []*uint64{&n, &m, &flags} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("graph: reading header: %w", err)
		}
	}
	if n > MaxNodes {
		return nil, fmt.Errorf("graph: node count %d exceeds 2^31", n)
	}
	if m > uint64(1)<<62 {
		return nil, fmt.Errorf("graph: edge count %d overflows", m)
	}
	g := &Graph{n: int(n), m: int64(m)}
	var err error
	if g.outOff, err = readI64Grow(br, int64(n)+1); err != nil {
		return nil, fmt.Errorf("graph: reading offsets: %w", err)
	}
	if g.outAdj, err = readU32Grow(br, int64(m)); err != nil {
		return nil, fmt.Errorf("graph: reading adjacency: %w", err)
	}
	if flags&1 != 0 {
		if g.outW, err = readF32Grow(br, int64(m)); err != nil {
			return nil, fmt.Errorf("graph: reading weights: %w", err)
		}
	}
	// The arrays are untrusted input (uploads reach this reader), and every
	// consumer indexes by them: a crafted offset or adjacency entry must be
	// a 400 here, not a panic later.
	if err := g.validateCSR(); err != nil {
		return nil, fmt.Errorf("graph: loaded graph invalid: %w", err)
	}
	return g, nil
}

func writeU32Slice(w io.Writer, s []uint32) error {
	const chunk = 1 << 16
	buf := make([]byte, 4*chunk)
	for len(s) > 0 {
		c := len(s)
		if c > chunk {
			c = chunk
		}
		for i := 0; i < c; i++ {
			binary.LittleEndian.PutUint32(buf[4*i:], s[i])
		}
		if _, err := w.Write(buf[:4*c]); err != nil {
			return err
		}
		s = s[c:]
	}
	return nil
}

// The chunked readers below decode `count` little-endian values while
// allocating in proportion to bytes actually read, never to the count a
// header merely claims.

func readI64Grow(r io.Reader, count int64) ([]int64, error) {
	const chunk = 1 << 16
	out := make([]int64, 0, min(count, chunk))
	buf := make([]byte, 8*chunk)
	for remaining := count; remaining > 0; {
		c := min(remaining, chunk)
		if _, err := io.ReadFull(r, buf[:8*c]); err != nil {
			return nil, err
		}
		for i := int64(0); i < c; i++ {
			out = append(out, int64(binary.LittleEndian.Uint64(buf[8*i:])))
		}
		remaining -= c
	}
	return out, nil
}

func readU32Grow(r io.Reader, count int64) ([]uint32, error) {
	const chunk = 1 << 16
	out := make([]uint32, 0, min(count, chunk))
	buf := make([]byte, 4*chunk)
	for remaining := count; remaining > 0; {
		c := min(remaining, chunk)
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

func readF32Grow(r io.Reader, count int64) ([]float32, error) {
	const chunk = 1 << 16
	out := make([]float32, 0, min(count, chunk))
	buf := make([]byte, 4*chunk)
	for remaining := count; remaining > 0; {
		c := min(remaining, chunk)
		if _, err := io.ReadFull(r, buf[:4*c]); err != nil {
			return nil, err
		}
		for i := int64(0); i < c; i++ {
			out = append(out, math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:])))
		}
		remaining -= c
	}
	return out, nil
}

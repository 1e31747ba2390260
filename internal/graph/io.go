package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"io/fs"
	"math"
	"strconv"
	"strings"
	"unsafe"
)

// Edge-list text format: one "src dst [weight]" triple per line, whitespace
// separated; lines starting with '#' or '%' are comments. Node IDs must be
// decimal and < MaxNodes. The node count is max(ID)+1 unless a larger count
// is given explicitly via ReadEdgeListN.

// ReadEdgeList parses a text edge list and builds a graph whose node count
// is one more than the largest ID seen. That count may not exceed the number
// of bytes read: the input is untrusted (graph uploads), and without the
// bound the ten bytes "0 10000000" would allocate ten million nodes.
func ReadEdgeList(r io.Reader, opts BuildOptions) (*Graph, error) {
	return ReadEdgeListN(r, -1, opts)
}

// ReadEdgeListN parses a text edge list with an explicit node count n.
// Pass n < 0 to infer the count from the largest node ID.
func ReadEdgeListN(r io.Reader, n int, opts BuildOptions) (*Graph, error) {
	cr := &countingReader{r: r}
	sc := bufio.NewScanner(cr)
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
		if maxID+1 > cr.n {
			return nil, fmt.Errorf("graph: node ID %d implies %d nodes, more than the %d input bytes", maxID, maxID+1, cr.n)
		}
		n = int(maxID + 1)
	} else if maxID >= int64(n) {
		return nil, fmt.Errorf("graph: edge references node %d but n=%d", maxID, n)
	}
	return FromEdges(n, edges, weighted, opts)
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	k, err := c.r.Read(p)
	c.n += int64(k)
	return k, err
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
	bw := newBlockWriter(w, g)
	bw.binary(g)
	return bw.flush()
}

// ReadBinary deserializes a graph written by WriteBinary, reading exactly
// its bytes from r. The header's claimed node and edge counts are not
// trusted for allocation: an array is allocated once, for no more values
// than the bytes r holds (inputSize), or grows as its bytes arrive when r
// cannot tell, so a crafted header on a short stream cannot force a huge
// upfront allocation (the input may be an untrusted HTTP upload).
func ReadBinary(r io.Reader) (*Graph, error) {
	return (&blockReader{r: r, left: inputSize(r)}).binary()
}

// inputSize bounds the bytes r holds: an in-memory reader's Len, a regular
// file's size, or -1 when r cannot tell.
func inputSize(r io.Reader) int64 {
	switch r := r.(type) {
	case interface{ Len() int }:
		return int64(r.Len())
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := r.Stat(); err == nil && fi.Mode().IsRegular() {
			return fi.Size()
		}
	}
	return -1
}

// blockValues bounds one block of a binary stream: a write moves up to
// blockValues values through its scratch buffer, a read up to blockValues
// bytes.
const blockValues = 1 << 16

// blockWriter encodes little-endian values into one scratch buffer and
// writes the buffer out whenever it fills, so an encode costs one buffer
// and a few large writes. The first write error sticks.
type blockWriter struct {
	w   io.Writer
	buf []byte
	err error
}

// newBlockWriter sizes the scratch for g's longest array, up to
// blockValues 8-byte values.
func newBlockWriter(w io.Writer, g *Graph) *blockWriter {
	return &blockWriter{w: w, buf: make([]byte, 0, 8*min(max(int64(g.n)+1, g.m), blockValues))}
}

func (b *blockWriter) flush() error {
	if b.err == nil && len(b.buf) > 0 {
		_, b.err = b.w.Write(b.buf)
	}
	b.buf = b.buf[:0]
	return b.err
}

// bytes writes p, through the scratch when it fits there.
func (b *blockWriter) bytes(p []byte) {
	if len(p) > cap(b.buf)-len(b.buf) {
		b.flush()
	}
	if len(p) > cap(b.buf) {
		if b.err == nil {
			_, b.err = b.w.Write(p)
		}
		return
	}
	b.buf = append(b.buf, p...)
}

func (b *blockWriter) u64(v uint64) {
	if cap(b.buf)-len(b.buf) < 8 {
		b.flush()
	}
	b.buf = binary.LittleEndian.AppendUint64(b.buf, v)
}

func (b *blockWriter) u32s(s []uint32) {
	for len(s) > 0 {
		if cap(b.buf)-len(b.buf) < 4 {
			b.flush()
		}
		n := len(b.buf)
		c := min(len(s), (cap(b.buf)-n)/4)
		b.buf = b.buf[:n+4*c]
		for i, v := range s[:c] {
			binary.LittleEndian.PutUint32(b.buf[n+4*i:], v)
		}
		s = s[c:]
	}
}

// f32s writes the bits of s, as math.Float32bits gives them.
func (b *blockWriter) f32s(s []float32) {
	b.u32s(unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(s))), len(s)))
}

// binary writes g in the binary format.
func (b *blockWriter) binary(g *Graph) {
	var flags uint64
	if g.weighted {
		flags |= 1
	}
	b.bytes(binaryMagic[:])
	b.u64(uint64(g.n))
	b.u64(uint64(g.m))
	b.u64(flags)
	// The flat form's offsets are the chunks' plus the edges before them.
	var base int64
	for _, ch := range g.out {
		for _, o := range ch.Off[:len(ch.Off)-1] {
			b.u64(uint64(base + o))
		}
		base += int64(len(ch.Adj))
	}
	b.u64(uint64(base))
	for _, ch := range g.out {
		b.u32s(ch.Adj)
	}
	if g.weighted {
		for _, ch := range g.out {
			b.f32s(ch.W)
		}
	}
}

// blockReader decodes little-endian arrays from r through one scratch
// buffer of at most blockValues bytes.
type blockReader struct {
	r   io.Reader
	buf []byte
	// left bounds the bytes r still holds, or is -1 when the input's size
	// is unknown.
	left int64
}

// binary reads a graph in the binary format.
func (b *blockReader) binary() (*Graph, error) {
	var magic [8]byte
	if _, err := io.ReadFull(b.r, magic[:]); err != nil {
		return nil, fmt.Errorf("graph: reading magic: %w", err)
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("graph: bad magic %q", magic[:])
	}
	var hdr [24]byte
	if _, err := io.ReadFull(b.r, hdr[:]); err != nil {
		return nil, fmt.Errorf("graph: reading header: %w", err)
	}
	n, m, flags := binary.LittleEndian.Uint64(hdr[0:]), binary.LittleEndian.Uint64(hdr[8:]), binary.LittleEndian.Uint64(hdr[16:])
	if n > MaxNodes {
		return nil, fmt.Errorf("graph: node count %d exceeds 2^31", n)
	}
	if m > uint64(1)<<62 {
		return nil, fmt.Errorf("graph: edge count %d overflows", m)
	}
	off, err := readBlocks(b, int64(n)+1, decodeI64)
	if err != nil {
		return nil, fmt.Errorf("graph: reading offsets: %w", err)
	}
	adj, err := readBlocks(b, int64(m), decodeU32)
	if err != nil {
		return nil, fmt.Errorf("graph: reading adjacency: %w", err)
	}
	var w []float32
	if flags&1 != 0 {
		if w, err = readBlocks(b, int64(m), decodeF32); err != nil {
			return nil, fmt.Errorf("graph: reading weights: %w", err)
		}
	}
	// The arrays are untrusted input (uploads reach this reader), and every
	// consumer indexes by them: a crafted offset or adjacency entry must be
	// a 400 here, not a panic later.
	chunks, err := Chunked(off, adj, w)
	if err != nil {
		return nil, fmt.Errorf("graph: loaded graph invalid: %w", err)
	}
	g := fromChunks(int(n), flags&1 != 0, chunks)
	if err := g.validateLists(); err != nil {
		return nil, fmt.Errorf("graph: loaded graph invalid: %w", err)
	}
	return g, nil
}

// readBlocks decodes count little-endian values, one block per decode
// call, while allocating in proportion to bytes actually present, never to
// the count a header merely claims. When the input's size is known the
// result is allocated once, for as many values as the bytes left can hold;
// otherwise it grows block by block. The scratch holds at most one block.
func readBlocks[T any](b *blockReader, count int64, decode func(dst []T, src []byte)) ([]T, error) {
	var zero T
	width := binary.Size(zero)
	per := int64(blockValues / width) // values per block
	if need := width * int(min(count, per)); cap(b.buf) < need {
		b.buf = make([]byte, need)
	}
	size := min(count, per)
	if b.left >= 0 {
		size = min(count, b.left/int64(width))
	}
	out := make([]T, 0, size)
	for int64(len(out)) < count {
		c := int(min(count-int64(len(out)), per))
		src := b.buf[:width*c]
		if _, err := io.ReadFull(b.r, src); err != nil {
			return nil, err
		}
		if b.left >= 0 {
			b.left = max(b.left-int64(len(src)), 0)
		}
		n := len(out)
		if cap(out)-n < c {
			// Double, but not past the count: a true header costs an
			// exact final array, a lying one no more than the bytes read.
			out = append(make([]T, 0, min(int64(max(2*n, n+c)), count)), out...)
		}
		out = out[:n+c]
		decode(out[n:], src)
	}
	return out, nil
}

func decodeI64(dst []int64, src []byte) {
	for i := range dst {
		dst[i] = int64(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

func decodeU32(dst []uint32, src []byte) {
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint32(src[4*i:])
	}
}

func decodeF32(dst []float32, src []byte) {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}

func decodeBytes(dst, src []byte) { copy(dst, src) }

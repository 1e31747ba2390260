package graph

import (
	"errors"
	"fmt"
	"iter"
)

// ChunkShift sets the chunk width: a chunk holds the lists of 1<<ChunkShift
// consecutive vertices (fewer in the last one). It is also binSort's key
// block, so the builder emits one chunk per block it places: 4096 keys keep
// a block's write cursors (32 KB) in cache, and a key's offset inside its
// block fits in 16 bits.
const ChunkShift = 12

// ChunkSize is the number of vertices of every chunk but the last.
const ChunkSize = 1 << ChunkShift

const chunkMask = ChunkSize - 1

// Chunk is the CSR of ChunkSize consecutive vertices, counted from the
// chunk's first vertex: vertex base+i's list is Adj[Off[i]:Off[i+1]], with
// Off[0] = 0 and len(Off) one more than the chunk's vertex count. W is nil or
// holds one weight per Adj entry. A chunk is read-only once built, which is
// what lets graph versions share it.
type Chunk struct {
	Off []int64
	Adj []NodeID
	W   []float32
}

// numChunks returns the number of chunks that cover n vertices.
func numChunks(n int) int { return (n + chunkMask) >> ChunkShift }

// chunkLen returns the number of vertices chunk c of an n-vertex graph holds.
func chunkLen(n, c int) int { return min(n-c<<ChunkShift, ChunkSize) }

// Spans walks vertices [lo, hi) of a chunked CSR chunk by chunk. For each
// chunk the range meets, in order, it yields the range's first vertex in the
// chunk and the chunk cut to the range: Off holds the offsets from that
// vertex to one past the range's last vertex in the chunk (so Off[0] need not
// be 0), and Adj and W are the chunk's whole lists, which Off indexes. The
// walk costs one step per chunk, none per vertex.
func Spans(chunks []Chunk, lo, hi int) iter.Seq2[int, Chunk] {
	return func(yield func(int, Chunk) bool) {
		for lo < hi {
			c := lo >> ChunkShift
			base := c << ChunkShift
			end := min(hi, base+ChunkSize)
			ch := &chunks[c]
			if !yield(lo, Chunk{Off: ch.Off[lo-base : end-base+1], Adj: ch.Adj, W: ch.W}) {
				return
			}
			lo = end
		}
	}
}

// Chunked cuts a flat CSR — off (len vertices+1, from 0, non-decreasing, up
// to len(adj)), adj and optional w — into chunks. The chunks' Adj and W alias
// adj and w; their offsets are one fresh array. Offsets that break the rule
// are an error, because they may be untrusted input (ReadBinary).
func Chunked(off []int64, adj []NodeID, w []float32) ([]Chunk, error) {
	n := len(off) - 1
	if n < 0 {
		return nil, errors.New("graph: no offsets")
	}
	if off[0] != 0 {
		return nil, errors.New("graph: offsets do not start at 0")
	}
	if m := int64(len(adj)); off[n] != m {
		return nil, fmt.Errorf("graph: offsets end at %d, want %d", off[n], m)
	}
	if w != nil && len(w) != len(adj) {
		return nil, errors.New("graph: weight array has wrong length")
	}
	chunks := make([]Chunk, numChunks(n))
	rel := make([]int64, n+len(chunks)) // chunk c's offsets start at c<<ChunkShift + c
	for c := range chunks {
		lo := c << ChunkShift
		hi := lo + chunkLen(n, c)
		base := off[lo]
		co := rel[lo+c : hi+c+1 : hi+c+1]
		for i := range co {
			if i > 0 && off[lo+i] < off[lo+i-1] {
				return nil, fmt.Errorf("graph: offsets not monotone at node %d", lo+i-1)
			}
			co[i] = off[lo+i] - base
		}
		// Monotone from off[0] = 0 so far; bounded by adj before slicing,
		// whatever the later offsets hold.
		end := off[hi]
		if end > int64(len(adj)) {
			return nil, fmt.Errorf("graph: offset of node %d exceeds edge count %d", hi, len(adj))
		}
		chunks[c] = Chunk{Off: co, Adj: adj[base:end:end]}
		if w != nil {
			chunks[c].W = w[base:end:end]
		}
	}
	return chunks, nil
}

// Package partition implements the index-range graph partitioning of the
// paper's §3.1: the vertex set is divided into equisized partitions of q
// contiguously labeled nodes, so partition i owns IDs [i*q, (i+1)*q).
//
// Partition sizes are powers of two so that PartitionOf is a shift rather
// than a division — the same trick the paper's implementation uses for bin
// selection ("we use bit shift instructions instead of integer division").
package partition

import (
	"fmt"
	"math/bits"

	"repro/internal/graph"
)

// ValueBytes is the size of one PageRank value / node ID (the paper fixes
// both at 4 bytes).
const ValueBytes = 4

// DefaultBytes is the paper's empirically chosen partition / bin width
// (256 KB of 4-byte vertex values = 64K nodes). Every engine's
// DefaultPartitionBytes is this constant.
const DefaultBytes = 256 << 10

// Layout describes an equisized index-range partitioning of n nodes.
type Layout struct {
	n     int
	size  int  // nodes per partition (power of two)
	shift uint // log2(size)
	k     int  // number of partitions
}

// NewLayout creates a layout with sizeNodes nodes per partition. sizeNodes
// must be a power of two and at least 1. A final partial partition covers
// the tail when n is not a multiple of sizeNodes.
func NewLayout(n, sizeNodes int) (Layout, error) {
	if n < 0 {
		return Layout{}, fmt.Errorf("partition: negative node count %d", n)
	}
	if sizeNodes <= 0 || sizeNodes&(sizeNodes-1) != 0 {
		return Layout{}, fmt.Errorf("partition: size %d is not a positive power of two", sizeNodes)
	}
	k := (n + sizeNodes - 1) / sizeNodes
	if k == 0 {
		k = 1 // degenerate empty graph still gets one (empty) partition
	}
	return Layout{
		n:     n,
		size:  sizeNodes,
		shift: uint(bits.TrailingZeros(uint(sizeNodes))),
		k:     k,
	}, nil
}

// FromBytes creates a layout whose partitions hold sizeBytes worth of
// 4-byte vertex values, i.e. sizeBytes/4 nodes — the paper expresses
// partition size in bytes (256 KB default = 64K nodes).
func FromBytes(n, sizeBytes int) (Layout, error) {
	if sizeBytes < ValueBytes {
		return Layout{}, fmt.Errorf("partition: size %d bytes below one value", sizeBytes)
	}
	return NewLayout(n, sizeBytes/ValueBytes)
}

// NumNodes returns the node count the layout covers.
func (l Layout) NumNodes() int { return l.n }

// Size returns the nodes-per-partition (the paper's q).
func (l Layout) Size() int { return l.size }

// SizeBytes returns the per-partition vertex-value footprint in bytes.
func (l Layout) SizeBytes() int { return l.size * ValueBytes }

// K returns the number of partitions (the paper's k = |P|).
func (l Layout) K() int { return l.k }

// Shift returns log2(Size), the bit shift that maps an ID to a partition.
func (l Layout) Shift() uint { return l.shift }

// PartitionOf returns the partition owning node v.
func (l Layout) PartitionOf(v graph.NodeID) int { return int(v >> l.shift) }

// Bounds returns the node-ID half-open range [lo, hi) owned by partition p.
// The final partition may be shorter than Size.
func (l Layout) Bounds(p int) (lo, hi graph.NodeID) {
	lo = graph.NodeID(p << l.shift)
	h := (p + 1) << l.shift
	if h > l.n {
		h = l.n
	}
	if int(lo) > l.n {
		lo = graph.NodeID(l.n)
	}
	return lo, graph.NodeID(h)
}

// Len returns the number of nodes in partition p.
func (l Layout) Len(p int) int {
	lo, hi := l.Bounds(p)
	return int(hi - lo)
}

// Validate checks internal consistency; it is cheap and used by tests.
func (l Layout) Validate() error {
	if l.size != 1<<l.shift {
		return fmt.Errorf("partition: size %d != 1<<%d", l.size, l.shift)
	}
	total := 0
	for p := 0; p < l.k; p++ {
		total += l.Len(p)
	}
	if total != l.n {
		return fmt.Errorf("partition: partitions cover %d nodes, want %d", total, l.n)
	}
	return nil
}

func (l Layout) String() string {
	return fmt.Sprintf("partition.Layout{n=%d q=%d k=%d}", l.n, l.size, l.k)
}

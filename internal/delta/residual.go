package delta

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Residual codec: the wire form of a rank update shipped as the signed
// difference against the parent vector, mirroring the (node, signed mass)
// representation ppr.Engine.Repair consumes. Only entries whose float32
// bit pattern changed are encoded, so a repair that touched a handful of
// components costs bytes proportional to what actually changed, not to
// the graph.
//
// Layout (little endian):
//
//	count   uint32
//	entries count × { node uint32, delta float64 }
//
// nodes are strictly increasing. The delta is new−old widened to float64,
// where the difference of two float32 values is exact, so the reader's
// float32(float64(old[i]) + delta) reconstructs the writer's bits — the
// encoder verifies that round trip per entry and refuses the rare vector
// it cannot reproduce (a reader applying a residual record is then
// guaranteed byte-identical state to full-vector shipping).

const residualEntryBytes = 12 // node uint32 + delta float64

// ResidualSize returns the encoded byte count for n changed entries.
func ResidualSize(n int) int { return 4 + n*residualEntryBytes }

// Changed returns the number of entries whose float32 bits differ between
// two vectors of one length: the entries EncodeResidual encodes, so a caller
// can size a residual before it builds one.
func Changed(prev, next []float32) int {
	changed := 0
	for i := range next {
		if math.Float32bits(next[i]) != math.Float32bits(prev[i]) {
			changed++
		}
	}
	return changed
}

// EncodeResidual encodes next as a signed residual delta against prev.
// It returns ok=false when the vectors differ in length or some entry
// cannot be reconstructed exactly by the decoder — callers then fall back
// to shipping the full vector.
func EncodeResidual(prev, next []float32) ([]byte, bool) {
	if len(prev) != len(next) {
		return nil, false
	}
	changed := Changed(prev, next)
	out := make([]byte, 0, ResidualSize(changed))
	out = binary.LittleEndian.AppendUint32(out, uint32(changed))
	for i := range next {
		if math.Float32bits(next[i]) == math.Float32bits(prev[i]) {
			continue
		}
		d := float64(next[i]) - float64(prev[i])
		if math.Float32bits(float32(float64(prev[i])+d)) != math.Float32bits(next[i]) {
			return nil, false // e.g. a −0 target: addition cannot reach it
		}
		out = binary.LittleEndian.AppendUint32(out, uint32(i))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(d))
	}
	return out, true
}

// ApplyResidual reconstructs the successor vector from prev and an
// EncodeResidual blob, never mutating prev. Malformed blobs (bad framing,
// out-of-range or non-increasing nodes) fail closed: residual records ride
// the WAL and the replication wire, so a reader must treat them as
// untrusted bytes.
func ApplyResidual(prev []float32, blob []byte) ([]float32, error) {
	if len(blob) < 4 {
		return nil, fmt.Errorf("delta: residual blob of %d bytes lacks a count", len(blob))
	}
	count := binary.LittleEndian.Uint32(blob)
	if got, want := len(blob)-4, int(count)*residualEntryBytes; got != want {
		return nil, fmt.Errorf("delta: residual blob carries %d entry bytes, count %d wants %d", got, count, want)
	}
	next := make([]float32, len(prev))
	copy(next, prev)
	prevNode := -1
	for i := 0; i < int(count); i++ {
		off := 4 + i*residualEntryBytes
		node := binary.LittleEndian.Uint32(blob[off:])
		d := math.Float64frombits(binary.LittleEndian.Uint64(blob[off+4:]))
		if int(node) >= len(prev) {
			return nil, fmt.Errorf("delta: residual entry for node %d outside vector of %d", node, len(prev))
		}
		if int(node) <= prevNode {
			return nil, fmt.Errorf("delta: residual nodes not strictly increasing at %d", node)
		}
		prevNode = int(node)
		next[node] = float32(float64(prev[node]) + d)
	}
	return next, nil
}

package main

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"sort"
)

// The load generator. Every request a serving workload sends is drawn here
// from the run's seed alone: the server only ever sees the generated
// requests, and the same seed replays the same request list byte for byte.

type opKind uint8

const (
	opTopK opKind = iota
	opRank
	opPPR
	opPPRBatch
	opInsert
	opDelete
	numOpKinds
)

var opNames = [numOpKinds]string{"topk", "rank", "ppr", "ppr_batch", "insert", "delete"}

func (k opKind) String() string { return opNames[k] }

func (k opKind) isRead() bool { return k <= opPPRBatch }

// op is one request.
type op struct {
	Kind   opKind
	K      int         // topk / ppr payload size
	Vertex uint32      // rank
	Seeds  [][]uint32  // ppr: one seed set; ppr_batch: four
	Edges  [][2]uint32 // insert / delete: 1–4 [src, dst] pairs
	Hub    bool        // mutation whose endpoints are high-degree vertices
}

// asDelete is the request that removes the edges insert batch o added.
func (o op) asDelete() op {
	o.Kind = opDelete
	return o
}

// appendTo serialises the op; the determinism test compares these bytes.
func (o op) appendTo(b []byte) []byte {
	b = append(b, byte(o.Kind))
	b = binary.LittleEndian.AppendUint32(b, uint32(o.K))
	b = binary.LittleEndian.AppendUint32(b, o.Vertex)
	for _, set := range o.Seeds {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(set)))
		for _, s := range set {
			b = binary.LittleEndian.AppendUint32(b, s)
		}
	}
	for _, e := range o.Edges {
		b = binary.LittleEndian.AppendUint32(b, e[0])
		b = binary.LittleEndian.AppendUint32(b, e[1])
	}
	if o.Hub {
		b = append(b, 1)
	}
	return b
}

// The read mix of both serving workloads, as shares of 100.
const (
	mixTopK     = 50
	mixRank     = 15
	mixPPR      = 29
	mixPPRBatch = 6

	zipfExponent  = 1.2
	zipfStrata    = 16 // one-seed sets drawn per stratified block, see strataZipf
	pprBatchSize  = 4
	tailShare     = 3 // mutation batches with uniform endpoints ...
	hubShare      = 1 // ... to each one with hub endpoints
	deleteLag     = 4 // inserted batches outstanding before the oldest is deleted
	scatterFactor = 2654435761
)

var topKSizes = [...]int{10, 10, 10, 50, 100}

// cycle deals out choices in proportion to their weights, spread as evenly
// as possible (smooth weighted round-robin): every prefix of the sequence
// holds each choice within one of its exact share. Drawing the op kinds
// this way instead of at random keeps the composition of a 15-second window
// the same from seed to seed; only the operands vary with the seed.
type cycle struct {
	weights, credit []int
}

func newCycle(weights ...int) *cycle {
	return &cycle{weights: weights, credit: make([]int, len(weights))}
}

func (c *cycle) next() int {
	best, total := 0, 0
	for i, w := range c.weights {
		c.credit[i] += w
		total += w
		if c.credit[i] > c.credit[best] {
			best = i
		}
	}
	c.credit[best] -= total
	return best
}

func newRNG(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// strataZipf draws ranks from the same law as rand.NewZipf(rng, s, 1, n−1),
// P(r) ∝ (1+r)^−s, by inverting its distribution function, and takes the
// uniform variates in blocks of zipfStrata: one from each zipfStrata-th of
// [0, 1), in random order. The law of a single draw is unchanged, but every
// block holds the hottest rank (a fifth of the mass) three or four times,
// where independent draws give it anything from none to eight.
type strataZipf struct {
	cdf   []float64 // cdf[r] = P(rank ≤ r)
	rng   *rand.Rand
	block [zipfStrata]float64
	used  int
}

func newStrataZipf(rng *rand.Rand, s float64, n int) *strataZipf {
	z := &strataZipf{cdf: make([]float64, n), rng: rng, used: zipfStrata}
	var total float64
	for r := range z.cdf {
		total += math.Pow(float64(1+r), -s)
		z.cdf[r] = total
	}
	for r := range z.cdf {
		z.cdf[r] /= total
	}
	return z
}

func (z *strataZipf) next() uint64 {
	if z.used == len(z.block) {
		for j := range z.block {
			z.block[j] = (float64(j) + z.rng.Float64()) / float64(len(z.block))
		}
		z.rng.Shuffle(len(z.block), func(i, j int) { z.block[i], z.block[j] = z.block[j], z.block[i] })
		z.used = 0
	}
	u := z.block[z.used]
	z.used++
	return uint64(min(sort.SearchFloat64s(z.cdf, u), len(z.cdf)-1))
}

// readSchedule yields one client's read requests. Query seeds are
// Zipf(1.2)-popular: rank r of the popularity order is vertex
// r·scatterFactor mod n, which spreads the hot users over the ID space
// (n is a power of two, so the map is a bijection).
//
// What the personalized cache can answer is almost only the one-seed sets of
// the few hottest vertices, and a 15-second window holds some 40 one-seed
// sets: drawn independently, the hit ratio ran from 0.13 to 0.22 by seed and
// requests per second followed it (spread 13 % over ten seeds, 1 % over ten
// runs of one seed). So the set sizes 1, 2, 3 are dealt in rotation and the
// one-seed sets take their vertex from a stratified stream.
type readSchedule struct {
	n      uint32
	rng    *rand.Rand
	zipf   *rand.Zipf
	single *strataZipf
	kinds  *cycle
	sizes  *cycle
}

func newReadSchedule(seed uint64, client int, n int) *readSchedule {
	rng := newRNG(seed, 0x5ead0000+uint64(client))
	s := &readSchedule{
		n: uint32(n), rng: rng, zipf: rand.NewZipf(rng, zipfExponent, 1, uint64(n-1)),
		single: newStrataZipf(rng, zipfExponent, n),
		kinds:  newCycle(mixTopK, mixRank, mixPPR, mixPPRBatch),
		sizes:  newCycle(1, 1, 1),
	}
	for i := 0; i < 37*client; i++ { // clients start at different points of the cycle
		s.kinds.next()
	}
	return s
}

func (s *readSchedule) vertexOf(rank uint64) uint32 {
	return uint32(rank*scatterFactor) % s.n
}

func (s *readSchedule) popular() uint32 { return s.vertexOf(s.zipf.Uint64()) }

func (s *readSchedule) seedSet() []uint32 {
	set := make([]uint32, 1+s.sizes.next())
	if len(set) == 1 {
		set[0] = s.vertexOf(s.single.next())
		return set
	}
	for i := range set {
		set[i] = s.popular()
	}
	return set
}

func (s *readSchedule) next() op {
	switch opKind(s.kinds.next()) {
	case opTopK:
		return op{Kind: opTopK, K: topKSizes[s.rng.IntN(len(topKSizes))]}
	case opRank:
		return op{Kind: opRank, Vertex: s.popular()}
	case opPPR:
		return op{Kind: opPPR, K: 10, Seeds: [][]uint32{s.seedSet()}}
	default:
		o := op{Kind: opPPRBatch, K: 10, Seeds: make([][]uint32, pprBatchSize)}
		for i := range o.Seeds {
			o.Seeds[i] = s.seedSet()
		}
		return o
	}
}

// writeSchedule yields the writer's edge-delta requests: batches of 1–4
// edges, three "tail" (uniform endpoints) to every one "hub"
// (both endpoints Zipf-drawn from hubs, the vertices of highest in-degree).
// Every inserted batch is deleted deleteLag inserts later, so the edge
// count is conserved and drain() restores the original multigraph.
type writeSchedule struct {
	n       uint32
	hubs    []uint32
	rng     *rand.Rand
	zipf    *rand.Zipf
	kinds   *cycle // 0: tail batch, 1: hub batch
	pending []op   // inserted, not yet deleted
	insert  bool   // whether the next op inserts
}

func newWriteSchedule(seed uint64, n int, hubs []uint32) *writeSchedule {
	rng := newRNG(seed, 0x3717e000)
	s := &writeSchedule{n: uint32(n), hubs: hubs, rng: rng, insert: true, kinds: newCycle(tailShare, hubShare)}
	if len(hubs) > 1 {
		s.zipf = rand.NewZipf(rng, zipfExponent, 1, uint64(len(hubs)-1))
	}
	return s
}

func (s *writeSchedule) batch() op {
	o := op{Kind: opInsert, Hub: s.zipf != nil && s.kinds.next() == 1}
	o.Edges = make([][2]uint32, 1+s.rng.IntN(4))
	for i := range o.Edges {
		for {
			var src, dst uint32
			if o.Hub {
				src, dst = s.hubs[s.zipf.Uint64()], s.hubs[s.zipf.Uint64()]
			} else {
				src, dst = s.rng.Uint32N(s.n), s.rng.Uint32N(s.n)
			}
			if src != dst {
				o.Edges[i] = [2]uint32{src, dst}
				break
			}
		}
	}
	return o
}

func (s *writeSchedule) next() op {
	if s.insert || len(s.pending) == 0 {
		o := s.batch()
		s.pending = append(s.pending, o)
		s.insert = len(s.pending) < deleteLag
		return o
	}
	s.insert = true
	return s.popDelete()
}

func (s *writeSchedule) popDelete() op {
	o := s.pending[0]
	s.pending = s.pending[1:]
	return o.asDelete()
}

// drain returns the deletes that undo every batch still inserted.
func (s *writeSchedule) drain() []op {
	var out []op
	for len(s.pending) > 0 {
		out = append(out, s.popDelete())
	}
	return out
}

package main

import (
	"bytes"
	"math"
	"testing"
)

func readBytes(seed uint64, client, n, count int) []byte {
	s := newReadSchedule(seed, client, n)
	var b []byte
	for i := 0; i < count; i++ {
		b = s.next().appendTo(b)
	}
	return b
}

func writeOps(seed uint64, n, count int) ([]op, []op) {
	hubs := []uint32{9, 1, 5, 3, 8, 2, 7, 4}
	s := newWriteSchedule(seed, n, hubs)
	ops := make([]op, count)
	for i := range ops {
		ops[i] = s.next()
	}
	return ops, s.drain()
}

func opBytes(ops []op) []byte {
	var b []byte
	for _, o := range ops {
		b = o.appendTo(b)
	}
	return b
}

func TestSchedulesAreDeterministic(t *testing.T) {
	const n = 1 << 12
	if !bytes.Equal(readBytes(42, 0, n, 500), readBytes(42, 0, n, 500)) {
		t.Error("same seed, same client: read schedules differ")
	}
	if bytes.Equal(readBytes(42, 0, n, 500), readBytes(43, 0, n, 500)) {
		t.Error("different seeds give the same read schedule")
	}
	if bytes.Equal(readBytes(42, 0, n, 500), readBytes(42, 1, n, 500)) {
		t.Error("two clients of one run replay the same read schedule")
	}
	a, _ := writeOps(42, n, 200)
	b, _ := writeOps(42, n, 200)
	c, _ := writeOps(7, n, 200)
	if !bytes.Equal(opBytes(a), opBytes(b)) {
		t.Error("same seed: write schedules differ")
	}
	if bytes.Equal(opBytes(a), opBytes(c)) {
		t.Error("different seeds give the same write schedule")
	}
}

func TestReadScheduleFollowsTheMix(t *testing.T) {
	const n, count = 1 << 12, 20000
	s := newReadSchedule(1, 0, n)
	var kinds [numOpKinds]int
	for i := 0; i < count; i++ {
		o := s.next()
		kinds[o.Kind]++
		for _, set := range o.Seeds {
			if len(set) < 1 || len(set) > 3 {
				t.Fatalf("seed set of %d vertices", len(set))
			}
			for _, v := range set {
				if int(v) >= n {
					t.Fatalf("seed %d outside the graph", v)
				}
			}
		}
		if o.Kind == opPPRBatch && len(o.Seeds) != pprBatchSize {
			t.Fatalf("batch of %d queries", len(o.Seeds))
		}
	}
	for kind, share := range map[opKind]int{opTopK: mixTopK, opRank: mixRank, opPPR: mixPPR, opPPRBatch: mixPPRBatch} {
		got := 100 * float64(kinds[kind]) / count
		if got < float64(share)-2 || got > float64(share)+2 {
			t.Errorf("%s is %.1f%% of the schedule, want about %d%%", kind, got, share)
		}
	}
}

// Every inserted batch is deleted exactly once, deletes only name batches
// inserted before them, and at most deleteLag batches are ever outstanding.
func TestWriteScheduleConservesEdges(t *testing.T) {
	ops, rest := writeOps(3, 1<<12, 301)
	outstanding := map[string]int{}
	key := func(o op) string { o.Kind = opInsert; return string(o.appendTo(nil)) }
	hub := 0
	for _, o := range append(ops, rest...) {
		if len(o.Edges) < 1 || len(o.Edges) > 4 {
			t.Fatalf("batch of %d edges", len(o.Edges))
		}
		for _, e := range o.Edges {
			if e[0] == e[1] {
				t.Fatalf("self loop %v", e)
			}
		}
		switch o.Kind {
		case opInsert:
			outstanding[key(o)]++
			if o.Hub {
				hub++
			}
		case opDelete:
			if outstanding[key(o)] == 0 {
				t.Fatalf("delete of a batch that is not inserted: %+v", o)
			}
			outstanding[key(o)]--
		default:
			t.Fatalf("writer produced a %s", o.Kind)
		}
		live := 0
		for _, c := range outstanding {
			live += c
		}
		if live > deleteLag {
			t.Fatalf("%d batches outstanding, limit %d", live, deleteLag)
		}
	}
	for k, c := range outstanding {
		if c != 0 {
			t.Errorf("batch %q left inserted after the drain", k)
		}
	}
	if hub == 0 {
		t.Error("no hub batch in 150 inserts")
	}
}

func TestStrataZipfKeepsTheLawAndSteadiesTheBlocks(t *testing.T) {
	const n, blocks = 1 << 17, 2000
	z := newStrataZipf(newRNG(3, 1), zipfExponent, n)
	var total float64
	for r := 0; r < n; r++ {
		total += math.Pow(float64(1+r), -zipfExponent)
	}
	counts := make(map[uint64]int)
	for b := 0; b < blocks; b++ {
		hottest := 0
		for i := 0; i < zipfStrata; i++ {
			r := z.next()
			if r >= n {
				t.Fatalf("rank %d outside [0, %d)", r, n)
			}
			counts[r]++
			if r == 0 {
				hottest++
			}
		}
		if hottest < 3 || hottest > 4 {
			t.Fatalf("block %d holds the hottest rank %d times, want 3 or 4", b, hottest)
		}
	}
	for _, r := range []uint64{0, 1, 2, 10, 100} {
		want := math.Pow(float64(1+r), -zipfExponent) / total
		got := float64(counts[r]) / (blocks * zipfStrata)
		if math.Abs(got-want) > 0.1*want+0.0005 {
			t.Errorf("rank %d drawn with frequency %.4f, the law gives %.4f", r, got, want)
		}
	}
}

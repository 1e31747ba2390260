package main

import "testing"

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "op", Start: 0, End: 100, Parent: -1},
		{ID: 1, Name: "http", Start: 10, End: 90, Parent: 0},
		{ID: 2, Name: "serve", Start: 20, End: 60, Parent: 1},
		{ID: 3, Name: "layer", Start: 30, End: 50, Parent: 2},
		// Two children of "http" overlapping each other and "serve".
		{ID: 4, Name: "wal", Start: 50, End: 80, Parent: 1},
		{ID: 5, Name: "wal", Start: 70, End: 85, Parent: 1},
		// A child reaching past its parent counts only for the part inside.
		{ID: 6, Name: "late", Start: 95, End: 120, Parent: 0},
		// Never closed: ignored.
		{ID: 7, Name: "open", Start: 5, End: -1, Parent: 0},
	}
	self := selfTimes(spans)
	want := []int64{
		100 - 80 - 5, // op: minus http [10,90) and late's [95,100)
		80 - 65,      // http: children cover [20,85) once
		40 - 20,      // serve: minus layer
		20,           // layer: a leaf
		30, 15,       // wal leaves
		25, // late: its own full duration
		0,  // open
	}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, self[i], want[i])
		}
	}
	totals := spanTotals(spans)
	byName := map[string]spanTotal{}
	for _, st := range totals {
		byName[st.Name] = st
	}
	if w := byName["wal"]; w.Count != 2 || !near(w.TotalMS, 45e-6) || !near(w.SelfMS, 45e-6) {
		t.Errorf("wal totals = %+v", w)
	}
	if _, ok := byName["open"]; ok {
		t.Error("an unclosed span must not appear in the totals")
	}
}

func TestNilTracerIsANoOp(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1, 0)
	tr.end(id)
	tr.count("n", 1)
	if id != -1 {
		t.Errorf("nil tracer returned span id %d", id)
	}
}

func TestTracerRecordsParentsAndCounts(t *testing.T) {
	tr := newTracer("w")
	root := tr.begin("op", -1, 7)
	child := tr.begin("http", root, 7)
	tr.end(child)
	tr.end(root)
	tr.count("bytes", 3)
	tr.count("bytes", 4)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[1].OpID != 7 || tr.spans[1].Workload != "w" {
		t.Errorf("spans = %+v", tr.spans)
	}
	if tr.spans[0].End < tr.spans[1].End || tr.spans[1].Start < tr.spans[0].Start {
		t.Errorf("child not inside parent: %+v", tr.spans)
	}
	if tr.counts["bytes"] != 7 {
		t.Errorf("counts = %v", tr.counts)
	}
}

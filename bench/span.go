package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one benchmark-owned interval around a call into a layer. Spans
// of one operation share OpID; Parent is the ID of the span that caused
// this one (-1 for a root). Times are nanoseconds since the tracer started.
type span struct {
	ID       int    `json:"id"`
	Name     string `json:"name"`
	Start    int64  `json:"start"`
	End      int64  `json:"end"`
	Parent   int    `json:"parent"`
	OpID     int64  `json:"op_id"`
	Workload string `json:"workload"`
}

// tracer keeps spans and boundary counts in memory until the run ends. A
// nil *tracer is the untraced pass: every method is a no-op, so the
// end-to-end loops carry no tracing cost beyond a nil check.
type tracer struct {
	workload string
	t0       time.Time

	mu     sync.Mutex
	spans  []span
	counts map[string]int64
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now(), counts: make(map[string]int64)}
}

// spansFor returns t for about every other operation index and nil for the
// rest, so that a traced pass yields two interleaved samples — with and
// without spans — of the same stretch of time, and what the spans cost can
// be read off their medians. The choice is the top bit of a golden-ratio
// hash of i: balanced over any run of indexes, yet in step with no period
// a schedule has (plain alternation put every hub delta in one sample).
func (t *tracer) spansFor(i int64) *tracer {
	if t == nil || (uint64(i)*0x9E3779B97F4A7C15)>>63 == 0 {
		return nil
	}
	return t
}

// begin opens a span and returns its ID (-1 when tracing is off).
func (t *tracer) begin(name string, parent int, opID int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Start: now, End: -1, Parent: parent, OpID: opID, Workload: t.workload})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// count adds to a named counter taken at a span boundary (bytes, records,
// rounds, cache hits).
func (t *tracer) count(name string, delta int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += delta
	t.mu.Unlock()
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover. Overlapping children are merged first, so
// two children over the same nanoseconds are subtracted once; a child
// reaching outside its parent only counts for the part inside.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue // never closed
		}
		self[i] = s.End - s.Start
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered := s.Start // everything before this point is already subtracted
		for _, k := range kids {
			lo, hi := max(spans[k].Start, covered), min(spans[k].End, s.End)
			if hi > lo {
				self[i] -= hi - lo
				covered = hi
			}
		}
	}
	return self
}

// spanTotal sums wall and self time by span name.
type spanTotal struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func spanTotals(spans []span) []spanTotal {
	self := selfTimes(spans)
	byName := make(map[string]*spanTotal)
	var names []string
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		st := byName[s.Name]
		if st == nil {
			st = &spanTotal{Name: s.Name}
			byName[s.Name] = st
			names = append(names, s.Name)
		}
		st.Count++
		st.TotalMS += float64(s.End-s.Start) / 1e6
		st.SelfMS += float64(self[i]) / 1e6
	}
	sort.Strings(names)
	out := make([]spanTotal, len(names))
	for i, n := range names {
		out[i] = *byName[n]
	}
	return out
}

// writeFile dumps the spans, their per-name totals and the boundary counts.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	doc := struct {
		Workload string           `json:"workload"`
		Totals   []spanTotal      `json:"totals"`
		Counts   map[string]int64 `json:"counts"`
		Spans    []span           `json:"spans"`
	}{t.workload, spanTotals(t.spans), t.counts, t.spans}
	b, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	return os.WriteFile(path, b, 0o644)
}

package serve

import (
	"math"
	"net/url"
	"testing"

	pcpm "repro"
	"repro/internal/gen"
	"repro/internal/graph"
)

// FuzzOverridesFromQuery drives the ingest option parser with arbitrary
// query strings, which arrive from any client. Whatever overridesFromQuery
// and Validate accept must resolve to options the engine takes, with a
// finite damping in (0,1), a finite non-negative tolerance and an iteration
// count within MaxIterations: a NaN that got through would make every later
// JSON answer about the graph unencodable.
func FuzzOverridesFromQuery(f *testing.F) {
	for _, seed := range []string{
		"",
		"name=g&replace=true",
		"damping=0.5&iterations=30&tolerance=1e-9&redistribute=true",
		"damping=NaN",
		"damping=-Inf",
		"tolerance=NaN",
		"tolerance=+Inf",
		"tolerance=1e400",
		"iterations=1000",
		"iterations=1001",
		"iterations=-1",
		"redistribute=yes",
		"redistribute=0&damping=",
		"partition=4",
		"workers=64",
	} {
		f.Add(seed)
	}
	g, err := gen.ErdosRenyi(16, 48, 1, graph.BuildOptions{})
	if err != nil {
		f.Fatal(err)
	}
	// The daemon's flag defaults, at a test-sized partition and one worker.
	base := pcpm.Options{Damping: 0.85, Iterations: 20, PartitionBytes: 1 << 10, Workers: 1}
	f.Fuzz(func(t *testing.T, query string) {
		q, err := url.ParseQuery(query)
		if err != nil {
			return
		}
		ov, _, err := overridesFromQuery(q)
		if err == nil {
			err = ov.Validate(base)
		}
		if err != nil {
			return
		}
		o := ov.apply(base)
		if !(o.Damping > 0 && o.Damping < 1) {
			t.Fatalf("%q: accepted damping %v", query, o.Damping)
		}
		if math.IsInf(o.Tolerance, 0) || !(o.Tolerance >= 0) {
			t.Fatalf("%q: accepted tolerance %v", query, o.Tolerance)
		}
		if o.Iterations < 0 || o.Iterations > pcpm.DefaultMaxIterations {
			t.Fatalf("%q: accepted iterations %d", query, o.Iterations)
		}
		if _, err := pcpm.NewEngine(g, o); err != nil {
			t.Fatalf("%q: accepted options %+v the engine refuses: %v", query, o, err)
		}
	})
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// benchmarkJSON mirrors the keys of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// BENCHMARK.json and the tables in this package describe the same
// benchmark: same workloads, same metrics with the same units, directions
// and bounds, same run length.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	doc := loadBenchmarkJSON(t)
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, defaultSeconds = %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)",
				i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	var e2e, layers []metricDef
	for _, d := range metricDefs {
		switch d.Tier {
		case tierEndToEnd:
			e2e = append(e2e, d)
		case tierLayer:
			layers = append(layers, d)
		}
	}
	if len(doc.EndToEnd) != len(e2e) || len(doc.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end and %d per-layer metrics, the code %d and %d",
			len(doc.EndToEnd), len(doc.PerLayer), len(e2e), len(layers))
	}
	for i, d := range e2e {
		m := doc.EndToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, the code has %+v", i, m, d)
		}
	}
	for i, d := range layers {
		m := doc.PerLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, the code has %+v", i, m, d)
		}
	}
	seen := map[string]bool{}
	for _, d := range metricDefs {
		if seen[d.Name] {
			t.Errorf("metric %s is defined twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// The smoke run: every workload, both passes, on 4k-node graphs. Each pass
// must be correct, fail no operation, and report every metric BENCHMARK.json
// names for it, each with its unit; the traced pass also leaves a trace file.
func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	doc := loadBenchmarkJSON(t)
	out := t.TempDir()
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel() // passes share nothing: own ports, own directories
			smokeWorkload(t, doc, w, out)
		})
	}
}

func smokeWorkload(t *testing.T, doc benchmarkJSON, w workload, out string) {
	for _, traced := range []bool{false, true} {
		res, err := runOne(runConfig{W: w, Seed: defaultSeed, Seconds: 0.3, Trace: traced, Smoke: true, OutDir: out})
		if err != nil {
			t.Fatalf("%s (trace %v): %v", w.Name, traced, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s (trace %v): correct=%v attempted=%d failed=%d checks=%+v",
				w.Name, traced, res.Correct, res.Attempted, res.Failed, res.Checks)
		}
		line, err := res.driverLine()
		if err != nil {
			t.Fatal(err)
		}
		var parsed struct {
			Metrics map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(line, &parsed); err != nil {
			t.Fatal(err)
		}
		want := map[string]string{}
		if traced {
			for _, m := range doc.PerLayer {
				want[m.Name] = m.Unit
			}
			if _, err := os.Stat(filepath.Join(out, w.Name+".trace.json")); err != nil {
				t.Errorf("%s: no trace file: %v", w.Name, err)
			}
		} else {
			for _, m := range doc.EndToEnd {
				want[m.Name] = m.Unit
			}
		}
		for name, unit := range want {
			got, ok := parsed.Metrics[name]
			if !ok || got.Value == nil || got.Unit != unit {
				t.Errorf("%s (trace %v): metric %s: got %+v, want unit %q", w.Name, traced, name, got, unit)
			}
			if !traced && ok && got.Value != nil && *got.Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", w.Name, name)
			}
		}
		if len(parsed.Metrics) != len(want) {
			t.Errorf("%s (trace %v): %d metrics in the result line, BENCHMARK.json names %d", w.Name, traced, len(parsed.Metrics), len(want))
		}
	}
}

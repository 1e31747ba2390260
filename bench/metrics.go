package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"text/tabwriter"
	"time"
)

// tier says which pass reports a metric and who gates on it.
type tier string

const (
	// tierEndToEnd metrics are BENCHMARK.json's end_to_end list: every
	// workload's untraced pass reports every one, and each has a bound.
	tierEndToEnd tier = "end_to_end"
	// tierDetail metrics come from the same untraced pass but exist only on
	// the workloads named; they are written to the result files and judged
	// by -compare, and are not part of the one-line result.
	tierDetail tier = "detail"
	// tierLayer metrics are BENCHMARK.json's per_layer list, reported by the
	// traced pass of every workload. They have no bound.
	tierLayer tier = "per_layer"
)

// metricDef is the fixed description of one metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // allowed worsening as a share of the baseline median
	Tier   tier
	On     []string // tierDetail: the workloads that report it
}

func (d metricDef) on(workload string) bool {
	if d.On == nil {
		return true
	}
	for _, w := range d.On {
		if w == workload {
			return true
		}
	}
	return false
}

var (
	solveWorkloads = []string{"solve_local", "solve_scattered"}
	serveWorkloads = []string{"serve_read", "serve_mutate"}
	mutateWorkload = []string{"serve_mutate"}
	readWorkload   = []string{"serve_read"}
)

// metricDefs lists every metric the benchmark can report. The first block
// must stay identical to BENCHMARK.json (a test compares them).
var metricDefs = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Tier: tierEndToEnd},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20, Tier: tierEndToEnd},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Tier: tierEndToEnd},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Tier: tierEndToEnd},

	{Name: "solve_s", Unit: "s", Better: "lower", Bound: 0.10, Tier: tierDetail, On: solveWorkloads},
	{Name: "solve_iters", Unit: "count", Better: "lower", Bound: 0, Tier: tierDetail, On: solveWorkloads},
	{Name: "rank_l1_err", Unit: "l1", Better: "lower", Bound: 0.10, Tier: tierDetail},
	{Name: "read_ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10, Tier: tierDetail, On: serveWorkloads},
	{Name: "topk_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, Tier: tierDetail, On: serveWorkloads},
	{Name: "ppr_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, Tier: tierDetail, On: serveWorkloads},
	{Name: "ppr_p95_ms", Unit: "ms", Better: "lower", Bound: 0.15, Tier: tierDetail, On: readWorkload},
	{Name: "mutate_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, Tier: tierDetail, On: mutateWorkload},
	{Name: "mutate_p95_ms", Unit: "ms", Better: "lower", Bound: 0.15, Tier: tierDetail, On: mutateWorkload},
	{Name: "recovery_s", Unit: "s", Better: "lower", Bound: 0.10, Tier: tierDetail, On: mutateWorkload},
	{Name: "wal_bytes_per_mutation", Unit: "bytes", Better: "lower", Bound: 0.02, Tier: tierDetail, On: mutateWorkload},
	{Name: "error_ratio", Unit: "ratio", Better: "lower", Bound: 0, Tier: tierDetail},

	layer("gen.generate_s", "s", "lower"),
	layer("graph.build_s", "s", "lower"),
	layer("graph.build_edges_per_s", "1/s", "higher"),
	layer("graph.read_binary_mbps", "MB/s", "higher"),
	layer("graph.write_binary_mbps", "MB/s", "higher"),
	layer("partition.k", "count", "lower"),
	layer("png.build_s", "s", "lower"),
	layer("png.compression_ratio", "ratio", "higher"),
	layer("png.bytes", "bytes", "lower"),
	layer("core.pcpm.iter_s", "s", "lower"),
	layer("core.pcpm.scatter_s_per_iter", "s", "lower"),
	layer("core.pcpm.gather_s_per_iter", "s", "lower"),
	layer("core.pcpm.gteps", "GTEPS", "higher"),
	layer("core.pcpm.iter_s_w1", "s", "lower"),
	layer("core.pcpm.scaling_eff", "ratio", "higher"),
	layer("core.pcpm.gather_branching_s_per_iter", "s", "lower"),
	layer("core.pcpm_csr.iter_s", "s", "lower"),
	layer("core.bvgas.iter_s", "s", "lower"),
	layer("core.pdpr.iter_s", "s", "lower"),
	layer("core.pcpm.speedup_vs_bvgas", "ratio", "higher"),
	layer("core.pcpm.speedup_vs_pdpr", "ratio", "higher"),
	layer("model.pcpm.bytes_per_edge", "bytes", "lower"),
	layer("model.bvgas.bytes_per_edge", "bytes", "lower"),
	layer("memsim.pcpm.bytes_per_edge", "bytes", "lower"),
	layer("mem.copy_gbps", "GB/s", "higher"),
	layer("core.pcpm.effective_gbps", "GB/s", "higher"),
	layer("scc.decompose_s", "s", "lower"),
	layer("scc.components", "count", "lower"),
	layer("comp.solve_s", "s", "lower"),
	layer("spmv.pcpm.mul_s", "s", "lower"),
	layer("spmv.csr.mul_s", "s", "lower"),
	layer("shard.assign_s", "s", "lower"),
	layer("shard.payload_bytes", "bytes", "lower"),
	layer("shard.payload_encode_s", "s", "lower"),
	layer("shard.payload_decode_s", "s", "lower"),
	layer("shard.block_round_s", "s", "lower"),
	layer("shard.swap_bytes_per_round", "bytes", "lower"),
	layer("serve.ingest_s", "s", "lower"),
	layer("serve.topk.http_p50_ms", "ms", "lower"),
	layer("serve.topk.http_p99_ms", "ms", "lower"),
	layer("serve.topk.direct_us", "us", "lower"),
	layer("serve.rank.http_p50_ms", "ms", "lower"),
	layer("serve.ppr.http_p50_ms", "ms", "lower"),
	layer("serve.ppr.http_p99_ms", "ms", "lower"),
	layer("serve.ppr.direct_p50_ms", "ms", "lower"),
	layer("serve.ppr_batch.http_p50_ms", "ms", "lower"),
	layer("serve.ppr_cache.hit_ratio", "ratio", "higher"),
	layer("serve.topk.allocs_per_op", "count", "lower"),
	layer("serve.ppr.allocs_per_op", "count", "lower"),
	layer("serve.knee_rps", "1/s", "higher"),
	layer("bench.gen_late_p99_ms", "ms", "lower"),
	layer("ppr.run.p50_ms", "ms", "lower"),
	layer("ppr.run.pushes_per_query", "count", "lower"),
	layer("ppr.run.rounds", "count", "lower"),
	layer("ppr.new_engine_s", "s", "lower"),
	layer("topk.select_s", "s", "lower"),
	layer("serve.delta.tail_p50_ms", "ms", "lower"),
	layer("serve.delta.hub_p50_ms", "ms", "lower"),
	layer("serve.delta.fallback_ratio", "ratio", "lower"),
	layer("serve.delta.direct_p50_ms", "ms", "lower"),
	layer("delta.apply_p50_ms", "ms", "lower"),
	layer("graph.patch_p50_ms", "ms", "lower"),
	layer("ppr.repair_rounds", "count", "lower"),
	layer("delta.residual_bytes", "bytes", "lower"),
	layer("delta.encode_residual_s", "s", "lower"),
	layer("wal.append_sync_p50_ms", "ms", "lower"),
	layer("wal.append_nosync_p50_ms", "ms", "lower"),
	layer("wal.bytes_per_record", "bytes", "lower"),
	layer("wal.checkpoint_s", "s", "lower"),
	layer("wal.replay_records_per_s", "1/s", "higher"),
	layer("serve.recover.replayed", "count", "lower"),
	layer("serve.recover.snapshot_load_s", "s", "lower"),
	layer("repl.decode_mbps", "MB/s", "higher"),
	layer("repl.apply_lag_p50_ms", "ms", "lower"),
	layer("trace.overhead_ratio", "ratio", "lower"),
}

func layer(name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, Tier: tierLayer}
}

func findMetric(name string) (metricDef, bool) {
	for _, d := range metricDefs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// metricValue is one reported number. Timings that are medians carry their
// quartiles and sample count.
type metricValue struct {
	Value float64  `json:"value"`
	Unit  string   `json:"unit"`
	Q1    *float64 `json:"q1,omitempty"`
	Q3    *float64 `json:"q3,omitempty"`
	N     int      `json:"n,omitempty"`
}

// check is one correctness check of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// machine describes where a result was recorded.
type machine struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	LLCBytes   int64  `json:"llc_bytes"`
}

// result is what one run of one workload leaves in its result file.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Smoke     bool                   `json:"smoke,omitempty"`
	Machine   machine                `json:"machine"`
	Graph     map[string]float64     `json:"graph,omitempty"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Checks    []check                `json:"checks"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func newResult(workload string, seed uint64, seconds float64, trace, smoke bool) *result {
	return &result{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace, Smoke: smoke,
		Machine: machine{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0), LLCBytes: llcBytes()},
		Graph:   map[string]float64{},
		Metrics: map[string]metricValue{},
	}
}

// unitOf returns the unit of a defined metric; reporting an undefined one
// is a bug in the benchmark.
func unitOf(name string) string {
	d, ok := findMetric(name)
	if !ok {
		panic("bench: undefined metric " + name)
	}
	return d.Unit
}

// put records a plain number under a defined metric name.
func (r *result) put(name string, value float64) {
	r.Metrics[name] = metricValue{Value: value, Unit: unitOf(name)}
}

// putMedian records the median of samples with quartiles and count.
func (r *result) putMedian(name string, samples []float64) {
	s := summarize(samples)
	r.Metrics[name] = metricValue{Value: s.Median, Unit: unitOf(name), Q1: &s.Q1, Q3: &s.Q3, N: s.N}
}

// check records a correctness check; a failed one makes the run incorrect.
func (r *result) check(name string, err error) {
	c := check{Name: name, OK: err == nil}
	if err != nil {
		c.Detail = err.Error()
	}
	r.Checks = append(r.Checks, c)
}

// finish derives Correct and error_ratio: a run is correct when every check
// passed, no operation failed and every number is finite.
func (r *result) finish() {
	r.Correct = r.Failed == 0
	for _, c := range r.Checks {
		r.Correct = r.Correct && c.OK
	}
	for name, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.check("finite:"+name, fmt.Errorf("value %v", m.Value))
			r.Correct = false
		}
	}
	if !r.Trace && r.Attempted > 0 {
		r.put("error_ratio", float64(r.Failed)/float64(r.Attempted))
	}
}

// missing lists the metrics of the run's pass that were not reported.
func (r *result) missing() []string {
	var out []string
	for _, d := range metricDefs {
		want := d.on(r.Workload) && (d.Tier == tierLayer) == r.Trace
		if _, ok := r.Metrics[d.Name]; want && !ok {
			out = append(out, d.Name)
		}
	}
	return out
}

// driverLine is the one-line result the benchmark contract asks for: the
// end-to-end metrics of an untraced run, the per-layer ones of a traced run.
func (r *result) driverLine() ([]byte, error) {
	want := tierEndToEnd
	if r.Trace {
		want = tierLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv)
	for _, d := range metricDefs {
		if m, ok := r.Metrics[d.Name]; ok && d.Tier == want {
			metrics[d.Name] = mv{m.Value, m.Unit}
		}
	}
	return json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, max(r.Attempted, 1), r.Failed, metrics})
}

func (r *result) writeFile(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResult(path string) (*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// printTable writes every metric of the run by name with its unit.
func (r *result) printTable(w io.Writer) {
	fmt.Fprintf(w, "== %s  seed=%d  trace=%v  correct=%v  attempted=%d  failed=%d\n",
		r.Workload, r.Seed, r.Trace, r.Correct, r.Attempted, r.Failed)
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	for _, d := range metricDefs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		quart := ""
		if m.Q1 != nil {
			quart = fmt.Sprintf("[q1 %.6g, q3 %.6g, n=%d]", *m.Q1, *m.Q3, m.N)
		}
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%s\t%s\n", d.Name, m.Value, m.Unit, d.Tier, quart)
	}
	tw.Flush()
	for _, c := range r.Checks {
		if !c.OK {
			fmt.Fprintf(w, "  CHECK FAILED %s: %s\n", c.Name, c.Detail)
		}
	}
}

// rssSlice is the sampling period of peak_rss_mb.
const rssSlice = time.Second

// restartPeakRSS restarts the kernel's high-water mark of the resident set,
// so that peakRSSMB afterwards reports the peak of what follows. Where the
// kernel refuses, the mark simply keeps covering everything before it.
func restartPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) //nolint:errcheck // see above
}

// rssSampler reads the high-water mark of the resident set once a period
// and restarts it, so a window yields one mark per slice. peak_rss_mb is
// their median: what the process typically holds while it works. The single
// mark of a whole window was whatever the collector's timing let the garbage
// of back-to-back operations reach once — 447 MB in eight runs of
// solve_local and 532 MB in two, with the per-solve marks inside one run
// wandering between 425 and 547 MB around a median of 440.
type rssSampler struct {
	stop  chan struct{}
	marks chan []float64
}

// startRSSSampler first collects garbage and returns freed pages to the
// system: the set-up's garbage is not part of what follows.
func startRSSSampler(period time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), marks: make(chan []float64, 1)}
	debug.FreeOSMemory() // runs a collection first
	restartPeakRSS()
	go func() {
		var marks []float64
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				marks = append(marks, peakRSSMB())
				restartPeakRSS()
			case <-s.stop:
				s.marks <- append(marks, peakRSSMB()) // the last, shorter slice
				return
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the marks, one per slice.
func (s *rssSampler) finish() []float64 {
	close(s.stop)
	return <-s.marks
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// llcBytes reports the largest cache the first CPU sees, 0 when unknown.
func llcBytes() int64 {
	var best int64
	for i := 0; i < 8; i++ {
		b, err := os.ReadFile(fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/size", i))
		if err != nil {
			break
		}
		var v int64
		var unit string
		if n, _ := fmt.Sscanf(strings.TrimSpace(string(b)), "%d%s", &v, &unit); n >= 1 {
			switch unit {
			case "K":
				v <<= 10
			case "M":
				v <<= 20
			}
			best = max(best, v)
		}
	}
	return best
}

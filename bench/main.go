// Command bench is the repository's benchmark: four named workloads — two
// that time the PageRank solver through the pcpm facade and two that drive
// the serving daemon over its HTTP API — with end-to-end metrics from an
// untraced pass and per-layer metrics from a traced pass in which the
// benchmark records its own spans around the calls into each layer.
//
// With -workload it runs one pass of one workload in this process and ends
// its output with the one-line JSON result the benchmark contract in
// BENCHMARK.json describes. Without -workload it runs every workload in a
// fresh child process each, prints every metric by name, and writes one
// result file per run. -compare judges two sets of result files.
// See README.md in this directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

// runConfig is one pass of one workload.
type runConfig struct {
	W       workload
	Seed    uint64
	Seconds float64
	Trace   bool
	Smoke   bool
	OutDir  string
}

// logN is the workload's graph size, shrunk for smoke runs.
func (c runConfig) logN() int {
	if c.Smoke {
		return smokeLogN
	}
	return c.W.LogN
}

func (c runConfig) warmup() float64 {
	if c.Smoke {
		return 0.1
	}
	return warmupSecs
}

func (c runConfig) pprChecks() int {
	if c.Smoke {
		return 4
	}
	return pprChecks
}

func (c runConfig) recoveries() int {
	if c.Smoke {
		return 2
	}
	return recoveryReps
}

// reps scales a probe's repetition count down for smoke runs.
func (c runConfig) reps(full int) int {
	if c.Smoke {
		return max(2, full/8)
	}
	return full
}

// runOne executes one pass and returns its result; the error is for
// failures that leave no result worth reporting.
func runOne(cfg runConfig) (*result, error) {
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, err
	}
	res := newResult(cfg.W.Name, cfg.Seed, cfg.Seconds, cfg.Trace, cfg.Smoke)
	var err error
	switch {
	case cfg.Trace:
		err = runTraced(cfg, res)
	case cfg.W.Serve:
		err = runServe(cfg, res)
	default:
		err = runSolve(cfg, res)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.W.Name, err)
	}
	res.finish()
	if miss := res.missing(); len(miss) > 0 {
		return nil, fmt.Errorf("%s: metrics not reported: %v", cfg.W.Name, miss)
	}
	return res, nil
}

// resultPath names the file a pass writes.
func resultPath(outDir, workload string, seed uint64, trace bool) string {
	kind := "e2e"
	if trace {
		kind = "layers"
	}
	return filepath.Join(outDir, fmt.Sprintf("%s.seed%d.%s.json", workload, seed, kind))
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload in-process and end with the one-line JSON result")
		seed         = flag.Uint64("seed", defaultSeed, "workload seed (7 is the held-out seed for confirming a claim)")
		seconds      = flag.Float64("seconds", 0, "measured seconds per pass (default: run_seconds of BENCHMARK.json)")
		trace        = flag.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics (without -workload: both)")
		runs         = flag.Int("runs", 1, "without -workload: repeat every workload this many times, seeds seed, seed+1, ...")
		outDir       = flag.String("out", "out", "directory for result and trace files")
		smoke        = flag.Bool("smoke", false, "tiny graphs and short phases, for the tests")
		compare      = flag.Bool("compare", false, "compare two result directories: bench -compare A B")
	)
	flag.Parse()
	if *seconds <= 0 {
		*seconds = defaultSeconds
		if *smoke {
			*seconds = 0.4
		}
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(errors.New("usage: bench -compare A B"))
		}
		worse, err := compareDirs(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
	case *workloadName != "":
		w, ok := findWorkload(*workloadName)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		cfg := runConfig{W: w, Seed: *seed, Seconds: *seconds, Trace: *trace != 0, Smoke: *smoke, OutDir: *outDir}
		res, err := runOne(cfg)
		if err != nil {
			fatal(err)
		}
		if err := res.writeFile(resultPath(cfg.OutDir, w.Name, cfg.Seed, cfg.Trace)); err != nil {
			fatal(err)
		}
		res.printTable(os.Stdout)
		line, err := res.driverLine()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
	default:
		if err := runAll(*seed, *seconds, *trace != 0, *runs, *smoke, *outDir); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runAll runs every workload, each pass in a fresh child process of this
// binary, and prints a summary. The untraced pass always runs; the traced
// pass follows when asked for.
func runAll(seed uint64, seconds float64, traced bool, runs int, smoke bool, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	type row struct {
		Workload string  `json:"workload"`
		Seed     uint64  `json:"seed"`
		Trace    bool    `json:"trace"`
		Correct  bool    `json:"correct"`
		Failed   int64   `json:"failed"`
		File     string  `json:"file"`
		Overhead float64 `json:"trace_overhead_ratio,omitempty"`
	}
	var rows []row
	allCorrect := true
	for r := 0; r < runs; r++ {
		for _, w := range workloads {
			for pass := 0; pass < 2; pass++ {
				if pass == 1 && !traced {
					continue
				}
				s := seed + uint64(r)
				args := []string{
					"-workload", w.Name, "-seed", strconv.FormatUint(s, 10),
					"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
					"-trace", strconv.Itoa(pass), "-out", outDir,
				}
				if smoke {
					args = append(args, "-smoke")
				}
				cmd := exec.Command(self, args...)
				cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
				if err := cmd.Run(); err != nil {
					return fmt.Errorf("%s (trace %d): %w", w.Name, pass, err)
				}
				file := resultPath(outDir, w.Name, s, pass == 1)
				res, err := readResult(file)
				if err != nil {
					return err
				}
				allCorrect = allCorrect && res.Correct
				rows = append(rows, row{w.Name, s, pass == 1, res.Correct, res.Failed, file,
					res.Metrics["trace.overhead_ratio"].Value})
			}
		}
	}
	summary, err := json.MarshalIndent(struct {
		GoVersion  string `json:"go_version"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		Runs       []row  `json:"runs"`
		AllCorrect bool   `json:"all_correct"`
		// Claim is always null: this benchmark measures, it does not argue.
		Claim *string `json:"claim"`
	}{runtime.Version(), runtime.GOMAXPROCS(0), rows, allCorrect, nil}, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", summary)
	if !allCorrect {
		return errors.New("some run failed its correctness checks")
	}
	return nil
}

// Command pcpm-loadtest replays a deterministic mixed workload against a
// running rank-serving daemon (pcpm-serve) over HTTP and emits a JSON report
// whose "benchmarks" array holds `go test -bench`-shaped {name, iterations,
// ns_per_op} records. Latencies and error counts are end-to-end; the target is
// launched, and its readiness awaited on /healthz, by whoever runs the replay.
//
// Usage:
//
//	pcpm-loadtest -addr http://127.0.0.1:8080 -graph web -nodes 1791489 -ops 10000
//	pcpm-loadtest -addr http://127.0.0.1:8080 -graph load -nodes 20000 -upload-file load.bin -o load.json
//	pcpm-loadtest -addr http://127.0.0.1:8080 -graph load -nodes 20000 \
//	    -mix 'topk=40,rank=10,ppr=20,mutate=20,recompute=5' -seed 7
//
// -nodes must match the target graph: queries draw vertex IDs from
// [0, nodes). Upload ops re-upload -upload-file (replace=true); without it
// they are dropped from the mix.
//
// The mutate kind exercises the dynamic-graph path: each mutate op POSTs a
// small edge-insert batch to /v1/graphs/{name}/edges and then deletes the
// same batch, so the replayed graph's edge count is conserved. Mutate and
// upload do not compose in one mix (a replace re-upload between the two
// halves invalidates the delete).
//
// The same -seed always replays the same request sequence, so two builds
// of the server can be compared on identical traffic. Any request error
// makes the command exit 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/loadgen"
)

func main() {
	var (
		addr    = flag.String("addr", "", "target server base URL (e.g. http://127.0.0.1:8080)")
		name    = flag.String("graph", "load", "graph registry name to target")
		nodes   = flag.Int("nodes", 50000, "vertex ID space of the target graph")
		ops     = flag.Int("ops", 2000, "total operations to replay")
		conc    = flag.Int("c", 8, "concurrent in-flight requests")
		seed    = flag.Uint64("seed", 42, "workload seed; same seed, same request sequence")
		zipfS   = flag.Float64("zipf", 1.2, "Zipf skew exponent for seed/vertex draws (> 1)")
		k       = flag.Int("k", 10, "top-k payload size of topk/ppr operations")
		batch   = flag.Int("batch", 4, "queries per ppr_batch operation")
		epsilon = flag.Float64("epsilon", 0, "requested PPR epsilon (0 = server default)")
		mixSpec = flag.String("mix", "", `operation mix, e.g. "topk=50,rank=15,ppr=25,batch=6,recompute=2,upload=2" (default: that profile); add mutate=N for edge-update traffic`)
		upload  = flag.String("upload-file", "", "graph file re-uploaded by upload ops")

		promoteURL = flag.String("promote-url", "",
			"follower base URL targeted by promote=N mix traffic (the first promote op performs the failover, the rest measure the idempotent path)")
		out = flag.String("o", "", "write the JSON report here (default stdout)")
	)
	var followers []string
	flag.Func("follower", "replica base URL for follower_read mix traffic (repeatable)", func(v string) error {
		followers = append(followers, v)
		return nil
	})
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "pcpm-loadtest:", err)
		os.Exit(1)
	}
	if *addr == "" {
		fail(fmt.Errorf("need -addr"))
	}

	cfg := loadgen.Config{
		BaseURL:     *addr,
		Graph:       *name,
		Seed:        *seed,
		Ops:         *ops,
		Concurrency: *conc,
		Nodes:       *nodes,
		ZipfS:       *zipfS,
		K:           *k,
		BatchSize:   *batch,
		Epsilon:     *epsilon,

		FollowerURLs: followers,
		PromoteURL:   *promoteURL,
	}
	if *mixSpec != "" {
		mix, err := loadgen.ParseMix(*mixSpec)
		if err != nil {
			fail(err)
		}
		cfg.Mix = mix
	}
	if *upload != "" {
		body, err := os.ReadFile(*upload)
		if err != nil {
			fail(err)
		}
		cfg.UploadBody = body
	}

	rep, err := loadgen.Run(cfg)
	if err != nil {
		fail(err)
	}

	output := struct {
		Kind       string                `json:"kind"`
		Report     *loadgen.Report       `json:"report"`
		Benchmarks []loadgen.BenchRecord `json:"benchmarks"`
	}{
		Kind:       "pcpm-loadtest",
		Report:     rep,
		Benchmarks: rep.BenchRecords(),
	}
	enc, err := json.MarshalIndent(output, "", "  ")
	if err != nil {
		fail(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fail(err)
	}

	fmt.Fprintf(os.Stderr, "pcpm-loadtest: %d ops in %.0f ms (%.0f ops/s), %d errors\n",
		rep.Ops, rep.DurationMS, rep.OpsPerSec, rep.Errors)
	for _, ep := range rep.Endpoints {
		fmt.Fprintf(os.Stderr, "  %-10s %5d ops  p50 %8.3f ms  p99 %8.3f ms  errors %d\n",
			ep.Endpoint, ep.Count, ep.P50MS, ep.P99MS, ep.Errors)
	}
	if rep.Errors > 0 {
		os.Exit(1)
	}
}

// Command pcpm-loadtest replays a deterministic mixed workload against a
// rank-serving daemon and emits a JSON report whose "benchmarks" array
// holds `go test -bench`-shaped {name, iterations, ns_per_op} records.
//
// Two targets:
//
//   - Remote: point -addr at a running pcpm-serve. Latencies and error
//     counts are end-to-end; allocations cannot be observed across the
//     network hop.
//   - Self-contained (-self): generate a graph, start an in-process server
//     on a loopback port, and replay against it. Because client and server
//     share the process, the per-endpoint allocs/op probe sees the serving
//     layer's allocations — the number the engine-pool work optimizes.
//
// Adding -shard-workers N to -self swaps the monolithic in-process server
// for a sharded deployment: N pcpm-shard worker processes are spawned on
// loopback ports (build the binary and point -shard-bin at it), the
// in-process server runs in coordinator mode over them, and the replay
// measures scatter-gather serving on identical traffic to a monolithic
// run — same seed, same schedule, directly comparable reports. Mutate
// traffic does not compose with sharded targets (edge deltas answer 501).
//
// Usage:
//
//	pcpm-loadtest -self -nodes 100000 -ops 5000 -c 16 -o load.json
//	pcpm-loadtest -addr http://127.0.0.1:8080 -graph web -nodes 1791489 -ops 10000
//	pcpm-loadtest -self -mix 'topk=10,ppr=60,batch=20,recompute=5,upload=5' -seed 7
//	pcpm-loadtest -self -mix 'topk=40,rank=10,ppr=20,mutate=20,recompute=5' -seed 7
//	pcpm-loadtest -self -data-dir /tmp/pcpm-load -mix 'topk=40,mutate=20,restart=2'
//	pcpm-loadtest -self -shard-workers 2 -shard-bin ./pcpm-shard -ops 3000
//
// The mutate kind exercises the dynamic-graph path: each mutate op POSTs a
// small edge-insert batch to /v1/graphs/{name}/edges and then deletes the
// same batch, so the replayed graph's edge count is conserved. Mutate and
// upload do not compose in one mix (a replace re-upload between the two
// halves invalidates the delete).
//
// The restart kind (requires -self with -data-dir) exercises crash
// recovery under load: each restart op closes the in-process server and
// recovers a fresh one from the data directory while the rest of the
// traffic is held back, so the restart's latency sample is the recovery
// time.
//
// The same -seed always replays the same request sequence, so two builds
// of the server can be compared on identical traffic.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sync"
	"sync/atomic"
	"time"

	pcpm "repro"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/loadgen"
	"repro/internal/serve"
)

func main() {
	var (
		addr    = flag.String("addr", "", "target server base URL (e.g. http://127.0.0.1:8080); empty with -self runs in-process")
		self    = flag.Bool("self", false, "start an in-process server with a generated graph (enables allocs/op)")
		name    = flag.String("graph", "load", "graph registry name to target")
		nodes   = flag.Int("nodes", 50000, "vertex ID space of the target graph (generated size with -self)")
		degree  = flag.Int("degree", 8, "average out-degree of the generated graph (-self)")
		ops     = flag.Int("ops", 2000, "total operations to replay")
		conc    = flag.Int("c", 8, "concurrent in-flight requests")
		seed    = flag.Uint64("seed", 42, "workload seed; same seed, same request sequence")
		zipfS   = flag.Float64("zipf", 1.2, "Zipf skew exponent for seed/vertex draws (> 1)")
		k       = flag.Int("k", 10, "top-k payload size of topk/ppr operations")
		batch   = flag.Int("batch", 4, "queries per ppr_batch operation")
		epsilon = flag.Float64("epsilon", 0, "requested PPR epsilon (0 = server default)")
		mixSpec = flag.String("mix", "", `operation mix, e.g. "topk=50,rank=15,ppr=25,batch=6,recompute=2,upload=2" (default: that profile); add mutate=N for edge-update traffic`)
		upload  = flag.String("upload-file", "", "graph file re-uploaded by upload ops (remote mode; -self uses the generated graph)")
		dataDir = flag.String("data-dir", "",
			"durable data directory for the -self server; required for restart=N mix traffic (each restart op recovers the server from it)")
		promoteURL = flag.String("promote-url", "",
			"follower base URL targeted by promote=N mix traffic (the first promote op performs the failover, the rest measure the idempotent path)")
		shardWorkers = flag.Int("shard-workers", 0,
			"with -self: spawn this many pcpm-shard worker processes and run the in-process server in coordinator mode over them (0 = monolithic)")
		shardBin = flag.String("shard-bin", "pcpm-shard",
			"pcpm-shard binary spawned for -shard-workers (path or $PATH name)")
		out = flag.String("o", "", "write the JSON report here (default stdout)")
	)
	var followers []string
	flag.Func("follower", "replica base URL for follower_read mix traffic (repeatable)", func(v string) error {
		followers = append(followers, v)
		return nil
	})
	flag.Parse()

	// cleanup tears down spawned shard-worker processes; os.Exit skips
	// defers, so every exit path calls it explicitly (it is idempotent).
	cleanup := func() {}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "pcpm-loadtest:", err)
		cleanup()
		os.Exit(1)
	}

	cfg := loadgen.Config{
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

	switch {
	case *self && *shardWorkers > 0:
		if *dataDir != "" {
			fail(fmt.Errorf("-shard-workers is memory-only; it does not compose with -data-dir"))
		}
		base, body, stop, err := startShardTarget(*name, *nodes, *degree, *seed, *shardWorkers, *shardBin)
		if err != nil {
			fail(err)
		}
		cleanup = stop
		cfg.BaseURL = base
		cfg.UploadBody = body
		cfg.MeasureAllocs = true
		cfg.Deployment = fmt.Sprintf("sharded-%d", *shardWorkers)
		fmt.Fprintf(os.Stderr, "pcpm-loadtest: in-process coordinator at %s over %d shard workers (%d nodes)\n",
			base, *shardWorkers, *nodes)
	case *self:
		base, body, restart, err := startSelfTarget(*name, *nodes, *degree, *seed, *dataDir)
		if err != nil {
			fail(err)
		}
		cfg.BaseURL = base
		cfg.UploadBody = body
		cfg.RestartFn = restart
		cfg.MeasureAllocs = true
		cfg.Deployment = "monolithic"
		fmt.Fprintf(os.Stderr, "pcpm-loadtest: in-process server at %s (%d nodes)\n", base, *nodes)
	case *addr != "":
		cfg.BaseURL = *addr
		if *upload != "" {
			body, err := os.ReadFile(*upload)
			if err != nil {
				fail(err)
			}
			cfg.UploadBody = body
		}
	default:
		fail(fmt.Errorf("need -addr or -self"))
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
		line := fmt.Sprintf("  %-10s %5d ops  p50 %8.3f ms  p99 %8.3f ms  errors %d",
			ep.Endpoint, ep.Count, ep.P50MS, ep.P99MS, ep.Errors)
		if ep.AllocsPerOp > 0 {
			line += fmt.Sprintf("  allocs/op %.0f", ep.AllocsPerOp)
		}
		fmt.Fprintln(os.Stderr, line)
	}
	cleanup()
	if rep.Errors > 0 {
		os.Exit(1)
	}
}

// startShardTarget builds the sharded self-contained deployment: n
// pcpm-shard worker processes on free loopback ports, each polled on
// /healthz until ready, fronted by an in-process coordinator-mode server
// holding the generated graph. The returned cleanup kills the workers; it
// is safe to call more than once.
func startShardTarget(name string, nodes, degree int, seed uint64, n int, bin string) (string, []byte, func(), error) {
	g, err := gen.PreferentialAttachment(nodes, degree, seed, graph.BuildOptions{})
	if err != nil {
		return "", nil, nil, err
	}
	var bin64 bytes.Buffer
	if err := pcpm.SaveBinary(&bin64, g); err != nil {
		return "", nil, nil, err
	}

	// Reserve n loopback ports by listening and closing: the tiny window
	// before the worker binds is harmless on a loadtest box.
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", nil, nil, err
		}
		addrs[i] = l.Addr().String()
		l.Close()
	}

	var procs []*exec.Cmd
	var once sync.Once
	cleanup := func() {
		once.Do(func() {
			for _, cmd := range procs {
				cmd.Process.Kill() //nolint:errcheck // best-effort teardown
				cmd.Wait()         //nolint:errcheck // reap; exit state is irrelevant
			}
		})
	}
	for _, addr := range addrs {
		cmd := exec.Command(bin, "-addr", addr)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			cleanup()
			return "", nil, nil, fmt.Errorf("spawning %s: %w (build it with: go build ./cmd/pcpm-shard)", bin, err)
		}
		procs = append(procs, cmd)
	}
	urls := make([]string, n)
	for i, addr := range addrs {
		urls[i] = "http://" + addr
		if err := waitHealthy(urls[i], 10*time.Second); err != nil {
			cleanup()
			return "", nil, nil, err
		}
	}

	srv := serve.New(serve.Config{
		Defaults:     pcpm.Options{Iterations: 10},
		ShardWorkers: urls,
	})
	if _, err := srv.AddGraph(name, g, pcpm.Options{}, false); err != nil {
		cleanup()
		return "", nil, nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cleanup()
		return "", nil, nil, err
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go hs.Serve(l) //nolint:errcheck // lives for the process
	return "http://" + l.Addr().String(), bin64.Bytes(), cleanup, nil
}

// waitHealthy polls base's /healthz until it answers 200 or the budget runs
// out — the readiness contract that replaces sleep loops.
func waitHealthy(base string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("worker at %s not healthy after %v: %v", base, budget, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// startSelfTarget generates a deterministic scale-free graph (preferential
// attachment, like a follower network), loads it into an in-process serving
// daemon on a loopback port, and returns the base URL, the graph's binary
// serialization (the re-upload payload), and — when dataDir is set — a
// restart function that tears the server down and recovers a fresh one
// from the data directory, the in-process analogue of relaunching
// pcpm-serve -data-dir on the same port.
func startSelfTarget(name string, nodes, degree int, seed uint64, dataDir string) (string, []byte, func() error, error) {
	g, err := gen.PreferentialAttachment(nodes, degree, seed, graph.BuildOptions{})
	if err != nil {
		return "", nil, nil, err
	}
	var bin bytes.Buffer
	if err := pcpm.SaveBinary(&bin, g); err != nil {
		return "", nil, nil, err
	}

	opts := pcpm.Options{Iterations: 10}
	newServer := func() (*serve.Server, error) {
		srv := serve.New(serve.Config{Defaults: opts, DataDir: dataDir})
		if _, err := srv.Recover(); err != nil {
			return nil, err
		}
		return srv, nil
	}
	srv, err := newServer()
	if err != nil {
		return "", nil, nil, err
	}
	if _, err := srv.AddGraph(name, g, opts, false); err != nil {
		return "", nil, nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, nil, err
	}
	// The listener outlives individual servers: restarts swap the handler
	// behind it, so the base URL stays stable across recoveries.
	var handler atomic.Value
	handler.Store(srv.Handler())
	hs := &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			handler.Load().(http.Handler).ServeHTTP(w, r)
		}),
		ReadHeaderTimeout: 10 * time.Second,
	}
	go hs.Serve(l) //nolint:errcheck // lives for the process

	var restart func() error
	if dataDir != "" {
		cur := srv
		restart = func() error {
			if err := cur.CloseDurable(); err != nil {
				return err
			}
			next, err := newServer()
			if err != nil {
				return err
			}
			handler.Store(next.Handler())
			cur = next
			return nil
		}
	}
	return "http://" + l.Addr().String(), bin.Bytes(), restart, nil
}

// Command pcpm-serve runs the rank-serving HTTP daemon: it loads graphs (at
// startup from -graph flags, or over HTTP), computes PageRank with the PCPM
// engine, caches the rank vectors, and answers top-k / per-vertex queries
// while recomputes run in the background.
//
// Usage:
//
//	pcpm-serve -addr :8080 -graph web=web.bin -graph kron=kron.txt
//	curl -XPOST --data-binary @edges.txt 'localhost:8080/v1/graphs?name=mine'
//	curl 'localhost:8080/v1/graphs/mine/topk?k=5'
//	curl -XPOST 'localhost:8080/v1/graphs/mine/ppr' -d '{"seeds":[42],"k":10}'
//	curl -XPOST 'localhost:8080/v1/graphs/mine/edges' \
//	     -d '{"insert":[[3,9],[7,1]],"delete":[[4,2]]}'
//	curl -XPOST 'localhost:8080/v1/graphs/mine/recompute?wait=true' \
//	     -d '{"damping":0.9}'
//
// Graph uploads are capped by -max-upload (default 1 GiB); larger bodies
// get 413 Request Entity Too Large. Personalized PageRank answers are
// cached per graph in an LRU sized by -ppr-cache; cache misses and edge
// repairs borrow engine scratch from a per-graph pool sized by -ppr-pool.
// Batched edge updates repair the published ranks incrementally (falling
// back to a full engine run when a batch dirties too much rank mass) and
// are capped at -max-delta-edges changes per request.
//
// With -follow the daemon runs as a read-only replica: it bootstraps from
// the leader's snapshots, tails its WAL stream, serves every read endpoint
// from its own copies, and answers writes with 503 + the leader's address.
// Giving a follower -data-dir keeps the directory dormant until promotion:
// POST /v1/repl/promote (or SIGUSR1, or `pcpm-serve -promote <url>` from
// another shell) stops the tail loop, adopts the dir as a fresh WAL seeded
// with the follower's current state, and starts accepting writes in place:
//
//	pcpm-serve -addr :8081 -follow http://leader:8080 -data-dir /var/f1
//	curl 'localhost:8081/v1/repl/status'
//	# leader died:
//	pcpm-serve -promote http://localhost:8081
//	# re-aim the other follower:
//	curl -XPOST 'localhost:8082/v1/repl/reaim' -d '{"leader":"http://localhost:8081"}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	pcpm "repro"
	"repro/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		iters     = flag.Int("iters", 20, "default fixed iteration count")
		tol       = flag.Float64("tol", 0, "default convergence tolerance (0 = fixed iterations)")
		damping   = flag.Float64("damping", 0.85, "default damping factor")
		partBytes = flag.Int("partition", 256<<10, "default partition/bin size in bytes")
		workers   = flag.Int("workers", 0, "default worker count (0 = GOMAXPROCS)")
		maxUpload = flag.Int64("max-upload", 1<<30,
			"largest accepted graph upload in bytes; POST /v1/graphs bodies past this are rejected with 413 Request Entity Too Large")
		pprCache = flag.Int("ppr-cache", 128, "personalized-PageRank answers cached per graph (LRU)")
		pprPool  = flag.Int("ppr-pool", 4,
			"idle personalized-PageRank engines retained per graph for cache misses and edge-delta repairs (16 bytes/node each; negative disables pooling)")
		maxDelta = flag.Int("max-delta-edges", 100000,
			"largest edge-update batch (insertions+deletions) accepted by POST /v1/graphs/{name}/edges; bigger batches get 413 (negative removes the limit)")
		dataDir = flag.String("data-dir", "",
			"durable data directory (write-ahead log + snapshots); empty keeps graphs memory-only and a restart loses them")
		fsync = flag.String("fsync", "always",
			"WAL fsync policy with -data-dir: always (every append), never, or an interval like 100ms")
		checkpointEvery = flag.Duration("checkpoint-every", 5*time.Minute,
			"interval between snapshot checkpoints with -data-dir (0 disables periodic checkpoints; one is always taken on graceful shutdown)")
		follow = flag.String("follow", "",
			"run as a read-only follower of the leader at this base URL (e.g. http://leader:8080); incompatible with -graph. With -data-dir the directory lies dormant as the promotion target")
		followPoll = flag.Duration("follow-poll", 25*time.Second,
			"long-poll window per WAL tail request in follower mode")
		promoteURL = flag.String("promote", "",
			"client mode: ask the follower at this base URL to promote itself to leader, print the report, and exit")
		verbose = flag.Bool("v", false, "debug logging")
	)
	var preload []string
	flag.Func("graph", "preload a graph as name=path (repeatable)", func(v string) error {
		if !strings.Contains(v, "=") {
			return errors.New("want name=path")
		}
		preload = append(preload, v)
		return nil
	})
	flag.Parse()

	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	if *promoteURL != "" {
		os.Exit(runPromote(*promoteURL))
	}

	fsyncEvery, err := parseFsync(*fsync)
	if err != nil {
		logger.Error("bad -fsync", "error", err)
		os.Exit(2)
	}
	// A follower's state is exactly the leader's log, so preloaded graphs
	// would diverge from it. A -data-dir, by contrast, is allowed: Recover
	// leaves it untouched and promotion adopts it.
	if *follow != "" && len(preload) > 0 {
		logger.Error("-follow is incompatible with -graph: a follower's graphs come from the leader")
		os.Exit(2)
	}

	srv := serve.New(serve.Config{
		Defaults: pcpm.Options{
			Damping:        *damping,
			Iterations:     *iters,
			Tolerance:      *tol,
			PartitionBytes: *partBytes,
			Workers:        *workers,
		},
		Logger:            logger,
		MaxUploadBytes:    *maxUpload,
		PPRCacheSize:      *pprCache,
		PPREnginePoolSize: *pprPool,
		MaxDeltaEdges:     *maxDelta,
		DataDir:           *dataDir,
		FsyncEvery:        fsyncEvery,
		FollowAddr:        *follow,
		FollowPollWait:    *followPoll,
	})

	// Warm recovery before preload and before accepting traffic: load the
	// newest snapshots, replay the log tail, fail closed on corruption.
	report, err := srv.Recover()
	if err != nil {
		logger.Error("recovery failed", "data-dir", *dataDir, "error", err)
		os.Exit(1)
	}
	recovered := make(map[string]bool)
	for _, name := range srv.Names() {
		recovered[name] = true
	}

	for _, spec := range preload {
		name, path, _ := strings.Cut(spec, "=")
		if recovered[name] {
			// The durable copy (which may carry applied edge deltas) wins
			// over re-ingesting the original file.
			logger.Info("preload skipped: recovered from data dir", "graph", name)
			continue
		}
		if err := loadFile(srv, name, path); err != nil {
			logger.Error("preload failed", "graph", name, "path", path, "error", err)
			os.Exit(1)
		}
	}
	switch {
	case *dataDir != "" && *follow != "":
		logger.Info("data dir dormant until promotion", "data-dir", *dataDir)
	case *dataDir != "":
		logger.Info("durability on", "data-dir", *dataDir, "fsync", *fsync,
			"recovered_graphs", report.Graphs, "replayed", report.Replayed,
			"drift_recomputes", report.DriftRecomputes)
	}

	var stopCheckpoints chan struct{}
	if *dataDir != "" && *checkpointEvery > 0 {
		stopCheckpoints = make(chan struct{})
		go func() {
			t := time.NewTicker(*checkpointEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					if err := srv.Checkpoint(); err != nil {
						logger.Error("checkpoint failed", "error", err)
					}
				case <-stopCheckpoints:
					return
				}
			}
		}()
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// SIGUSR1 promotes a follower in place (same path as the HTTP endpoint;
	// harmless on a server that is already a leader).
	usr1 := make(chan os.Signal, 1)
	signal.Notify(usr1, syscall.SIGUSR1)
	go func() {
		for range usr1 {
			rep, err := srv.Promote()
			if err != nil {
				logger.Error("promotion failed", "error", err)
				continue
			}
			logger.Info("promotion signal handled", "promoted", rep.Promoted,
				"cut_lsn", rep.CutLSN, "next_lsn", rep.NextLSN, "graphs", rep.Graphs)
		}
	}()

	followDone := make(chan struct{})
	if *follow != "" {
		go func() {
			defer close(followDone)
			logger.Info("following", "leader", *follow)
			if err := srv.Follow(ctx); err != nil && !errors.Is(err, context.Canceled) {
				logger.Error("follower loop failed", "error", err)
			}
		}()
	} else {
		close(followDone)
	}

	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr, "graphs", srv.NumGraphs())
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		logger.Error("server failed", "error", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	logger.Info("shutting down")
	stop() // cancels the follower loop's ctx
	<-followDone
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logger.Error("shutdown incomplete", "error", err)
		os.Exit(1)
	}
	if stopCheckpoints != nil {
		close(stopCheckpoints)
	}
	// Final checkpoint + store close, so the next start replays (almost)
	// nothing. A crash skips this — that is what recovery is for.
	if err := srv.CloseDurable(); err != nil {
		logger.Error("durable close failed", "error", err)
		os.Exit(1)
	}
	logger.Info("bye")
}

// runPromote is the -promote client mode: one POST to the target's promote
// endpoint, report to stdout, exit code by HTTP status.
func runPromote(base string) int {
	resp, err := http.Post(strings.TrimRight(base, "/")+"/v1/repl/promote", "application/json", nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "promote:", err)
		return 1
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	os.Stdout.Write(body)
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(os.Stderr, "promote: %s answered %s\n", base, resp.Status)
		return 1
	}
	return 0
}

// parseFsync maps the -fsync flag to serve.Config.FsyncEvery: "always" →
// 0 (fsync every append), "never" → -1, otherwise a positive duration.
func parseFsync(v string) (time.Duration, error) {
	switch v {
	case "always":
		return 0, nil
	case "never":
		return -1, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil || d <= 0 {
		return 0, fmt.Errorf("want always, never, or a positive duration, got %q", v)
	}
	return d, nil
}

// loadFile ingests one preload graph, auto-detecting its format.
func loadFile(srv *serve.Server, name, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	g, err := pcpm.LoadGraph(f)
	if err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	_, err = srv.AddGraph(name, g, pcpm.Options{}, false)
	return err
}

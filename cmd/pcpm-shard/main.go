// Command pcpm-shard runs the distributed serving tier: shard workers that
// each own a contiguous row block of a graph's CSR and run partition-centric
// PageRank rounds against their block, and a coordinator that fronts a fleet
// of workers behind the exact HTTP API pcpm-serve exposes.
//
// Worker mode (no -workers flag) owns row blocks and exchanges rank slices
// with its peers each round:
//
//	pcpm-shard -addr :9001
//	pcpm-shard -addr :9002
//
// Coordinator mode (-workers) ingests graphs, splits them into contiguous
// row blocks balanced by in-degree (component-aware when the graph has SCC
// structure), ships one block payload per worker, drives distributed solves
// to convergence, and gathers the blocks into one rank vector that it
// serves like a monolithic pcpm-serve — clients cannot tell the two apart:
//
//	pcpm-shard -addr :8080 -workers http://localhost:9001,http://localhost:9002
//	curl -XPOST --data-binary @edges.txt 'localhost:8080/v1/graphs?name=mine'
//	curl 'localhost:8080/v1/graphs/mine/topk?k=5'
//	curl -XPOST 'localhost:8080/v1/graphs/mine/edges' -d '{"insert":[[3,9]]}'
//	curl -XPOST 'localhost:8080/v1/graphs/mine/recompute?wait=true' -d '{"damping":0.9}'
//
// Reads never touch the workers, so they keep answering while one is down;
// an ingest, recompute or delta fallback that needs the fleet answers 503
// naming the missing worker. The coordinator is memory-only: -data-dir and
// -follow are pcpm-serve's flags. GET /healthz reports readiness on both
// modes so orchestration can poll instead of sleeping.
package main

import (
	"context"
	"flag"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	pcpm "repro"
	"repro/internal/serve"
	"repro/internal/shard"
)

func main() {
	var (
		addr    = flag.String("addr", ":9000", "listen address")
		workers = flag.String("workers", "",
			"coordinator mode: comma-separated worker base URLs (e.g. http://h1:9001,http://h2:9001); empty runs as a worker")
		iters     = flag.Int("iters", 20, "default fixed iteration count")
		tol       = flag.Float64("tol", 0, "default convergence tolerance (0 = fixed iterations)")
		damping   = flag.Float64("damping", 0.85, "default damping factor")
		partBytes = flag.Int("partition", 256<<10, "default partition/bin size in bytes")
		engWork   = flag.Int("engine-workers", 0, "default per-process worker-thread count (0 = GOMAXPROCS)")
		maxUpload = flag.Int64("max-upload", 1<<30,
			"coordinator mode: largest accepted graph upload in bytes; bigger bodies get 413")
		solveTimeout = flag.Duration("solve-timeout", 10*time.Minute,
			"coordinator mode: wall-clock budget for one distributed solve")
		swapWait = flag.Duration("swap-wait", shard.DefaultSwapWait,
			"worker mode: how long a round waits for peer rank slices before declaring the fleet broken")
		verbose = flag.Bool("v", false, "debug logging")
	)
	flag.Parse()

	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	var handler http.Handler
	if *workers == "" {
		w := shard.NewWorker(shard.WorkerConfig{
			Logger:   log.New(os.Stderr, "worker ", log.LstdFlags|log.Lmsgprefix),
			SwapWait: *swapWait,
		})
		handler = w.Handler()
		logger.Info("shard worker mode", "addr", *addr)
	} else {
		urls := strings.Split(*workers, ",")
		for i := range urls {
			urls[i] = strings.TrimSpace(urls[i])
		}
		srv := serve.New(serve.Config{
			Defaults: pcpm.Options{
				Damping:        *damping,
				Iterations:     *iters,
				Tolerance:      *tol,
				PartitionBytes: *partBytes,
				Workers:        *engWork,
			},
			Logger:            logger,
			MaxUploadBytes:    *maxUpload,
			ShardWorkers:      urls,
			ShardSolveTimeout: *solveTimeout,
		})
		handler = srv.Handler()
		logger.Info("shard coordinator mode", "addr", *addr, "workers", len(urls))
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		logger.Error("server failed", "error", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	logger.Info("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logger.Error("shutdown incomplete", "error", err)
		os.Exit(1)
	}
	logger.Info("bye")
}

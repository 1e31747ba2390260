// Command pcpm-shard runs one shard worker of the distributed serving tier:
// it owns contiguous row blocks of a graph's CSR, runs partition-centric
// PageRank rounds against them, and exchanges rank slices with its peers
// each round.
//
//	pcpm-shard -addr :9001
//	pcpm-shard -addr :9002
//
// The coordinator is pcpm-serve with -shard-workers: it ingests graphs,
// splits them into row blocks balanced by in-degree, ships one block payload
// per worker, drives distributed solves to convergence, and gathers the
// blocks into one rank vector that it serves like any other pcpm-serve —
// durability (-data-dir) and following (-follow) included:
//
//	pcpm-serve -addr :8080 -shard-workers http://localhost:9001,http://localhost:9002
//	curl -XPOST --data-binary @edges.txt 'localhost:8080/v1/graphs?name=mine'
//	curl 'localhost:8080/v1/graphs/mine/topk?k=5'
//
// Reads never touch the workers, so they keep answering while one is down;
// an ingest, recompute or delta fallback that needs the fleet answers 503
// naming the missing worker. GET /healthz reports readiness so
// orchestration can poll instead of sleeping.
package main

import (
	"context"
	"flag"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/shard"
)

func main() {
	var (
		addr     = flag.String("addr", ":9000", "listen address")
		swapWait = flag.Duration("swap-wait", shard.DefaultSwapWait,
			"how long a round waits for peer rank slices before declaring the fleet broken")
		verbose = flag.Bool("v", false, "debug logging")
	)
	flag.Parse()

	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	w := shard.NewWorker(shard.WorkerConfig{
		Logger:   log.New(os.Stderr, "worker ", log.LstdFlags|log.Lmsgprefix),
		SwapWait: *swapWait,
	})
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           w.Handler(),
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

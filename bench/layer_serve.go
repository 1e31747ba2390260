package main

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/serve"
)

// serveProbe is the server the serving-shaped probes share: durable (so the
// delta, wal and repl probes have a log), hosting env.small.
type serveProbe struct {
	env     *probeEnv
	s       *served
	c       *client
	g       *graph.Graph
	n       int
	dataDir string
}

// probeK is the answer size the read probes ask for over HTTP. The traffic
// asks for 10, and the cache keys on the size: with a size of their own the
// probes find nothing the traffic before them left behind, so the HTTP call
// and the direct call (probeK+1) hit only on repeats within their own list
// and stay comparable.
const probeK = 12

// probeQueries is the fixed list of personalized seed sets that the HTTP
// call, the direct Server call and the ppr layer call are all given.
func probeQueries(env *probeEnv, n int) [][]uint32 {
	sched := newReadSchedule(env.cfg.Seed, 0x9e0b, n)
	sets := make([][]uint32, env.cfg.reps(8))
	for i := range sets {
		sets[i] = sched.seedSet()
	}
	return sets
}

// probeServe starts the server, measures ingest, repeats the workload's
// traffic without and with spans (serving workloads), then probes the read
// endpoints from the outside in, and hands the server to the delta, wal and
// repl probes.
func probeServe(env *probeEnv) (err error) {
	sp := &serveProbe{env: env, g: env.small, n: env.small.NumNodes(), dataDir: filepath.Join(env.workDir, "probe-data")}
	if err := os.MkdirAll(sp.dataDir, 0o755); err != nil {
		return err
	}
	if sp.s, err = startServer(serve.Config{DataDir: sp.dataDir}); err != nil {
		return err
	}
	defer func() { err = errors.Join(err, sp.s.close()) }()
	sp.c = newClient(sp.s.url)
	defer sp.c.closeIdle()

	secs, err := env.timed("serve.ingest", env.root, func() error { return sp.s.ingest(sp.c.hc, sp.g) })
	if err != nil {
		return err
	}
	env.res.put("serve.ingest_s", secs)

	if env.cfg.W.Serve {
		if err := sp.trafficOverhead(); err != nil {
			return err
		}
	}
	for _, step := range []func() error{sp.reads, sp.knee, sp.deltas, sp.wal, sp.repl} {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// trafficOverhead runs the workload's clients for half of the run's seconds,
// about every other operation inside spans, and compares the headline
// latency of the two samples: personalized misses when only reading, edge
// deltas when writing.
func (sp *serveProbe) trafficOverhead() error {
	env := sp.env
	var ws *writeSchedule
	if env.cfg.W.Writer {
		ws = newWriteSchedule(env.cfg.Seed, sp.n, hubVertices(sp.g, hubCount))
	}
	w := newWindow(env.cfg.warmup(), env.cfg.Seconds/2)
	reads, writes := traffic(sp.s, newReaders(env.cfg, sp.n, ws != nil), ws, sp.dataDir, w, env.tr)
	env.res.Attempted += reads.Attempted + writes.Attempted
	env.res.Failed += reads.Failed + writes.Failed
	env.res.check("traffic_succeeds", errors.Join(reads.FirstErr, writes.FirstErr))
	plain, traced := reads.PPRMiss, reads.Traced.PPRMiss
	if ws != nil {
		plain, traced = writes.mutations(), writes.Traced.mutations()
	}
	if len(plain) == 0 || len(traced) == 0 {
		return errors.New("the headline operation completed nothing in the traffic window")
	}
	env.res.put("trace.overhead_ratio", summarize(traced).Median/summarize(plain).Median)
	if ws != nil {
		for _, o := range ws.drain() {
			if _, err := sp.c.exec(o); err != nil {
				return err
			}
		}
	}
	return nil
}

// reads probes each read endpoint alone on an otherwise idle server: over
// HTTP, then the Server method the handler calls. The layer below
// (ppr.Engine.Run on the same seed sets) is probePPR.
func (sp *serveProbe) reads() error {
	env := sp.env
	var cached, answers int // personalized answers over HTTP: from the cache / in total
	httpMillis := func(name string, n int, next func(i int) op) (ms []float64, allocs float64, err error) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		secs, err := env.repeat("http."+name, env.root, n, func(i int) error {
			out, xerr := sp.c.exec(next(i))
			cached, answers = cached+out.Cached, answers+out.Answers
			return xerr
		})
		runtime.ReadMemStats(&after)
		return scale(secs, 1000), float64(after.Mallocs-before.Mallocs) / float64(n), err
	}

	topk, allocs, err := httpMillis("topk", env.cfg.reps(400), func(int) op { return op{Kind: opTopK, K: 10} })
	if err != nil {
		return err
	}
	env.res.putMedian("serve.topk.http_p50_ms", topk)
	env.res.put("serve.topk.http_p99_ms", percentile(topk, 0.99))
	// Client and server share the process, so this counts both sides.
	env.res.put("serve.topk.allocs_per_op", allocs)

	directN := env.cfg.reps(2000)
	secs, err := env.timed("serve.Server.TopK", env.root, func() error {
		for i := 0; i < directN; i++ {
			if _, _, terr := sp.s.srv.TopK(graphName, 10); terr != nil {
				return terr
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	env.res.put("serve.topk.direct_us", secs/float64(directN)*1e6)

	sched := newReadSchedule(env.cfg.Seed, 0x7a4c, sp.n)
	rank, _, err := httpMillis("rank", env.cfg.reps(200), func(int) op { return op{Kind: opRank, Vertex: sched.popular()} })
	if err != nil {
		return err
	}
	env.res.putMedian("serve.rank.http_p50_ms", rank)

	sets := probeQueries(env, sp.n)
	ppr, allocs, err := httpMillis("ppr", len(sets), func(i int) op {
		return op{Kind: opPPR, K: probeK, Seeds: [][]uint32{sets[i]}}
	})
	if err != nil {
		return err
	}
	env.res.putMedian("serve.ppr.http_p50_ms", ppr)
	env.res.put("serve.ppr.http_p99_ms", percentile(ppr, 0.99))
	env.res.put("serve.ppr.allocs_per_op", allocs)

	// The same seed sets straight into the Server, asking for one entry
	// more so the answers are not already in the cache under the HTTP
	// call's key: repeats within the list hit exactly as they did above.
	direct, err := env.repeat("serve.Server.Personalized", env.root, len(sets), func(i int) (err error) {
		_, err = sp.s.srv.Personalized(graphName, [][]uint32{sets[i]}, probeK+1, 0)
		return err
	})
	if err != nil {
		return err
	}
	env.res.putMedian("serve.ppr.direct_p50_ms", scale(direct, 1000))

	batches := env.cfg.reps(2)
	batch, _, err := httpMillis("ppr_batch", batches, func(i int) op {
		o := op{Kind: opPPRBatch, K: probeK, Seeds: make([][]uint32, pprBatchSize)}
		for j := range o.Seeds {
			o.Seeds[j] = sched.seedSet()
		}
		return o
	})
	if err != nil {
		return err
	}
	env.res.putMedian("serve.ppr_batch.http_p50_ms", batch)
	// Seed sets are Zipf-drawn, so some repeat: the wire "cached" flag says
	// how many of the answers above came from the per-graph LRU.
	env.res.put("serve.ppr_cache.hit_ratio", float64(cached)/float64(max(answers, 1)))
	env.tr.count("serve.ppr_cache.hits", int64(cached))
	return nil
}

// Open-loop ladder: fixed request rates, each held for kneeStepSecs, with
// latency counted from the moment a request was due. The knee is the
// highest rate whose 90th-percentile latency stays within kneeLimit and
// whose last request is sent no later than kneeLimit after it was due.
const (
	kneeStepSecs = 1.0
	kneeLimit    = time.Second
)

var kneeRates = [...]float64{5, 10, 20, 40}

func (sp *serveProbe) knee() error {
	env := sp.env
	stepSecs := kneeStepSecs
	if env.cfg.Smoke {
		stepSecs = 0.2
	}
	sched := newReadSchedule(env.cfg.Seed, 0x0e0e, sp.n)
	var knee float64
	var late []float64
	for _, rate := range kneeRates {
		count := max(int(rate*stepSecs), 2)
		ops := make([]op, count)
		for i := range ops {
			ops[i] = sched.next()
		}
		sp.env.tr.count("knee.requests", int64(count))
		latMS, lateMS, sent := sp.openLoop(ops, rate)
		ok := sent == count && percentile(latMS, 0.9) <= float64(kneeLimit/time.Millisecond)
		if !ok {
			break // the backlog only grows from here
		}
		knee = rate
		late = append(late, lateMS...)
	}
	if len(late) == 0 {
		late = []float64{float64(kneeLimit / time.Millisecond)}
	}
	env.res.put("serve.knee_rps", knee)
	env.res.put("bench.gen_late_p99_ms", percentile(late, 0.99))
	return nil
}

// openLoop sends ops at rate per second from one sender per CPU, each with
// its own connection. A request whose turn comes more than kneeLimit after
// it was due is not sent (it has already missed the limit). It returns the
// latencies from due time, how late each send was, and how many were sent.
func (sp *serveProbe) openLoop(ops []op, rate float64) (latMS, lateMS []float64, sent int) {
	start := time.Now().Add(10 * time.Millisecond)
	type job struct {
		o   op
		due time.Time
	}
	jobs := make(chan job, len(ops)) // sized to the number of sends: the schedule never blocks on a slow sender
	for i, o := range ops {
		jobs <- job{o, start.Add(time.Duration(float64(i) / rate * float64(time.Second)))}
	}
	close(jobs)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(sp.s.url)
			defer c.closeIdle()
			for j := range jobs {
				time.Sleep(time.Until(j.due))
				lateBy := time.Since(j.due)
				if lateBy > kneeLimit {
					continue
				}
				span := sp.env.tr.begin("http.open_loop."+j.o.Kind.String(), sp.env.root, 0)
				_, err := c.exec(j.o)
				sp.env.tr.end(span)
				lat := time.Since(j.due)
				if err != nil {
					lat = 2 * kneeLimit // a failed request misses any limit
				}
				mu.Lock()
				sent++
				latMS = append(latMS, float64(lat)/float64(time.Millisecond))
				lateMS = append(lateMS, float64(lateBy)/float64(time.Millisecond))
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(latMS) == 0 {
		latMS = []float64{float64(2 * kneeLimit / time.Millisecond)}
	}
	return latMS, lateMS, sent
}

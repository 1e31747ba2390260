package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	pcpm "repro"
	"repro/internal/graph"
	"repro/internal/serve"
)

const (
	graphName    = "g"
	warmupSecs   = 2.0
	pprChecks    = 16   // served personalized answers compared with the oracle
	pprSlack     = 1e-6 // L1 slack of that comparison (the engine's epsilon is 1e-7)
	hubCount     = 4096 // vertices of highest in-degree the "hub" deltas draw from
	recoveryReps = 3
	// recoveryDeltas is how many edge deltas follow the checkpoint, so that
	// recovery has a log tail to replay: half insert a batch, half delete it.
	recoveryDeltas  = 16
	recoveredLimit  = 1e-6 // L1 between recovered and pre-crash served ranks
	pprOracleTol    = 1e-8
	pprOracleSweeps = 300
	minRecordedOps  = 8 // per client and window; the kind cycle has reached ppr by then
)

// served is an in-process serve.Server behind a real loopback listener.
type served struct {
	srv  *serve.Server
	hs   *http.Server
	url  string // base URL of the graph: http://127.0.0.1:port/v1/graphs/g
	root string // http://127.0.0.1:port
	done chan error
}

// startServer builds a server from cfg, recovers its data directory when it
// has one, and serves its handler on 127.0.0.1:0.
func startServer(cfg serve.Config) (*served, error) {
	srv := serve.New(cfg)
	if _, err := srv.Recover(); err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	return listen(srv)
}

func listen(srv *serve.Server) (*served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &served{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler()},
		root: "http://" + ln.Addr().String(),
		done: make(chan error, 1), // one send, from the Serve goroutine
	}
	s.url = s.root + "/v1/graphs/" + graphName
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// close stops the listener, waits for the Serve goroutine, and closes the
// durable store (which checkpoints).
func (s *served) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, s.srv.CloseDurable())
}

// ingest uploads g in the binary format and waits until the server reports
// ready. The ingest request returns once the ranks are computed.
func (s *served) ingest(hc *http.Client, g *graph.Graph) error {
	var body bytes.Buffer
	if err := pcpm.SaveBinary(&body, g); err != nil {
		return fmt.Errorf("encoding graph: %w", err)
	}
	u := fmt.Sprintf("%s/v1/graphs?name=%s&tolerance=%g", s.root, graphName, solveTolerance)
	resp, err := hc.Post(u, "application/octet-stream", &body)
	if err != nil {
		return err
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("ingest answered %d: %s", resp.StatusCode, msg)
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		resp, err := hc.Get(s.root + "/healthz")
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // body only drained for reuse
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not ready: /healthz answers %d", resp.StatusCode)
		}
	}
}

// client is one closed-loop caller with a single keep-alive connection.
type client struct {
	hc   *http.Client
	base string
	req  []byte
	body bytes.Buffer
}

func newClient(base string) *client {
	return &client{
		hc: &http.Client{
			Transport: &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
			Timeout:   2 * time.Minute,
		},
		base: base,
	}
}

func (c *client) closeIdle() { c.hc.CloseIdleConnections() }

func appendSet(b []byte, set []uint32) []byte {
	b = append(b, '[')
	for i, v := range set {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, uint64(v), 10)
	}
	return append(b, ']')
}

// request renders o as method, URL and JSON body.
func (c *client) request(o op) (method, url string, body []byte) {
	b := c.req[:0]
	switch o.Kind {
	case opTopK:
		return http.MethodGet, c.base + "/topk?k=" + strconv.Itoa(o.K), nil
	case opRank:
		return http.MethodGet, c.base + "/rank/" + strconv.FormatUint(uint64(o.Vertex), 10), nil
	case opPPR:
		b = append(b, `{"seeds":`...)
		b = appendSet(b, o.Seeds[0])
	case opPPRBatch:
		b = append(b, `{"batch":[`...)
		for i, set := range o.Seeds {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendSet(b, set)
		}
		b = append(b, ']')
	case opInsert, opDelete:
		if o.Kind == opInsert {
			b = append(b, `{"insert":[`...)
		} else {
			b = append(b, `{"delete":[`...)
		}
		for i, e := range o.Edges {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendSet(b, e[:])
		}
		c.req = append(b, "]}"...)
		return http.MethodPost, c.base + "/edges", c.req
	}
	b = append(b, `,"k":`...)
	b = strconv.AppendInt(b, int64(o.K), 10)
	c.req = append(b, '}')
	return http.MethodPost, c.base + "/ppr", c.req
}

// do sends o and reads the whole reply into c.body.
func (c *client) do(o op) (status int, err error) {
	method, url, body := c.request(o)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// pprAnswer and deltaReply are the parts of the wire replies the benchmark
// reads.
type pprAnswer struct {
	Top       []pprScore `json:"scores"`
	Truncated bool       `json:"truncated"`
	Cached    bool       `json:"cached"`
}

type pprReply struct {
	Result  *pprAnswer  `json:"result"`
	Results []pprAnswer `json:"results"`
}

type deltaReply struct {
	Mode    string  `json:"mode"`
	Version uint64  `json:"version"`
	Drift   float64 `json:"drift"`
}

// opOutcome is what the reply to one op said beyond its status.
type opOutcome struct {
	Cached, Answers int          // ppr answers served from the cache / in total
	Tops            [][]pprScore // the entries of each ppr answer
	Fallback        bool
	Delta           deltaReply
}

// exec sends o and judges the reply: an op fails when the call errors, the
// status is not 200, a personalized answer is truncated (did not converge)
// or empty, or the reply does not parse.
func (c *client) exec(o op) (opOutcome, error) {
	var out opOutcome
	status, err := c.do(o)
	if err != nil {
		return out, err
	}
	if status != http.StatusOK {
		return out, fmt.Errorf("%s answered %d: %.200s", o.Kind, status, c.body.Bytes())
	}
	switch o.Kind {
	case opTopK, opRank:
		if c.body.Len() == 0 {
			return out, fmt.Errorf("%s: empty reply", o.Kind)
		}
	case opPPR, opPPRBatch:
		var r pprReply
		if err := json.Unmarshal(c.body.Bytes(), &r); err != nil {
			return out, fmt.Errorf("%s reply: %w", o.Kind, err)
		}
		answers := r.Results
		if r.Result != nil {
			answers = []pprAnswer{*r.Result}
		}
		if len(answers) != len(o.Seeds) {
			return out, fmt.Errorf("%s: %d answers for %d queries", o.Kind, len(answers), len(o.Seeds))
		}
		for _, a := range answers {
			if a.Truncated || len(a.Top) == 0 {
				return out, fmt.Errorf("%s: truncated or empty answer", o.Kind)
			}
			if a.Cached {
				out.Cached++
			}
			out.Tops = append(out.Tops, a.Top)
		}
		out.Answers = len(answers)
	case opInsert, opDelete:
		if err := json.Unmarshal(c.body.Bytes(), &out.Delta); err != nil {
			return out, fmt.Errorf("%s reply: %w", o.Kind, err)
		}
		out.Fallback = out.Delta.Mode == "recompute"
	}
	return out, nil
}

// recorder collects one client's latencies (ms) by op kind.
type recorder struct {
	ByKind    [numOpKinds][]float64
	PPRMiss   []float64 // single-query personalized requests not served from the cache
	Attempted int64
	Failed    int64
	FirstErr  error
	Fallbacks int64
	Cached    int64
	Answers   int64
	LastDrift float64
	// WALBytes is the growth of the data directory over the recorded
	// mutations (writer only).
	WALBytes int64
	// Rate is recorded ops per second, summed over clients; each client
	// counts from the start of the window to the end of its last op.
	Rate float64
	// Samples keeps the first pprChecks single-query answers for the
	// oracle check after timing.
	Samples []pprSample
	// Traced holds the latencies of the operations that ran inside spans,
	// when a tracer was given; they are not in ByKind or PPRMiss.
	Traced *recorder
}

// pprSample is one served personalized answer with the query that asked it.
type pprSample struct {
	Seeds []uint32
	Top   []pprScore
}

func (r *recorder) fail(err error) {
	r.Failed++
	if r.FirstErr == nil {
		r.FirstErr = err
	}
}

func (r *recorder) reads() []float64 {
	var all []float64
	for k := opTopK; k <= opPPRBatch; k++ {
		all = append(all, r.ByKind[k]...)
	}
	return all
}

func (r *recorder) mutations() []float64 {
	return append(append([]float64(nil), r.ByKind[opInsert]...), r.ByKind[opDelete]...)
}

func (r *recorder) merge(o *recorder) {
	for k := range r.ByKind {
		r.ByKind[k] = append(r.ByKind[k], o.ByKind[k]...)
	}
	r.PPRMiss = append(r.PPRMiss, o.PPRMiss...)
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	if r.FirstErr == nil {
		r.FirstErr = o.FirstErr
	}
	r.Fallbacks += o.Fallbacks
	r.Cached += o.Cached
	r.Answers += o.Answers
	r.WALBytes += o.WALBytes
	r.Rate += o.Rate
	r.Samples = append(r.Samples, o.Samples...)
	r.LastDrift = max(r.LastDrift, o.LastDrift)
	if o.Traced != nil {
		if r.Traced == nil {
			r.Traced = &recorder{}
		}
		r.Traced.merge(o.Traced)
	}
}

// window is one traffic phase: ops started before From are warm-up (sent,
// not recorded), and a client stops once the clock passes To — and it has
// recorded minRecordedOps operations, which only matters to sub-second
// smoke windows on a slow (race-detector) build.
type window struct {
	From, To time.Time
}

func newWindow(warmup, seconds float64) window {
	from := time.Now().Add(time.Duration(warmup * float64(time.Second)))
	return window{From: from, To: from.Add(time.Duration(seconds * float64(time.Second)))}
}

// run is a client's closed loop: take the next op, send it, wait for the
// reply, record. dirSize, when set, is sampled around the recorded ops to
// measure log growth. Given a tracer, half of the operations (see
// spansFor) run inside spans and are recorded in rec.Traced.
func (c *client) run(id int, next func() op, w window, tr *tracer, dirSize func() int64) *recorder {
	rec := &recorder{}
	if tr != nil {
		rec.Traced = &recorder{}
	}
	var sizeAtFrom int64 = -1
	recorded, lastEnd := 0, w.From
	for i := int64(0); ; i++ {
		start := time.Now()
		if !start.Before(w.To) && recorded >= minRecordedOps {
			break
		}
		inWindow := !start.Before(w.From)
		if inWindow && dirSize != nil && sizeAtFrom < 0 {
			sizeAtFrom = dirSize()
		}
		o := next()
		spans, lat := tr.spansFor(i), rec
		if spans != nil {
			lat = rec.Traced
		}
		opID := int64(id)<<40 | i
		root := spans.begin("op."+o.Kind.String(), -1, opID)
		call := spans.begin("http."+o.Kind.String(), root, opID)
		t0 := time.Now()
		out, err := c.exec(o)
		ms := float64(time.Since(t0)) / float64(time.Millisecond)
		spans.end(call)
		spans.end(root)
		if !inWindow {
			if err != nil {
				rec.Attempted++
				rec.fail(fmt.Errorf("warm-up: %w", err))
			}
			continue
		}
		rec.Attempted++
		if err != nil {
			rec.fail(err)
			continue
		}
		lat.ByKind[o.Kind] = append(lat.ByKind[o.Kind], ms)
		recorded++
		lastEnd = time.Now()
		if o.Kind == opPPR && out.Cached == 0 {
			lat.PPRMiss = append(lat.PPRMiss, ms)
		}
		if o.Kind == opPPR && len(rec.Samples) < pprChecks {
			rec.Samples = append(rec.Samples, pprSample{o.Seeds[0], out.Tops[0]})
		}
		rec.Cached += int64(out.Cached)
		rec.Answers += int64(out.Answers)
		if !o.Kind.isRead() {
			if out.Fallback {
				rec.Fallbacks++
			}
			rec.LastDrift = out.Delta.Drift
		}
	}
	if dirSize != nil && sizeAtFrom >= 0 {
		rec.WALBytes = dirSize() - sizeAtFrom
	}
	if recorded > 0 {
		rec.Rate = float64(recorded) / lastEnd.Sub(w.From).Seconds()
	}
	return rec
}

// newReaders makes the read schedules of a serving workload's clients: two
// readers, or one when a writer runs beside it.
func newReaders(cfg runConfig, n int, withWriter bool) []*readSchedule {
	readers := make([]*readSchedule, 2)
	if withWriter {
		readers = readers[:1]
	}
	for i := range readers {
		readers[i] = newReadSchedule(cfg.Seed, i, n)
	}
	return readers
}

// traffic runs one closed-loop client per schedule over one window (never
// more clients than the machine has CPUs) and returns the merged reader
// records and the writer's. Schedules keep their position, so a second
// window continues the request stream of the first.
func traffic(s *served, readers []*readSchedule, ws *writeSchedule, dataDir string, w window, tr *tracer) (reads, writes *recorder) {
	recs := make([]*recorder, len(readers)+1)
	var wg sync.WaitGroup
	for i, sched := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(s.url)
			defer c.closeIdle()
			recs[i] = c.run(i, sched.next, w, tr, nil)
		}()
	}
	if ws != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(s.url)
			defer c.closeIdle()
			recs[len(readers)] = c.run(len(readers), ws.next, w, tr, func() int64 { return dirBytes(dataDir) })
		}()
	}
	wg.Wait()
	reads, writes = &recorder{}, &recorder{}
	for _, r := range recs[:len(readers)] {
		reads.merge(r)
	}
	if ws != nil {
		writes.merge(recs[len(readers)])
	}
	return reads, writes
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error { //nolint:errcheck // unreadable entries count as empty
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}

// copyDir copies the regular files of src (no subdirectories are expected in
// a data directory, but they are followed) into dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
}

// hubVertices returns the count vertices of highest in-degree, ties by ID.
func hubVertices(g *graph.Graph, count int) []uint32 {
	n := g.NumNodes()
	ids := make([]uint32, n)
	for v := range ids {
		ids[v] = uint32(v)
	}
	sort.Slice(ids, func(i, j int) bool {
		di, dj := g.InDegree(graph.NodeID(ids[i])), g.InDegree(graph.NodeID(ids[j]))
		return di > dj || di == dj && ids[i] < ids[j]
	})
	return ids[:min(count, n)]
}

// fetchRanks reads the whole served rank vector through the API: top-k with
// k = n returns every vertex. It also returns the entries as served, which
// must already be in sorted order.
func fetchRanks(c *client, n int) ([]float32, []rankEntry, error) {
	if status, err := c.do(op{Kind: opTopK, K: n}); err != nil || status != http.StatusOK {
		return nil, nil, fmt.Errorf("topk?k=%d answered %d: %v", n, status, err)
	}
	var reply struct {
		Ranks []rankEntry `json:"ranks"`
	}
	if err := json.Unmarshal(c.body.Bytes(), &reply); err != nil {
		return nil, nil, err
	}
	if len(reply.Ranks) != n {
		return nil, nil, fmt.Errorf("topk?k=%d returned %d entries", n, len(reply.Ranks))
	}
	ranks := make([]float32, n)
	for _, e := range reply.Ranks {
		if int(e.Node) >= n {
			return nil, nil, fmt.Errorf("topk names node %d outside the graph", e.Node)
		}
		ranks[e.Node] = e.Rank
	}
	return ranks, reply.Ranks, nil
}

// serveSetup is one complete set-up of a serving workload.
type serveSetup struct {
	bg      *builtGraph
	s       *served
	dataDir string
}

func (u *serveSetup) teardown() error {
	if u == nil || u.s == nil {
		return nil
	}
	err := u.s.close()
	if u.dataDir != "" {
		err = errors.Join(err, os.RemoveAll(u.dataDir))
	}
	return err
}

// setupServe generates the graph, starts the server (durable when the
// workload writes) and ingests until ready.
func setupServe(cfg runConfig, fam family, logN int, durable bool, workDir string, attempt int) (*serveSetup, error) {
	bg, err := buildGraph(fam, logN, cfg.Seed)
	if err != nil {
		return nil, err
	}
	u := &serveSetup{bg: bg}
	var sc serve.Config
	if durable {
		u.dataDir = filepath.Join(workDir, fmt.Sprintf("data-%d", attempt))
		if err := os.MkdirAll(u.dataDir, 0o755); err != nil {
			return nil, err
		}
		sc.DataDir = u.dataDir // FsyncEvery stays 0: fsync before every acknowledgement
	}
	if u.s, err = startServer(sc); err != nil {
		return nil, err
	}
	c := newClient(u.s.url)
	defer c.closeIdle()
	if err := u.s.ingest(c.hc, bg.G); err != nil {
		return nil, errors.Join(err, u.teardown())
	}
	return u, nil
}

// runServe is the untraced pass of a serving workload.
func runServe(cfg runConfig, res *result) (err error) {
	workDir, err := os.MkdirTemp(cfg.OutDir, cfg.W.Name+".work-")
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, os.RemoveAll(workDir)) }()

	attempt := 0
	u, setups, err := repeatSetup(setupReps,
		func() (*serveSetup, error) {
			attempt++
			return setupServe(cfg, cfg.W.Family, cfg.logN(), cfg.W.Writer, workDir, attempt)
		},
		func(u *serveSetup) { u.teardown() }) //nolint:errcheck // a discarded set-up's close error changes nothing measured
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer func() { err = errors.Join(err, u.teardown()) }()
	res.putMedian("setup_s", setups)
	g := u.bg.G
	n := g.NumNodes()
	res.Graph["nodes"], res.Graph["edges"] = float64(n), float64(g.NumEdges())

	var ws *writeSchedule
	if cfg.W.Writer {
		ws = newWriteSchedule(cfg.Seed, n, hubVertices(g, hubCount))
	}
	rss := startRSSSampler(rssSlice)
	w := newWindow(cfg.warmup(), cfg.Seconds)
	reads, writes := traffic(u.s, newReaders(cfg, n, ws != nil), ws, u.dataDir, w, nil)
	res.putMedian("peak_rss_mb", rss.finish())

	c := newClient(u.s.url)
	defer c.closeIdle()
	if ws != nil {
		for _, o := range ws.drain() { // restore the original multigraph
			writes.Attempted++
			if _, err := c.exec(o); err != nil {
				writes.fail(err)
			}
		}
	}
	res.Attempted = reads.Attempted + writes.Attempted
	res.Failed = reads.Failed + writes.Failed
	res.check("reads_succeed", reads.FirstErr)
	res.check("writes_succeed", writes.FirstErr)

	// The primary operation is the expensive one of each workload: a
	// single-query personalized request when only reading, an edge delta
	// when writing. ops_per_s counts every request of every client.
	primary := reads.ByKind[opPPR]
	if ws != nil {
		primary = writes.mutations()
	}
	if len(primary) == 0 || len(reads.ByKind[opTopK]) == 0 || len(reads.ByKind[opPPR]) == 0 {
		return fmt.Errorf("an operation class completed nothing in the timed window")
	}
	res.putMedian("op_p50_ms", primary)
	res.put("ops_per_s", reads.Rate+writes.Rate)
	res.put("read_ops_per_s", reads.Rate)
	res.putMedian("topk_p50_ms", reads.ByKind[opTopK])
	res.putMedian("ppr_p50_ms", reads.ByKind[opPPR])
	res.Graph["reads"] = float64(len(reads.reads()))
	res.Graph["ppr_cache_hit_ratio"] = float64(reads.Cached) / float64(max(reads.Answers, 1))
	if ws == nil {
		res.put("ppr_p95_ms", percentile(reads.ByKind[opPPR], 0.95))
	} else {
		res.putMedian("mutate_p50_ms", primary)
		res.put("mutate_p95_ms", percentile(primary, 0.95))
		res.put("wal_bytes_per_mutation", float64(writes.WALBytes)/float64(len(primary)))
		res.Graph["mutations"] = float64(len(primary))
		res.Graph["fallback_ratio"] = float64(writes.Fallbacks) / float64(len(primary))
	}

	var image string
	if ws != nil {
		if image, err = prepareCrashImage(cfg, u, c, workDir, res); err != nil {
			return fmt.Errorf("recovery phase: %w", err)
		}
	}
	samples := reads.Samples
	if ws != nil {
		samples = nil // answered on graphs that no longer exist: ask afresh
	}
	ranks := checkServed(cfg, u, c, writes.LastDrift, samples, res)
	if ws != nil && ranks != nil {
		if err := timeRecoveries(cfg, image, workDir, n, ranks, res); err != nil {
			return fmt.Errorf("recovery phase: %w", err)
		}
	}
	return nil
}

// prepareCrashImage checkpoints, applies recoveryDeltas more edge deltas so
// the log has a tail, and copies the data directory while the store is
// still open — the state a crash at this instant leaves behind (every
// acknowledged append was fsynced).
func prepareCrashImage(cfg runConfig, u *serveSetup, c *client, workDir string, res *result) (string, error) {
	if err := u.s.srv.Checkpoint(); err != nil {
		return "", fmt.Errorf("checkpoint: %w", err)
	}
	tail := newWriteSchedule(cfg.Seed+1, u.bg.G.NumNodes(), nil)
	batches := make([]op, recoveryDeltas/2)
	for i := range batches {
		batches[i] = tail.batch()
	}
	for _, undo := range []bool{false, true} {
		for _, o := range batches {
			if undo {
				o = o.asDelete()
			}
			res.Attempted++
			if _, err := c.exec(o); err != nil {
				res.Failed++
				return "", err
			}
		}
	}
	image := filepath.Join(workDir, "crash-image")
	return image, copyDir(u.dataDir, image)
}

// checkServed verifies what the server serves after the traffic: the full
// rank vector against the oracle, top-k against a sort of that vector, and
// pprChecks personalized answers against the personalized oracle — the
// given samples, or fresh queries when there are none. The graph is back to
// its ingested structure by now (every inserted batch was deleted), so the
// oracle runs on the generated graph. It returns the served rank vector.
func checkServed(cfg runConfig, u *serveSetup, c *client, drift float64, samples []pprSample, res *result) []float32 {
	g := u.bg.G
	n := g.NumNodes()
	ranks, sortedEntries, err := fetchRanks(c, n)
	res.check("fetch_ranks", err)
	if err != nil {
		return nil
	}
	res.check("topk_is_sorted_rank_vector", checkTopK(sortedEntries[:min(1000, n)], ranks))
	res.check("topk_50", func() error {
		if _, err := c.do(op{Kind: opTopK, K: 50}); err != nil {
			return err
		}
		var reply struct {
			Ranks []rankEntry `json:"ranks"`
		}
		if err := json.Unmarshal(c.body.Bytes(), &reply); err != nil {
			return err
		}
		if len(reply.Ranks) != min(50, n) {
			return fmt.Errorf("topk?k=50 returned %d entries", len(reply.Ranks))
		}
		return checkTopK(reply.Ranks, ranks)
	}())

	want, _, residual := oraclePageRank(g, ranks, oracleTolerance, oracleMaxSweeps)
	if residual >= oracleTolerance {
		res.check("oracle_converged", fmt.Errorf("oracle residual %.3g", residual))
	} else {
		errL1 := l1Error(ranks, want)
		res.put("rank_l1_err", errL1)
		// On top of what the tolerance leaves: the float32 floor of this
		// graph's hubs (3e-6 to 5e-5 measured, by the seed's largest hub),
		// and each incremental repair may add its residual bound, which the
		// server reports as a running sum, the drift.
		limit := rankErrLimit + float32Allowance(g, want) + drift
		res.Graph["rank_l1_limit"] = limit
		res.check("rank_l1_err", limitErr("L1 distance of served ranks to the oracle", errL1, limit))
	}

	if len(samples) == 0 {
		sched := newReadSchedule(cfg.Seed, 0xc4ec, n)
		for len(samples) < cfg.pprChecks() {
			o := op{Kind: opPPR, K: 10, Seeds: [][]uint32{sched.seedSet()}}
			res.Attempted++
			out, err := c.exec(o)
			if err != nil {
				res.Failed++
				res.check("ppr_sample", err)
				return ranks
			}
			samples = append(samples, pprSample{o.Seeds[0], out.Tops[0]})
		}
	}
	samples = samples[:min(len(samples), cfg.pprChecks())]
	sets := make([][]uint32, len(samples))
	for j, sm := range samples {
		sets[j] = sm.Seeds
	}
	oracle, residual := oraclePPR(g, sets, pprOracleTol, pprOracleSweeps)
	if residual >= pprOracleTol {
		res.check("ppr_oracle_converged", fmt.Errorf("residual %.3g", residual))
		return ranks
	}
	var pprErr error
	for j := range sets {
		if err := checkPPRAnswer(samples[j].Top, oracle, len(sets), j, pprSlack); err != nil && pprErr == nil {
			pprErr = fmt.Errorf("query %d (seeds %v): %w", j, sets[j], err)
			res.Failed++
		}
	}
	res.check("ppr_matches_oracle", pprErr)
	return ranks
}

// timeRecoveries restores the crash image recoveryReps times into a fresh
// server and times Recover until the server reports ready. The first
// recovered server is also put behind a listener and its ranks compared
// with the ranks served before the crash.
func timeRecoveries(cfg runConfig, image, workDir string, n int, before []float32, res *result) error {
	var secs []float64
	for i := 0; i < cfg.recoveries(); i++ {
		dir := filepath.Join(workDir, fmt.Sprintf("recover-%d", i))
		if err := copyDir(image, dir); err != nil {
			return err
		}
		srv := serve.New(serve.Config{DataDir: dir})
		t0 := time.Now()
		rep, err := srv.Recover()
		if err != nil {
			return fmt.Errorf("recover: %w", err)
		}
		if ready, why := srv.Ready(); !ready {
			return fmt.Errorf("recovered server not ready: %s", why)
		}
		secs = append(secs, time.Since(t0).Seconds())
		res.Graph["recovery_replayed"] = float64(rep.Replayed)
		if i == 0 {
			s, err := listen(srv)
			if err != nil {
				return err
			}
			c := newClient(s.url)
			after, _, ferr := fetchRanks(c, n)
			c.closeIdle()
			if ferr == nil {
				ferr = limitErr("L1 distance between recovered and pre-crash ranks", l1Error(after, widen(before)), recoveredLimit)
			}
			res.check("recovered_ranks", ferr)
			if err := s.close(); err != nil {
				return err
			}
		} else if err := srv.CloseDurable(); err != nil {
			return err
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	res.putMedian("recovery_s", secs)
	return nil
}

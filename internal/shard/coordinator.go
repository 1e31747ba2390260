package shard

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
	"weak"

	"repro/internal/graph"
	"repro/internal/scc"
)

// ErrUnavailable marks coordinator errors caused by an unreachable or
// failing worker, as opposed to a caller mistake. The serving layer maps it
// to 503 so clients can tell "a shard is down" from "no such graph".
var ErrUnavailable = errors.New("shard worker unavailable")

// replyLimit bounds the JSON replies of load, solve and every error body;
// rank gathers are bounded by their block's exact size instead.
const replyLimit = 1 << 20

// CoordinatorConfig tunes a Coordinator.
type CoordinatorConfig struct {
	// Logger receives deployment lifecycle lines; nil discards them.
	Logger *log.Logger
	// Client performs rank gathers and removals; nil uses a 30s-timeout
	// client.
	Client *http.Client
}

// solveTimeout bounds one distributed solve; payload posts use it too, since
// payloads can be large.
const solveTimeout = 10 * time.Minute

// Coordinator drives a fixed fleet of shard workers as a compute backend:
// it cuts a graph into row blocks, ships one payload per worker, runs
// distributed solves, and gathers the converged block slices into the full
// rank vector for its caller. Workers keep no state a reader needs — only
// what the next solve of the same graph reuses.
type Coordinator struct {
	workers []string
	logger  *log.Logger
	client  *http.Client
	solveCl *http.Client

	mu     sync.Mutex
	graphs map[string]*deployment // guarded by mu

	seq atomic.Uint64
}

// deployment is what the fleet holds under one graph name. Its lock spans
// every fleet mutation of the name (load, solve, gather, remove): a payload
// reload landing on a worker mid-solve would orphan that solve's inbox, so
// they must serialize. Records are never dropped — names are few and a
// re-ingest reuses the lock.
type deployment struct {
	mu sync.Mutex
	// graph is the graph whose payloads the workers hold, zero when none
	// (never shipped, removed, or forgotten by a failed solve). It is weak so
	// the record pins nothing: once the caller drops the graph, Value is nil
	// and the next solve re-ships.
	graph  weak.Pointer[graph.Graph] // guarded by mu
	assign Assignment                // guarded by mu
}

// NewCoordinator constructs a coordinator over the given worker base URLs.
func NewCoordinator(workers []string, cfg CoordinatorConfig) (*Coordinator, error) {
	if len(workers) == 0 {
		return nil, errors.New("shard: coordinator needs at least one worker")
	}
	logger := cfg.Logger
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	return &Coordinator{
		workers: workers,
		logger:  logger,
		client:  client,
		solveCl: &http.Client{Timeout: solveTimeout},
		graphs:  make(map[string]*deployment),
	}, nil
}

// record returns name's deployment record, creating it on first use.
func (c *Coordinator) record(name string) *deployment {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := c.graphs[name]
	if d == nil {
		d = &deployment{}
		c.graphs[name] = d
	}
	return d
}

// Solve runs one distributed solve of g under name and returns the gathered
// rank vector with the agreed round count and final delta. When the workers
// hold another graph under name — or none — it first cuts g into one row
// block per worker (condensation-aware) and ships the payloads. A failed
// solve forgets what the workers hold, so the next one re-ships.
func (c *Coordinator) Solve(name string, g *graph.Graph, opts SolveOptions) ([]float32, int, float64, error) {
	n := g.NumNodes()
	if n == 0 {
		return nil, 0, 0, errors.New("shard: cannot solve an empty graph")
	}
	d := c.record(name)
	d.mu.Lock()
	defer d.mu.Unlock()
	held := d.graph.Value() == g
	d.graph = weak.Pointer[graph.Graph]{} // restored only if this solve succeeds
	if !held {
		a, err := c.load(name, g)
		if err != nil {
			return nil, 0, 0, err
		}
		d.assign = a
		c.logger.Printf("shard-coordinator: shipped %q to %d workers (n=%d m=%d)",
			name, len(c.workers), n, g.NumEdges())
	}
	rounds, delta, err := c.solveFleet(name, opts)
	if err != nil {
		return nil, 0, 0, err
	}
	ranks, err := c.gather(name, d.assign, n)
	if err != nil {
		return nil, 0, 0, err
	}
	d.graph = weak.Make(g)
	c.logger.Printf("shard-coordinator: solved %q in %d rounds (delta %g)", name, rounds, delta)
	return ranks, rounds, delta, nil
}

// load cuts g into one row block per worker and ships each block's payload,
// returning the assignment.
func (c *Coordinator) load(name string, g *graph.Graph) (Assignment, error) {
	a := AssignSCC(g, scc.Decompose(g, 0), len(c.workers))
	degs, err := DegreesOf(g)
	if err != nil {
		return nil, err
	}
	err = c.fanOut(func(i int) error {
		sub, err := g.RowBlock(a[i].Lo, a[i].Hi)
		if err != nil {
			return err
		}
		meta := PayloadMeta{
			Graph: name, Shard: i, Ranges: a, Peers: c.workers,
			N: g.NumNodes(), M: g.NumEdges(),
		}
		var buf bytes.Buffer
		if err := WritePayload(&buf, meta, sub, degs); err != nil {
			return err
		}
		_, err = c.post(c.solveCl, i, "/v1/shard/load", "application/octet-stream", buf.Bytes())
		return err
	})
	if err != nil {
		return nil, err
	}
	return a, nil
}

// solveFleet runs one distributed solve against every worker's loaded block
// of name and returns the agreed round count and final delta. Every worker
// gets identical options and the same sequence number, so all agree on the
// stop round.
func (c *Coordinator) solveFleet(name string, opts SolveOptions) (int, float64, error) {
	opts.Seq = c.seq.Add(1)
	body, err := json.Marshal(opts)
	if err != nil {
		return 0, 0, err
	}
	type solveResp struct {
		Rounds int     `json:"rounds"`
		Delta  float64 `json:"delta"`
	}
	results := make([]solveResp, len(c.workers))
	err = c.fanOut(func(i int) error {
		resp, err := c.post(c.solveCl, i, "/v1/shard/solve?graph="+name, "application/json", body)
		if err != nil {
			return err
		}
		return json.Unmarshal(resp, &results[i])
	})
	if err != nil {
		return 0, 0, err
	}
	for i := 1; i < len(results); i++ {
		if results[i].Rounds != results[0].Rounds {
			return 0, 0, fmt.Errorf("shard: workers disagree on round count (%d vs %d) — protocol bug",
				results[i].Rounds, results[0].Rounds)
		}
	}
	return results[0].Rounds, results[0].Delta, nil
}

// gather reads every worker's solved block into one n-vector. Each read is
// bounded by its block's exact wire size — two uint32 bounds plus four bytes
// per vertex — and a body of any other length is rejected.
func (c *Coordinator) gather(name string, a Assignment, n int) ([]float32, error) {
	out := make([]float32, n)
	err := c.fanOut(func(i int) error {
		r := a[i]
		want := 8 + 4*int64(r.Len())
		body, err := c.get(i, "/v1/shard/ranks?graph="+name, want+1)
		if err != nil {
			return err
		}
		if int64(len(body)) != want {
			return fmt.Errorf("shard: worker %d returned %d rank bytes for block [%d,%d), want %d",
				i, len(body), r.Lo, r.Hi, want)
		}
		lo := binary.LittleEndian.Uint32(body)
		hi := binary.LittleEndian.Uint32(body[4:])
		if lo != r.Lo || hi != r.Hi {
			return fmt.Errorf("shard: worker %d returned block [%d,%d), want [%d,%d)", i, lo, hi, r.Lo, r.Hi)
		}
		for j := range r.Len() {
			out[int(r.Lo)+j] = math.Float32frombits(binary.LittleEndian.Uint32(body[8+4*j:]))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Remove deletes the graph from every worker and forgets it. It fails for a
// name this coordinator never solved; workers that miss the delete are
// reported but leave nothing behind that a later solve would reuse.
func (c *Coordinator) Remove(name string) error {
	c.mu.Lock()
	d := c.graphs[name]
	c.mu.Unlock()
	if d == nil {
		return fmt.Errorf("shard: graph %q is not deployed", name)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.graph = weak.Pointer[graph.Graph]{}
	return c.fanOut(func(i int) error {
		req, err := http.NewRequest(http.MethodDelete, c.workers[i]+"/v1/shard/graph?graph="+name, nil)
		if err != nil {
			return err
		}
		resp, err := c.client.Do(req)
		if err != nil {
			return fmt.Errorf("%w: worker %d (%s): %v", ErrUnavailable, i, c.workers[i], err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusNotFound {
			return fmt.Errorf("shard: worker %d returned %s removing %q", i, resp.Status, name)
		}
		return nil
	})
}

// fanOut calls f once per worker index, concurrently, and joins the errors.
func (c *Coordinator) fanOut(f func(i int) error) error {
	errs := make([]error, len(c.workers))
	var wg sync.WaitGroup
	for i := range c.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = f(i)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// get performs a GET against worker i, reading at most limit bytes of a
// successful body; network and 5xx failures wrap ErrUnavailable.
func (c *Coordinator) get(i int, path string, limit int64) ([]byte, error) {
	resp, err := c.client.Get(c.workers[i] + path)
	if err != nil {
		return nil, fmt.Errorf("%w: worker %d (%s): %v", ErrUnavailable, i, c.workers[i], err)
	}
	return c.finish(i, resp, limit)
}

func (c *Coordinator) post(client *http.Client, i int, path, contentType string, body []byte) ([]byte, error) {
	resp, err := client.Post(c.workers[i]+path, contentType, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("%w: worker %d (%s): %v", ErrUnavailable, i, c.workers[i], err)
	}
	return c.finish(i, resp, replyLimit)
}

// finish reads worker i's response — at most limit bytes of a successful
// body, at most replyLimit of an error — and turns a failure status into an
// error carrying the worker's JSON detail.
func (c *Coordinator) finish(i int, resp *http.Response, limit int64) ([]byte, error) {
	defer resp.Body.Close()
	ok := resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusNoContent
	if !ok {
		limit = replyLimit
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, limit))
	if err != nil {
		return nil, fmt.Errorf("%w: worker %d (%s): reading response: %v", ErrUnavailable, i, c.workers[i], err)
	}
	if ok {
		return body, nil
	}
	detail := resp.Status
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		detail = fmt.Sprintf("%s: %s", resp.Status, e.Error)
	}
	if resp.StatusCode >= 500 || resp.StatusCode == http.StatusConflict {
		// 5xx is a failing worker; 409 means a solve raced, failed or never
		// finished — either way the fleet cannot serve this solve.
		return nil, fmt.Errorf("%w: worker %d (%s): %s", ErrUnavailable, i, c.workers[i], detail)
	}
	return nil, fmt.Errorf("shard: worker %d (%s): %s", i, c.workers[i], detail)
}

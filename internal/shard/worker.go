package shard

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// DefaultSwapWait bounds how long a worker waits for one round's peer
// slices before declaring the deployment broken.
const DefaultSwapWait = 2 * time.Minute

// WorkerConfig tunes a Worker.
type WorkerConfig struct {
	// Logger receives worker lifecycle lines; nil discards them.
	Logger *log.Logger
	// SwapWait bounds the per-round wait for peer slices (default
	// DefaultSwapWait).
	SwapWait time.Duration
	// Client performs peer swap posts; nil uses a client with sane timeouts.
	Client *http.Client
}

// Worker owns row blocks for any number of deployed graphs and serves the
// shard-internal HTTP API: payload installation, distributed solves with the
// allgather swap, and the solved block the coordinator gathers.
type Worker struct {
	mu     sync.Mutex
	graphs map[string]*blockState // guarded by mu

	logger   *log.Logger
	swapWait time.Duration
	client   *http.Client
}

// swapKey identifies one peer slice: which solve, which round, which shard.
type swapKey struct {
	seq   uint64
	round int
	from  int
}

// swapMsg is a received peer slice plus the peer's block L1 delta.
type swapMsg struct {
	slice []float32
	delta float64
}

// blockState is one deployed graph's shard-local state.
type blockState struct {
	mu     sync.Mutex
	meta   PayloadMeta  // immutable after install
	solver *BlockSolver // immutable after install

	solving bool                // guarded by mu
	seq     uint64              // guarded by mu — sequence of the running/last solve
	inbox   map[swapKey]swapMsg // guarded by mu
	rounds  int                 // guarded by mu — rounds of the last finished solve
	delta   float64             // guarded by mu — final global delta
	// ranks is the owned block of the last finished solve (nil before the
	// first); the coordinator gathers it through /v1/shard/ranks.
	ranks []float32 // guarded by mu

	// notify wakes the solve loop when a swap arrives; buffered so a signal
	// sent between the waiter's state check and its select is not lost.
	notify chan struct{}
}

// NewWorker constructs an empty worker.
func NewWorker(cfg WorkerConfig) *Worker {
	logger := cfg.Logger
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	wait := cfg.SwapWait
	if wait <= 0 {
		wait = DefaultSwapWait
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	return &Worker{
		graphs:   make(map[string]*blockState),
		logger:   logger,
		swapWait: wait,
		client:   client,
	}
}

// Handler returns the worker's HTTP API.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", w.handleHealth)
	mux.HandleFunc("POST /v1/shard/load", w.handleLoad)
	mux.HandleFunc("POST /v1/shard/solve", w.handleSolve)
	mux.HandleFunc("POST /v1/shard/swap", w.handleSwap)
	mux.HandleFunc("GET /v1/shard/ranks", w.handleRanks)
	mux.HandleFunc("GET /v1/shard/status", w.handleStatus)
	mux.HandleFunc("DELETE /v1/shard/graph", w.handleDelete)
	return mux
}

func (w *Worker) handleHealth(rw http.ResponseWriter, r *http.Request) {
	w.mu.Lock()
	n := len(w.graphs)
	w.mu.Unlock()
	// A worker has no WAL to recover: it is ready as soon as it listens.
	shardWriteJSON(rw, http.StatusOK, map[string]any{"ready": true, "role": "shard-worker", "graphs": n})
}

func (w *Worker) handleLoad(rw http.ResponseWriter, r *http.Request) {
	p, err := ReadPayload(r.Body)
	if err != nil {
		shardWriteError(rw, http.StatusBadRequest, err.Error())
		return
	}
	own := p.Meta.Ranges[p.Meta.Shard]
	solver, err := NewBlockSolver(p.Sub, p.Degs, own.Lo, own.Hi, 0)
	if err != nil {
		shardWriteError(rw, http.StatusBadRequest, err.Error())
		return
	}
	bs := &blockState{
		meta:   p.Meta,
		solver: solver,
		inbox:  make(map[swapKey]swapMsg),
		notify: make(chan struct{}, 1),
	}
	w.mu.Lock()
	w.graphs[p.Meta.Graph] = bs
	w.mu.Unlock()
	w.logger.Printf("shard-worker: loaded graph %q shard %d block [%d,%d) (%d block edges)",
		p.Meta.Graph, p.Meta.Shard, own.Lo, own.Hi, p.Sub.NumEdges())
	shardWriteJSON(rw, http.StatusOK, map[string]any{
		"graph": p.Meta.Graph, "shard": p.Meta.Shard,
		"lo": own.Lo, "hi": own.Hi, "block_edges": p.Sub.NumEdges(),
	})
}

func (w *Worker) lookup(name string) *blockState {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.graphs[name]
}

func (w *Worker) handleSolve(rw http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("graph")
	bs := w.lookup(name)
	if bs == nil {
		shardWriteError(rw, http.StatusNotFound, fmt.Sprintf("graph %q not loaded", name))
		return
	}
	var opts SolveOptions
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&opts); err != nil {
		shardWriteError(rw, http.StatusBadRequest, "bad solve options: "+err.Error())
		return
	}
	if opts.Damping <= 0 || opts.Damping >= 1 {
		shardWriteError(rw, http.StatusBadRequest, fmt.Sprintf("damping %g out of (0, 1)", opts.Damping))
		return
	}
	if opts.Tolerance <= 0 && opts.Rounds <= 0 {
		shardWriteError(rw, http.StatusBadRequest, "solve needs a tolerance or a fixed round count")
		return
	}
	rounds, delta, err := w.solve(bs, opts)
	if err != nil {
		shardWriteError(rw, http.StatusConflict, err.Error())
		return
	}
	shardWriteJSON(rw, http.StatusOK, map[string]any{"rounds": rounds, "delta": delta})
}

// solve runs the worker's side of one distributed solve: round-local gather,
// slice broadcast, allgather wait, deterministic global delta, shared stop
// decision. Every worker receives identical options (same seq), so all make
// the same per-round stop decision from the same shard-ordered delta sum.
func (w *Worker) solve(bs *blockState, opts SolveOptions) (int, float64, error) {
	bs.mu.Lock()
	if bs.solving {
		bs.mu.Unlock()
		return 0, 0, fmt.Errorf("solve already in progress for graph %q", bs.meta.Graph)
	}
	bs.solving = true
	bs.seq = opts.Seq
	for k := range bs.inbox {
		if k.seq < opts.Seq {
			delete(bs.inbox, k)
		}
	}
	bs.mu.Unlock()
	defer func() {
		bs.mu.Lock()
		bs.solving = false
		bs.mu.Unlock()
	}()

	meta := bs.meta
	n := meta.N
	own := meta.Ranges[meta.Shard]
	p := make([]float32, n)
	for v := range p {
		p[v] = 1 / float32(n)
	}
	out := make([]float32, own.Len())
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}
	if opts.Tolerance <= 0 && opts.Rounds > 0 && opts.Rounds < maxRounds {
		maxRounds = opts.Rounds
	}
	deltas := make([]float64, len(meta.Ranges))
	var finalDelta float64
	round := 0
	for {
		local, err := bs.solver.Round(p, out, opts)
		if err != nil {
			return round, 0, err
		}
		if err := w.broadcast(meta, opts.Seq, round, out, local); err != nil {
			return round, 0, err
		}
		msgs, err := w.collectRound(bs, opts.Seq, round)
		if err != nil {
			return round, 0, err
		}
		copy(p[own.Lo:own.Hi], out)
		deltas[meta.Shard] = local
		for from, msg := range msgs {
			r := meta.Ranges[from]
			copy(p[r.Lo:r.Hi], msg.slice)
			deltas[from] = msg.delta
		}
		var global float64
		for _, d := range deltas {
			global += d
		}
		finalDelta = global
		round++
		if opts.Tolerance > 0 && global < opts.Tolerance {
			break
		}
		if round >= maxRounds {
			break
		}
	}
	ranks := make([]float32, own.Len())
	copy(ranks, p[own.Lo:own.Hi])
	bs.mu.Lock()
	bs.rounds = round
	bs.delta = finalDelta
	bs.ranks = ranks
	bs.mu.Unlock()
	w.logger.Printf("shard-worker: graph %q shard %d solved in %d rounds (delta %g)",
		meta.Graph, meta.Shard, round, finalDelta)
	return round, finalDelta, nil
}

// broadcast posts this round's owned slice to every peer concurrently.
func (w *Worker) broadcast(meta PayloadMeta, seq uint64, round int, slice []float32, delta float64) error {
	var wg sync.WaitGroup
	errs := make([]error, len(meta.Peers))
	for j, peer := range meta.Peers {
		if j == meta.Shard {
			continue
		}
		wg.Add(1)
		go func(j int, peer string) {
			defer wg.Done()
			errs[j] = w.postSwap(peer, meta.Graph, meta.Shard, seq, round, slice, delta)
		}(j, peer)
	}
	wg.Wait()
	for j, err := range errs {
		if err != nil {
			return fmt.Errorf("shard %d swap to peer %d (%s): %w", meta.Shard, j, meta.Peers[j], err)
		}
	}
	return nil
}

func (w *Worker) postSwap(peer, name string, from int, seq uint64, round int, slice []float32, delta float64) error {
	body := make([]byte, 4*len(slice))
	for i, f := range slice {
		binary.LittleEndian.PutUint32(body[4*i:], math.Float32bits(f))
	}
	req, err := http.NewRequest(http.MethodPost, peer+"/v1/shard/swap", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set("X-Shard-Graph", name)
	req.Header.Set("X-Shard-From", strconv.Itoa(from))
	req.Header.Set("X-Shard-Seq", strconv.FormatUint(seq, 10))
	req.Header.Set("X-Shard-Round", strconv.Itoa(round))
	// Hex float formatting roundtrips the float64 delta exactly, so every
	// worker sums the identical per-shard deltas and agrees on the stop.
	req.Header.Set("X-Shard-Delta", strconv.FormatFloat(delta, 'x', -1, 64))
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("peer returned %s", resp.Status)
	}
	return nil
}

// collectRound waits until every peer's slice for (seq, round) has arrived,
// consuming the inbox entries. It fails after the swap-wait deadline so a
// dead peer surfaces as a solve error instead of a hang.
func (w *Worker) collectRound(bs *blockState, seq uint64, round int) (map[int]swapMsg, error) {
	want := len(bs.meta.Ranges) - 1
	timer := time.NewTimer(w.swapWait)
	defer timer.Stop()
	for {
		bs.mu.Lock()
		have := 0
		for k := range bs.inbox {
			if k.seq == seq && k.round == round {
				have++
			}
		}
		if have == want {
			msgs := make(map[int]swapMsg, want)
			for k, m := range bs.inbox {
				if k.seq == seq && k.round == round {
					msgs[k.from] = m
					delete(bs.inbox, k)
				}
			}
			bs.mu.Unlock()
			return msgs, nil
		}
		bs.mu.Unlock()
		select {
		case <-bs.notify:
		case <-timer.C:
			return nil, fmt.Errorf("timed out after %s waiting for round %d slices (%d/%d peers)",
				w.swapWait, round, have, want)
		}
	}
}

func (w *Worker) handleSwap(rw http.ResponseWriter, r *http.Request) {
	name := r.Header.Get("X-Shard-Graph")
	bs := w.lookup(name)
	if bs == nil {
		shardWriteError(rw, http.StatusNotFound, fmt.Sprintf("graph %q not loaded", name))
		return
	}
	from, err1 := strconv.Atoi(r.Header.Get("X-Shard-From"))
	seq, err2 := strconv.ParseUint(r.Header.Get("X-Shard-Seq"), 10, 64)
	round, err3 := strconv.Atoi(r.Header.Get("X-Shard-Round"))
	delta, err4 := strconv.ParseFloat(r.Header.Get("X-Shard-Delta"), 64)
	if err1 != nil || err2 != nil || err3 != nil || err4 != nil || round < 0 {
		shardWriteError(rw, http.StatusBadRequest, "bad swap headers")
		return
	}
	if from < 0 || from >= len(bs.meta.Ranges) || from == bs.meta.Shard {
		shardWriteError(rw, http.StatusBadRequest, fmt.Sprintf("bad swap source shard %d", from))
		return
	}
	want := 4 * meta64(bs.meta.Ranges[from])
	body, err := io.ReadAll(io.LimitReader(r.Body, want+1))
	if err != nil {
		shardWriteError(rw, http.StatusBadRequest, "reading swap body: "+err.Error())
		return
	}
	if int64(len(body)) != want {
		shardWriteError(rw, http.StatusBadRequest,
			fmt.Sprintf("swap body is %d bytes, shard %d's slice is %d", len(body), from, want))
		return
	}
	slice := make([]float32, len(body)/4)
	for i := range slice {
		slice[i] = math.Float32frombits(binary.LittleEndian.Uint32(body[4*i:]))
	}
	bs.mu.Lock()
	if seq < bs.seq {
		// A stale message from an abandoned solve: drop it.
		bs.mu.Unlock()
		rw.WriteHeader(http.StatusNoContent)
		return
	}
	bs.inbox[swapKey{seq: seq, round: round, from: from}] = swapMsg{slice: slice, delta: delta}
	bs.mu.Unlock()
	select {
	case bs.notify <- struct{}{}:
	default:
	}
	rw.WriteHeader(http.StatusNoContent)
}

func meta64(r Range) int64 { return int64(r.Hi) - int64(r.Lo) }

// handleRanks streams the last solve's block in binary: two uint32 bounds
// then the block's float32 ranks, all little endian — what the coordinator
// gathers into the full vector.
func (w *Worker) handleRanks(rw http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("graph")
	bs := w.lookup(name)
	if bs == nil {
		shardWriteError(rw, http.StatusNotFound, fmt.Sprintf("graph %q not loaded", name))
		return
	}
	bs.mu.Lock()
	ranks := bs.ranks
	bs.mu.Unlock()
	if ranks == nil {
		shardWriteError(rw, http.StatusConflict, fmt.Sprintf("graph %q has no solved ranks yet", name))
		return
	}
	own := bs.meta.Ranges[bs.meta.Shard]
	buf := make([]byte, 8+4*len(ranks))
	binary.LittleEndian.PutUint32(buf, own.Lo)
	binary.LittleEndian.PutUint32(buf[4:], own.Hi)
	for i, f := range ranks {
		binary.LittleEndian.PutUint32(buf[8+4*i:], math.Float32bits(f))
	}
	rw.Header().Set("Content-Type", "application/octet-stream")
	rw.Write(buf)
}

func (w *Worker) handleStatus(rw http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("graph")
	bs := w.lookup(name)
	if bs == nil {
		shardWriteError(rw, http.StatusNotFound, fmt.Sprintf("graph %q not loaded", name))
		return
	}
	own := bs.meta.Ranges[bs.meta.Shard]
	bs.mu.Lock()
	st := map[string]any{
		"graph": name, "shard": bs.meta.Shard, "lo": own.Lo, "hi": own.Hi,
		"n": bs.meta.N, "m": bs.meta.M, "peers": len(bs.meta.Peers),
		"solving": bs.solving, "solved": bs.ranks != nil, "rounds": bs.rounds, "delta": bs.delta,
	}
	bs.mu.Unlock()
	shardWriteJSON(rw, http.StatusOK, st)
}

func (w *Worker) handleDelete(rw http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("graph")
	w.mu.Lock()
	_, ok := w.graphs[name]
	delete(w.graphs, name)
	w.mu.Unlock()
	if !ok {
		shardWriteError(rw, http.StatusNotFound, fmt.Sprintf("graph %q not loaded", name))
		return
	}
	rw.WriteHeader(http.StatusNoContent)
}

func shardWriteJSON(rw http.ResponseWriter, status int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	json.NewEncoder(rw).Encode(v)
}

func shardWriteError(rw http.ResponseWriter, status int, msg string) {
	shardWriteJSON(rw, status, map[string]string{"error": msg})
}

// Package serve implements the rank-serving subsystem: a Server that owns a
// registry of loaded graphs, runs the PCPM engines (via the pcpm facade) on
// ingest or on demand, caches the resulting rank vectors, and answers
// concurrent queries over HTTP.
//
// The serving contract is read-mostly: each graph's latest completed
// computation lives in an immutable Snapshot behind an atomic pointer, so
// top-k and single-vertex reads are a pointer load — no lock is held while a
// recompute runs in the background. Each graph name has one writer at a
// time (Server.writers), and recomputes are coalesced: while any write to
// the graph is in flight, further recompute requests attach to it instead of
// queueing duplicate engine runs. The snapshot pointer only ever swaps from
// one complete rank vector to another, so concurrent readers see either the
// old ranks or the new ranks, never a mix.
package serve

import (
	"container/list"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	pcpm "repro"
	"repro/internal/graph"
	"repro/internal/scc"
	"repro/internal/wal"
)

// Errors returned by registry operations; the HTTP layer maps them to
// status codes (404, 409, 400; see writeErr). ErrInvalidOptions marks any
// request parameter the server refuses: an option, a name, a vertex, a
// leader address.
var (
	ErrNotFound       = errors.New("serve: graph not found")
	ErrExists         = errors.New("serve: graph already exists")
	ErrInvalidOptions = errors.New("serve: invalid options")
)

// topKCacheSize is how many top entries each snapshot precomputes so the
// common small-k query is O(k) copy instead of an O(n log n) sort per hit.
const topKCacheSize = 128

var nameRE = regexp.MustCompile(`^[a-zA-Z0-9._-]{1,128}$`)

// ValidName reports whether name is acceptable as a graph registry key
// (path-segment safe: letters, digits, '.', '_', '-'; at most 128 bytes).
func ValidName(name string) bool { return nameRE.MatchString(name) }

// Snapshot is one immutable, completed PageRank computation. All fields are
// written before the snapshot is published and never mutated afterwards.
// Since graphs became dynamic (edge deltas), the snapshot also owns the
// graph structure its ranks were computed on: readers loading the atomic
// pointer always see a consistent (structure, ranks) pair, never a blend of
// pre- and post-delta state.
type Snapshot struct {
	// Graph is the structure the ranks were computed on.
	Graph *graph.Graph
	// Ranks is the full (unscaled) rank vector, indexed by node ID.
	Ranks []float32
	// Options that produced this snapshot.
	Options pcpm.Options
	// Method, Iterations, Delta mirror the pcpm.Result fields. For a
	// snapshot published by an incremental edge-delta repair, Iterations
	// counts repair rounds and Delta carries the undelivered residual.
	Method     pcpm.Method
	Iterations int
	Delta      float64
	// Version increments with every published snapshot of a graph, starting
	// at 1 for the ingest-time computation (seal). It is the graph's
	// only version counter: nothing unpublished consumes one.
	Version uint64
	// RepairDrift accumulates the residual error bounds of every
	// incremental repair since the last full engine run. Each repair adds
	// at most its epsilon of L1 error on top of the ranks it started from;
	// this sum is the budget the server spends before forcing a recompute
	// (see maxRepairDrift), so mutate-heavy workloads cannot drift
	// unboundedly from the true fixed point. Zero on engine-run snapshots.
	RepairDrift float64
	// ComputedAt and ComputeTime record when and how long the engine ran.
	ComputedAt  time.Time
	ComputeTime time.Duration
	// WalLSN is the write-ahead-log position of the mutation that produced
	// this snapshot (zero when durability is off). Stored inside the
	// atomically-published snapshot so checkpoint coverage is exact: a
	// snapshot persisted at WalLSN L reflects every log record for this
	// graph up to and including L, and recovery replay skips those.
	WalLSN uint64

	topk []pcpm.RankEntry // first topKCacheSize entries, precomputed
	memo *structMemo      // what Graph derives, shared with every snapshot of Graph
}

// structMemo holds what one graph structure derives beyond its layout
// (g.Derived). Every snapshot of the same *graph.Graph points at the same
// memo (a recompute changes ranks, not structure), and it is collected with
// the last of them; a publish that changes the structure starts a new one,
// so nothing derived from the old structure is served again. It holds:
//   - the part of the structure's summary that costs a pass over it — the
//     component count and largest component (one sequential Tarjan pass)
//     and the dangling count — filled at most once, and only when a reader
//     asks (Server.info), so no publish pays for it;
//   - the personalized queries computed on it, as an LRU of flights
//     (ppr.go).
type structMemo struct {
	once                          sync.Once
	components, largest, dangling int

	mu      sync.Mutex
	lru     list.List                // guarded by mu; front = most recent, values are *pprFlight
	flights map[string]*list.Element // guarded by mu; by pprKey
}

// fill sets the summary on its first call, taking the component counts from
// components; later calls wait for the first and return.
func (c *structMemo) fill(g *graph.Graph, components func() (count, largest int)) {
	c.once.Do(func() {
		c.components, c.largest = components()
		c.dangling = g.DanglingCount()
	})
}

// TopK returns the k highest-ranked nodes of this snapshot in descending
// order, serving from the precomputed prefix when k is small.
func (s *Snapshot) TopK(k int) []pcpm.RankEntry {
	if k < 0 {
		k = 0
	}
	if k <= len(s.topk) {
		out := make([]pcpm.RankEntry, k)
		copy(out, s.topk[:k])
		return out
	}
	return pcpm.TopK(s.Ranks, k)
}

// entry is one registered graph plus its serving state. The graph structure
// itself lives in the snapshot (it changes under edge deltas), and so does
// what is derived from it (structMemo); the entry holds only the registry
// identity and the last write error.
type entry struct {
	name string

	snap atomic.Pointer[Snapshot]

	mu      sync.Mutex
	lastErr string // guarded by mu
}

// seal fills in what an unpublished snapshot derives from its Graph and Ranks
// and from cur, the name's current snapshot (nil when the name has none): the
// version, one past cur's (a first snapshot keeps the version it was built or
// logged with); the top-k prefix; and the structure memo, cur's when it
// serves the same graph (a rank-only publish), else a new, empty one. The
// caller is the name's only writer, so a sealed snapshot that is never
// published consumes no version.
func seal(cur, snap *Snapshot) *Snapshot {
	if cur != nil {
		snap.Version = cur.Version + 1
	}
	if cur != nil && cur.Graph == snap.Graph {
		snap.memo = cur.memo
	} else {
		snap.memo = new(structMemo)
	}
	snap.topk = pcpm.TopK(snap.Ranks, min(topKCacheSize, len(snap.Ranks)))
	return snap
}

// inflightRun is one write to a name in progress, holding its writer slot
// (Server.writers). Recomputes coalesce onto it; other writes queue behind it.
type inflightRun struct {
	done chan struct{} // closed when the write finishes
	err  error         // valid after done is closed
}

// Config parameterizes a Server.
type Config struct {
	// Defaults are the pcpm options an ingest starts from before its
	// Overrides apply. The zero value means paper defaults. PartitionBytes
	// and Workers size every engine run and personalized batch, whatever a
	// snapshot's options say. The daemon runs one solver (PCPM,
	// branch-avoiding gather): Defaults naming another Method fail every
	// ingest with ErrInvalidOptions.
	Defaults pcpm.Options
	// Logger receives request and recompute logs; nil discards them.
	Logger *slog.Logger
	// MaxUploadBytes caps POST /v1/graphs request bodies (default 1 GiB).
	// Uploads past the cap are rejected with 413.
	MaxUploadBytes int64
	// MaxDeltaEdges caps the edge changes (insertions plus deletions) one
	// POST /v1/graphs/{name}/edges batch may carry (default 100000;
	// negative removes the limit). Oversized batches are rejected before
	// any rebuild or repair work is spent.
	MaxDeltaEdges int
	// DataDir enables durability: every successful ingest, edge delta,
	// removal, and recompute is appended to a write-ahead log under this
	// directory before its snapshot is published, and Recover warm-starts
	// the registry from the newest snapshots plus the log tail. Empty
	// (the default) keeps the registry memory-only.
	DataDir string
	// FsyncEvery selects the WAL fsync policy when DataDir is set: zero
	// (the default) fsyncs every append before acknowledging it, negative
	// never fsyncs explicitly, positive fsyncs at that interval from a
	// background goroutine.
	FsyncEvery time.Duration
	// FollowAddr makes this server a read-only replication follower of the
	// leader at this base URL (e.g. "http://10.0.0.1:8080"): Follow
	// bootstraps from the leader's snapshots, tails its WAL stream, and
	// applies each record the way recovery does, while the HTTP layer
	// rejects writes with 503 plus a leader hint. A follower never opens
	// DataDir while following — when both are set, the directory lies
	// dormant until Promote adopts it as the new leader's log.
	FollowAddr string
	// FollowPollWait is the long-poll window a follower requests per tail
	// round (default 25s).
	FollowPollWait time.Duration
}

// Server owns the graph registry and serves rank queries. Create one with
// New; the zero value is not usable.
type Server struct {
	cfg     Config
	log     *slog.Logger
	started time.Time

	mu sync.RWMutex // protects the registry maps, not entry contents
	// graphs is the serving registry.
	graphs map[string]*entry // guarded by mu
	// writers holds the writer slot of each name being written (claim): an
	// ingest, replace, remove, recompute or edge delta holds it from before
	// its WAL append until its publish, so each name has one writer.
	writers map[string]*inflightRun // guarded by mu

	// computeFn runs one PageRank computation; tests substitute it to make
	// in-flight recomputes observable and deterministic.
	computeFn func(*graph.Graph, pcpm.Options) (*pcpm.Result, error)
	// pprRunFn computes the personalized answers for the queries one
	// request files on a graph; tests substitute it to observe coalescing.
	pprRunFn func(*graph.Graph, [][]uint32, pcpm.PPRRunOptions) ([]*pcpm.PPRResult, error)

	// wal is the durable store, set by Recover when Config.DataDir is
	// given (or by Promote when a follower adopts its dormant data dir);
	// nil keeps the server memory-only. It is an atomic pointer because
	// promotion installs it at runtime while replication handlers read it
	// per request.
	wal atomic.Pointer[wal.Store]

	// gateFollower is the server's current write-gating role, read per
	// request by leaderOnly: true rejects mutations with 503 plus a leader
	// hint. Set at construction from Config.FollowAddr, flipped false by
	// Promote — the one runtime role transition, so a server with a follower
	// and an open gate is a promoted leader. Promote flips it holding the
	// follower's mutex.
	gateFollower atomic.Bool

	// follower holds the replication-follower machinery when
	// Config.FollowAddr is set; see follower.go. The follower's apply
	// goroutine is the only writer of the registry.
	follower *followerState

	// repairDrift is the incremental-repair error budget (maxRepairDrift)
	// and followBackoff the follower's first reconnect backoff
	// (defaultFollowBackoff); tests shrink them after New.
	repairDrift   float64
	followBackoff time.Duration
	// sccFills counts structMemo fills: the decompositions this server ran.
	sccFills atomic.Int64
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	if cfg.MaxUploadBytes <= 0 {
		cfg.MaxUploadBytes = 1 << 30
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	s := &Server{
		cfg:           cfg,
		log:           log,
		started:       time.Now(),
		graphs:        make(map[string]*entry),
		writers:       make(map[string]*inflightRun),
		computeFn:     pcpm.Run,
		repairDrift:   maxRepairDrift,
		followBackoff: defaultFollowBackoff,
	}
	s.pprRunFn = s.runPersonalizedMisses
	if cfg.FollowAddr != "" {
		s.follower = newFollowerState(cfg)
		s.gateFollower.Store(true)
	}
	return s
}

// Ready reports whether the server can answer queries: a follower must have
// bootstrapped its registry from the leader, and a durable leader must have
// recovered its WAL. The health endpoint turns false into a 503 so
// coordinators and CI wait loops can poll without sleep heuristics.
func (s *Server) Ready() (bool, string) {
	if s.gateFollower.Load() {
		if s.follower.bootstraps.Load() == 0 {
			return false, "follower has not bootstrapped from its leader yet"
		}
		return true, ""
	}
	if s.cfg.DataDir != "" && s.wal.Load() == nil {
		return false, "write-ahead log not recovered yet"
	}
	return true, ""
}

// GraphInfo is the JSON-facing summary of one registered graph.
type GraphInfo struct {
	Name        string      `json:"name"`
	Nodes       int         `json:"nodes"`
	Edges       int64       `json:"edges"`
	AvgDegree   float64     `json:"avg_degree"`
	Dangling    int         `json:"dangling"`
	Components  int         `json:"components"`
	LargestComp int         `json:"largest_component"`
	Method      pcpm.Method `json:"method"`
	Iterations  int         `json:"iterations"`
	Delta       float64     `json:"delta"`
	Version     uint64      `json:"version"`
	ComputedAt  time.Time   `json:"computed_at"`
	ComputeMS   float64     `json:"compute_ms"`
	// Recomputing is true while any write to the graph (an ingest, replace,
	// remove, recompute or edge delta) holds its writer slot.
	Recomputing bool   `json:"recomputing"`
	LastError   string `json:"last_error,omitempty"`
}

// info summarizes e's current snapshot. The first info of a structure fills
// its structure memo: a count-only decomposition (sequential Tarjan) on the
// reader's goroutine, holding no lock and no writer slot. Concurrent readers
// wait for it.
func (s *Server) info(e *entry) GraphInfo {
	snap := e.snap.Load()
	snap.memo.fill(snap.Graph, func() (int, int) {
		st := scc.ComputeStats(snap.Graph)
		s.sccFills.Add(1)
		return st.Components, st.LargestComponent
	})
	s.mu.RLock()
	recomputing := s.writers[e.name] != nil
	s.mu.RUnlock()
	e.mu.Lock()
	lastErr := e.lastErr
	e.mu.Unlock()
	return GraphInfo{
		Name:        e.name,
		Nodes:       snap.Graph.NumNodes(),
		Edges:       snap.Graph.NumEdges(),
		AvgDegree:   snap.Graph.AvgDegree(),
		Dangling:    snap.memo.dangling,
		Components:  snap.memo.components,
		LargestComp: snap.memo.largest,
		Method:      snap.Method,
		Iterations:  snap.Iterations,
		Delta:       snap.Delta,
		Version:     snap.Version,
		ComputedAt:  snap.ComputedAt,
		ComputeMS:   float64(snap.ComputeTime) / float64(time.Millisecond),
		Recomputing: recomputing,
		LastError:   lastErr,
	}
}

// AddGraph registers g under name, computes its ranks synchronously with
// ov overlaid on the server defaults, and publishes the first snapshot. It
// fails with ErrExists unless replace is set, and it fails at once, without
// an engine run, while any other write to the name is in progress. A replace
// waits its turn instead and continues the old version sequence, so clients
// using the version as a freshness cursor never see it go backwards.
func (s *Server) AddGraph(name string, g *graph.Graph, ov Overrides, replace bool) (GraphInfo, error) {
	if !ValidName(name) {
		return GraphInfo{}, fmt.Errorf("%w: invalid graph name %q", ErrInvalidOptions, name)
	}
	if err := errors.Join(checkOneSolver(s.cfg.Defaults), ov.Validate(s.cfg.Defaults)); err != nil {
		return GraphInfo{}, err
	}
	e, err := s.ingest(name, g, ov.apply(s.cfg.Defaults), replace)
	if err != nil {
		return GraphInfo{}, err
	}
	snap := e.snap.Load()
	s.log.Info("graph loaded", "graph", name, "nodes", snap.Graph.NumNodes(),
		"edges", snap.Graph.NumEdges(), "method", snap.Method, "compute", snap.ComputeTime)
	return s.info(e), nil
}

// ingest is AddGraph's write: it takes name's writer slot, computes g's
// ranks, logs them and publishes them in a fresh entry. A replace is sealed
// against the snapshot it supersedes, so the logged blob carries the version
// it publishes.
func (s *Server) ingest(name string, g *graph.Graph, opts pcpm.Options, replace bool) (e *entry, err error) {
	run, old, mine := s.claim(name, replace)
	if !mine || (old != nil && !replace) {
		if mine {
			s.release(name, run, nil)
		}
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	// Deferred so a panicking computeFn cannot leak the slot and wedge the
	// name forever (the HTTP recoverer turns the panic into a 500; the name
	// must stay writable afterwards).
	defer func() { s.release(name, run, err) }()
	var cur *Snapshot
	if old != nil {
		cur = old.snap.Load()
	}
	snap, err := s.compute(cur, g, opts)
	if err != nil {
		return nil, err
	}
	// Write-ahead: the ingest must be durable before any reader can see
	// it. A failed append rejects the ingest rather than serving state a
	// restart would silently lose.
	lsn, err := s.walAppendAdd(name, snap)
	if err != nil {
		return nil, err
	}
	snap.WalLSN = lsn
	e = &entry{name: name}
	e.snap.Store(snap)
	s.mu.Lock()
	s.graphs[name] = e
	s.mu.Unlock()
	return e, nil
}

// Remove drops name from the registry, after any write to it in progress.
// Of two racing removals one succeeds and logs the removal; the other finds
// the name gone.
func (s *Server) Remove(name string) (err error) {
	run, e, _ := s.claim(name, true)
	defer func() { s.release(name, run, err) }()
	if e == nil {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	// Write-ahead, without holding the registry lock across an fsync.
	if _, err := s.walAppend(wal.RecRemoveGraph, removeMeta{Name: name}, nil); err != nil {
		return err
	}
	s.dropGraph(name)
	return nil
}

// dropGraph deletes name from the registry: the registry half of Remove, and
// all an applied removal does.
func (s *Server) dropGraph(name string) {
	s.mu.Lock()
	delete(s.graphs, name)
	s.mu.Unlock()
}

// claim takes name's writer slot. A busy slot is waited out when wait is
// set; otherwise its holder is returned instead, with mine false. e is the
// entry registered under name when the slot was taken, nil if none; no other
// write can change that until release.
func (s *Server) claim(name string, wait bool) (run *inflightRun, e *entry, mine bool) {
	for {
		s.mu.Lock()
		cur := s.writers[name]
		if cur == nil {
			run = &inflightRun{done: make(chan struct{})}
			s.writers[name] = run
			e = s.graphs[name]
			s.mu.Unlock()
			return run, e, true
		}
		s.mu.Unlock()
		if !wait {
			return cur, nil, false
		}
		<-cur.done
	}
}

// release frees name's writer slot, ending run with err for the recomputes
// that coalesced onto it.
func (s *Server) release(name string, run *inflightRun, err error) {
	s.mu.Lock()
	delete(s.writers, name)
	s.mu.Unlock()
	run.err = err
	close(run.done)
}

// sortedEntries returns every registered entry, sorted by name.
func (s *Server) sortedEntries() []*entry {
	s.mu.RLock()
	entries := make([]*entry, 0, len(s.graphs))
	for _, e := range s.graphs {
		entries = append(entries, e)
	}
	s.mu.RUnlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	return entries
}

// List returns every registered graph's info, sorted by name.
func (s *Server) List() []GraphInfo {
	entries := s.sortedEntries()
	infos := make([]GraphInfo, len(entries))
	for i, e := range entries {
		infos[i] = s.info(e)
	}
	return infos
}

// Info returns one graph's info.
func (s *Server) Info(name string) (GraphInfo, error) {
	e, err := s.lookup(name)
	if err != nil {
		return GraphInfo{}, err
	}
	return s.info(e), nil
}

// Names returns the registered graph names, sorted, without summarizing the
// graphs (List builds a GraphInfo each, which may decompose).
func (s *Server) Names() []string {
	entries := s.sortedEntries()
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.name
	}
	return names
}

// NumGraphs returns the registry size.
func (s *Server) NumGraphs() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.graphs)
}

// Uptime reports how long the server has existed.
func (s *Server) Uptime() time.Duration { return time.Since(s.started) }

// TopK returns the k highest-ranked nodes of name's current snapshot. The
// read is a single atomic pointer load; it never blocks on recomputes.
func (s *Server) TopK(name string, k int) ([]pcpm.RankEntry, *Snapshot, error) {
	e, err := s.lookup(name)
	if err != nil {
		return nil, nil, err
	}
	snap := e.snap.Load()
	return snap.TopK(k), snap, nil
}

// Rank returns one vertex's rank from name's current snapshot.
func (s *Server) Rank(name string, vertex uint32) (float32, *Snapshot, error) {
	e, err := s.lookup(name)
	if err != nil {
		return 0, nil, err
	}
	snap := e.snap.Load()
	if int64(vertex) >= int64(len(snap.Ranks)) {
		return 0, nil, fmt.Errorf("%w: vertex %d out of range [0,%d)", ErrInvalidOptions, vertex, len(snap.Ranks))
	}
	return snap.Ranks[vertex], snap, nil
}

// RecomputeStatus reports how a Recompute request was handled.
type RecomputeStatus struct {
	// Started is true when this request launched the engine run; false when
	// it coalesced onto a run already in flight (whose options win).
	Started bool
	// Snapshot is the published result when the caller waited, nil otherwise.
	Snapshot *Snapshot
}

// Overrides selectively replace fields of a graph's current options for a
// recompute. Nil fields inherit the value that produced the graph's latest
// snapshot, so a recompute never silently reverts configuration the graph
// was ingested with. The JSON tags are the option keys of both HTTP
// surfaces: the recompute body decodes into this struct and the ingest
// query parser fills it. These are the options that change the answer;
// partition size and worker count are the server's (Config.Defaults) and
// set on every run by compute.
type Overrides struct {
	Damping              *float64 `json:"damping,omitempty"`
	Iterations           *int     `json:"iterations,omitempty"`
	Tolerance            *float64 `json:"tolerance,omitempty"`
	RedistributeDangling *bool    `json:"redistribute,omitempty"`
}

// Validate rejects override values the engine would refuse or that would
// pin it, wrapping ErrInvalidOptions so callers can surface them as client
// errors before a run is scheduled. base is the options o will be applied
// to: an explicit iteration count may not exceed its MaxIterations.
func (o Overrides) Validate(base pcpm.Options) error {
	// Negated so that NaN, which fails every comparison, fails the checks.
	if o.Damping != nil && !(*o.Damping > 0 && *o.Damping < 1) {
		return fmt.Errorf("%w: damping %v outside (0,1)", ErrInvalidOptions, *o.Damping)
	}
	if o.Iterations != nil {
		maxIters := base.MaxIterations
		if maxIters <= 0 {
			maxIters = pcpm.DefaultMaxIterations
		}
		if *o.Iterations < 0 || *o.Iterations > maxIters {
			return fmt.Errorf("%w: iterations %d outside [0,%d]", ErrInvalidOptions, *o.Iterations, maxIters)
		}
	}
	if o.Tolerance != nil && !(*o.Tolerance >= 0 && *o.Tolerance <= math.MaxFloat64) {
		return fmt.Errorf("%w: tolerance %v not a finite non-negative number", ErrInvalidOptions, *o.Tolerance)
	}
	return nil
}

func (o Overrides) apply(base pcpm.Options) pcpm.Options {
	if o.Damping != nil {
		base.Damping = *o.Damping
	}
	if o.Iterations != nil {
		base.Iterations = *o.Iterations
		base.Tolerance = 0 // explicit iteration count turns off convergence mode
	}
	if o.Tolerance != nil {
		base.Tolerance = *o.Tolerance
	}
	if o.RedistributeDangling != nil {
		base.RedistributeDangling = *o.RedistributeDangling
	}
	return base
}

// checkOneSolver rejects ingest options that select another engine: the
// baselines belong to the reproduction tooling (pcpm-pagerank, pcpm-bench),
// and accepting one here would mean ignoring it.
func checkOneSolver(o pcpm.Options) error {
	if o.Method != "" && o.Method != pcpm.MethodPCPM {
		return fmt.Errorf("%w: method %q: the server runs %q only", ErrInvalidOptions, o.Method, pcpm.MethodPCPM)
	}
	return nil
}

// Recompute re-runs PageRank for name with the graph's current options plus
// ov's overrides. If any write to the graph is in flight the request
// coalesces onto it (the in-flight write's outcome takes precedence; this is
// deliberate — coalescing exists to shed duplicate load). With wait set the
// call blocks until that write completes, returns its error, and then the
// graph's current snapshot (ErrNotFound if the write removed it); otherwise
// it returns immediately after scheduling. A run inherits the options of the
// snapshot current when it takes the slot.
func (s *Server) Recompute(name string, ov Overrides, wait bool) (RecomputeStatus, error) {
	e, err := s.lookup(name)
	if err != nil {
		return RecomputeStatus{}, err
	}
	if err := ov.Validate(e.snap.Load().Options); err != nil {
		return RecomputeStatus{}, err
	}
	run, e, started := s.claim(name, false)
	if started {
		if e == nil {
			s.release(name, run, nil)
			return RecomputeStatus{}, fmt.Errorf("%w: %q", ErrNotFound, name)
		}
		go s.runRecompute(e, run, ov.apply(e.snap.Load().Options))
	}

	st := RecomputeStatus{Started: started}
	if !wait {
		return st, nil
	}
	<-run.done
	if run.err != nil {
		return st, run.err
	}
	if e, err = s.lookup(name); err != nil {
		return st, err
	}
	st.Snapshot = e.snap.Load()
	return st, nil
}

// runRecompute executes one coalesced engine run and publishes the result.
// It holds e's writer slot, so it is the only writer of e.snap.
func (s *Server) runRecompute(e *entry, run *inflightRun, opts pcpm.Options) {
	old := e.snap.Load()
	snap, err := s.compute(old, old.Graph, opts)
	if err == nil {
		// Logged with the resulting rank vector (full, or as a signed
		// residual delta against the parent when that is smaller), which
		// recovery and followers republish: recomputes happen once, here.
		var lsn uint64
		lsn, err = s.walAppendRecompute(e.name, old, snap)
		if err == nil {
			snap.WalLSN = lsn
			e.snap.Store(snap)
			s.log.Info("recompute done", "graph", e.name, "version", snap.Version,
				"method", snap.Method, "iterations", snap.Iterations, "compute", snap.ComputeTime)
		} else {
			s.log.Error("recompute not published: wal append failed", "graph", e.name, "error", err)
		}
	} else {
		s.log.Error("recompute failed", "graph", e.name, "error", err)
	}
	e.mu.Lock()
	if err != nil {
		e.lastErr = err.Error()
	} else {
		e.lastErr = ""
	}
	e.mu.Unlock()
	s.release(e.name, run, err)
}

// compute runs the engine and wraps the result in an unpublished Snapshot of
// g, sealed against cur, the snapshot it will supersede (nil for a new name):
// with the next version (1 for a new name) and, on a re-run of cur's graph,
// its structure memo.
//
// Every run is PCPM with the branch-avoiding gather, at the server's
// partition size and worker count. opts inherited from a snapshot an older
// data dir or leader shipped may name another engine or other sizing; those
// are overwritten here, unconsulted, so the published options describe the
// run.
func (s *Server) compute(cur *Snapshot, g *graph.Graph, opts pcpm.Options) (*Snapshot, error) {
	opts.Method = ""
	opts.PartitionBytes, opts.Workers = s.cfg.Defaults.PartitionBytes, s.cfg.Defaults.Workers
	start := time.Now()
	res, err := s.computeFn(g, opts)
	if err != nil {
		return nil, err
	}
	return seal(cur, &Snapshot{
		Graph:       g,
		Ranks:       res.Ranks,
		Options:     opts,
		Method:      res.Method,
		Iterations:  res.Iterations,
		Delta:       res.Delta,
		Version:     1,
		ComputedAt:  time.Now(),
		ComputeTime: time.Since(start),
	}), nil
}

func (s *Server) lookup(name string) (*entry, error) {
	s.mu.RLock()
	e, ok := s.graphs[name]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return e, nil
}

// Package serve implements the rank-serving subsystem: a Server that owns a
// registry of loaded graphs, runs the PCPM engines (via the pcpm facade) on
// ingest or on demand, caches the resulting rank vectors, and answers
// concurrent queries over HTTP.
//
// The serving contract is read-mostly: each graph's latest completed
// computation lives in an immutable Snapshot behind an atomic pointer, so
// top-k and single-vertex reads are a pointer load — no lock is held while a
// recompute runs in the background. Recomputes for the same graph are
// coalesced: while one is in flight, further recompute requests attach to it
// instead of queueing duplicate engine runs. The snapshot pointer only ever
// swaps from one complete rank vector to another, so concurrent readers see
// either the old ranks or the new ranks, never a mix.
package serve

import (
	"errors"
	"fmt"
	"log/slog"
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
// status codes (404, 409).
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
	// at 1 for the ingest-time computation.
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

	topk  []pcpm.RankEntry // first topKCacheSize entries, precomputed
	comps *compMemo        // Graph's structure summary, shared with every snapshot of Graph
}

// compMemo is the part of one graph structure's summary that costs a pass
// over it — the component count and largest component (one sequential
// Tarjan pass) and the dangling count — filled at most once, and only when a
// reader asks (Server.info), so no publish pays for it. Every snapshot of
// the same *graph.Graph points at the same memo (a recompute changes ranks,
// not structure), and it is collected with the last of them.
type compMemo struct {
	once                          sync.Once
	components, largest, dangling int
}

// fill sets the memo on its first call, taking the component counts from
// components; later calls wait for the first and return.
func (c *compMemo) fill(g *graph.Graph, components func() (count, largest int)) {
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
// itself lives in the snapshot (it changes under edge deltas); the entry
// holds only the registry identity and the mutable serving machinery.
type entry struct {
	name string

	snap    atomic.Pointer[Snapshot]
	version atomic.Uint64

	mu       sync.Mutex
	inflight *inflightRun // guarded by mu
	lastErr  string       // guarded by mu
	ppr      *pprCache    // guarded by mu; LRU of personalized answers keyed by query hash
	// pprWait holds personalized computations in flight, keyed like ppr;
	// identical concurrent queries attach instead of recomputing.
	pprWait map[string]*pprInflight // guarded by mu
	// pool holds idle personalized-PageRank engines for this graph, lent to
	// queries and edge-delta repairs alike; see enginePool.
	pool enginePool // guarded by mu
	// structVersion counts structural mutations (edge deltas). A
	// personalized answer computed against an older structure must not
	// enter the cache after a mutation landed.
	structVersion uint64 // guarded by mu
}

// newEntry returns an unpublished, unregistered entry for name.
func (s *Server) newEntry(name string) *entry {
	return &entry{
		name:    name,
		ppr:     newPPRCache(s.cfg.PPRCacheSize),
		pprWait: make(map[string]*pprInflight),
	}
}

// seal fills in what an unpublished snapshot of e derives from its Graph and
// Ranks: the top-k prefix, and the structure memo — the current snapshot's
// when it serves the same graph (a rank-only publish), else a new, empty one.
func (e *entry) seal(snap *Snapshot) *Snapshot {
	if cur := e.snap.Load(); cur != nil && cur.Graph == snap.Graph {
		snap.comps = cur.comps
	} else {
		snap.comps = new(compMemo)
	}
	snap.topk = pcpm.TopK(snap.Ranks, min(topKCacheSize, len(snap.Ranks)))
	return snap
}

// retireLocked drops the serving state shaped on the structure a publish
// just replaced, after the caller has stored the new snapshot: the cached
// personalized answers and (via structVersion) those still being computed
// are stranded, and the pooled engines move to the new graph so the old one
// can be collected. A rank-only publish (recompute) strands nothing and does
// not call it. The caller holds e.mu.
func (e *entry) retireLocked() {
	e.structVersion++
	e.ppr = newPPRCache(e.ppr.cap)
	e.pool.rebind(e.snap.Load().Graph)
}

// inflightRun is a recompute or edge-delta mutation in progress; coalesced
// recompute requests share it, and further mutations queue behind it.
type inflightRun struct {
	done chan struct{} // closed when the run finishes
	err  error         // valid after done is closed
}

// Config parameterizes a Server.
type Config struct {
	// Defaults are the pcpm options applied when an ingest or recompute
	// request leaves a knob unset. The zero value means paper defaults. The
	// daemon runs one solver (PCPM, branch-avoiding gather): Defaults naming
	// another Method fail every ingest with ErrInvalidOptions.
	Defaults pcpm.Options
	// Logger receives request and recompute logs; nil discards them.
	Logger *slog.Logger
	// MaxUploadBytes caps POST /v1/graphs request bodies (default 1 GiB).
	// Uploads past the cap are rejected with 413.
	MaxUploadBytes int64
	// PPRCacheSize caps each graph's LRU of personalized PageRank answers
	// (default 128 queries per graph).
	PPRCacheSize int
	// PPREnginePoolSize caps how many idle personalized-PageRank engines
	// each graph retains for reuse across cache-missed queries and edge-delta
	// repairs (default 4; negative disables pooling, so every miss and every
	// repair allocates fresh scratch).
	// Engine scratch is 16 bytes/node, so the worst-case pinned memory per
	// graph is PPREnginePoolSize × 16 × nodes.
	PPREnginePoolSize int
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
	// pending reserves names whose ingest-time computation is still
	// running: a duplicate ingest fails (or, with replace, waits) on the
	// reservation instead of burning a second engine run. Each channel is
	// closed when its ingest settles.
	pending map[string]chan struct{} // guarded by mu

	// computeFn runs one PageRank computation; tests substitute it to make
	// in-flight recomputes observable and deterministic.
	computeFn func(*graph.Graph, pcpm.Options) (*pcpm.Result, error)
	// pprRunFn computes the personalized answers for a set of cache-missed
	// queries against one entry's graph (borrowing pooled engines); tests
	// substitute it to observe coalescing.
	pprRunFn func(*entry, [][]uint32, pcpm.PPRRunOptions) ([]*pcpm.PPRResult, error)

	// wal is the durable store, set by Recover when Config.DataDir is
	// given (or by Promote when a follower adopts its dormant data dir);
	// nil keeps the server memory-only. It is an atomic pointer because
	// promotion installs it at runtime while replication handlers read it
	// per request.
	wal atomic.Pointer[wal.Store]

	// gateFollower is the server's current write-gating role, read per
	// request by leaderOnly: true rejects mutations with 503 plus a leader
	// hint. Set at construction from Config.FollowAddr, flipped false by
	// Promote — the one runtime role transition. promoted records that the
	// flip happened (for status), and promoteMu single-flights Promote.
	gateFollower atomic.Bool
	promoted     atomic.Bool
	promoteMu    sync.Mutex

	// follower holds the replication-follower machinery when
	// Config.FollowAddr is set; see follower.go. The follower's apply
	// goroutine is the only writer of the registry.
	follower *followerState

	// repairDrift is the incremental-repair error budget (maxRepairDrift)
	// and followBackoff the follower's first reconnect backoff
	// (defaultFollowBackoff); tests shrink them after New.
	repairDrift   float64
	followBackoff time.Duration
	// sccFills counts compMemo fills: the decompositions this server ran.
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
		pending:       make(map[string]chan struct{}),
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
	if s.follower != nil && !s.promoted.Load() {
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
	Recomputing bool        `json:"recomputing"`
	LastError   string      `json:"last_error,omitempty"`
}

// info summarizes e's current snapshot. The first info of a structure fills
// its component memo: a count-only decomposition (sequential Tarjan) on the
// reader's goroutine, holding neither e.mu nor the inflight slot. Concurrent
// readers wait for it.
func (s *Server) info(e *entry) GraphInfo {
	snap := e.snap.Load()
	snap.comps.fill(snap.Graph, func() (int, int) {
		st := scc.ComputeStats(snap.Graph)
		s.sccFills.Add(1)
		return st.Components, st.LargestComponent
	})
	e.mu.Lock()
	recomputing := e.inflight != nil
	lastErr := e.lastErr
	e.mu.Unlock()
	return GraphInfo{
		Name:        e.name,
		Nodes:       snap.Graph.NumNodes(),
		Edges:       snap.Graph.NumEdges(),
		AvgDegree:   snap.Graph.AvgDegree(),
		Dangling:    snap.comps.dangling,
		Components:  snap.comps.components,
		LargestComp: snap.comps.largest,
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
// opts (zero fields fall back to the server defaults, booleans included),
// and publishes the first snapshot. It fails with ErrExists unless replace
// is set; the name is reserved before the engine runs, so a duplicate name
// cannot burn a compute — not even a concurrent duplicate racing the
// ingest-time computation.
//
// Replacing continues the old entry's version sequence so clients using the
// version as a freshness cursor never see it go backwards. Like Remove, a
// replace orphans any in-flight recompute of the old entry: that run still
// finishes (a waiting caller gets its result), but no query will serve it.
//
// Because a zero Options field means "inherit the server default", an
// explicit false cannot be expressed here for the boolean knobs; callers
// that need tri-state overrides (the HTTP layer does) use IngestGraph.
func (s *Server) AddGraph(name string, g *graph.Graph, opts pcpm.Options, replace bool) (GraphInfo, error) {
	return s.addGraph(name, g, s.fillDefaults(opts), replace)
}

// IngestGraph registers g with tri-state Overrides: nil fields inherit the
// server defaults (boolean defaults included), non-nil fields win either
// way — the HTTP ingest path, where ?redistribute=false must beat a
// server-wide default of true.
func (s *Server) IngestGraph(name string, g *graph.Graph, ov Overrides, replace bool) (GraphInfo, error) {
	if err := ov.Validate(); err != nil {
		return GraphInfo{}, err
	}
	return s.addGraph(name, g, ov.apply(s.fillDefaults(pcpm.Options{})), replace)
}

// addGraph is the shared ingest path; opts must already be fully resolved.
func (s *Server) addGraph(name string, g *graph.Graph, opts pcpm.Options, replace bool) (GraphInfo, error) {
	if !ValidName(name) {
		return GraphInfo{}, fmt.Errorf("serve: invalid graph name %q", name)
	}
	if err := errors.Join(checkOneSolver(s.cfg.Defaults), checkOneSolver(opts)); err != nil {
		return GraphInfo{}, err
	}
	// Reserve the name before computing. A plain duplicate fails here
	// without spending an engine run; a replace queues behind the in-flight
	// ingest and then proceeds (replace semantics are last-writer-wins, so
	// serializing them is the least surprising order).
	var ch chan struct{}
	for {
		s.mu.Lock()
		cur, busy := s.pending[name]
		if !busy {
			if _, exists := s.graphs[name]; exists && !replace {
				s.mu.Unlock()
				return GraphInfo{}, fmt.Errorf("%w: %q", ErrExists, name)
			}
			ch = make(chan struct{})
			s.pending[name] = ch
			s.mu.Unlock()
			break
		}
		s.mu.Unlock()
		if !replace {
			return GraphInfo{}, fmt.Errorf("%w: %q (ingest in progress)", ErrExists, name)
		}
		<-cur
	}
	// Deferred so a panicking computeFn cannot leak the reservation and
	// wedge the name forever (the HTTP recoverer turns the panic into a
	// 500; the name must stay ingestable afterwards).
	defer func() {
		s.mu.Lock()
		delete(s.pending, name)
		s.mu.Unlock()
		close(ch)
	}()

	e := s.newEntry(name)
	snap, err := s.compute(e, g, opts)
	if err != nil {
		return GraphInfo{}, err
	}
	// Write-ahead: the ingest must be durable before any reader can see
	// it. A failed append rejects the ingest rather than serving state a
	// restart would silently lose.
	lsn, err := s.walAppendAdd(name, snap, replace)
	if err != nil {
		return GraphInfo{}, err
	}
	snap.WalLSN = lsn

	s.mu.Lock()
	if old, ok := s.graphs[name]; ok {
		// Only a replace can reach here: creations hold the reservation.
		// snap is not yet published, so adjusting its version is safe.
		snap.Version = old.version.Load() + 1
		e.version.Store(snap.Version)
	}
	e.snap.Store(snap)
	s.graphs[name] = e
	s.mu.Unlock()

	s.log.Info("graph loaded", "graph", name, "nodes", snap.Graph.NumNodes(),
		"edges", snap.Graph.NumEdges(), "method", snap.Method, "compute", snap.ComputeTime)
	return s.info(e), nil
}

// Remove drops name from the registry. An in-flight recompute for it may
// still finish, but its result becomes unreachable.
func (s *Server) Remove(name string) error {
	if _, err := s.lookup(name); err != nil {
		return err
	}
	// Write-ahead, without holding the registry lock across an fsync. Two
	// racing removals may both log a record; appliers tolerate the
	// duplicate.
	if _, err := s.walAppend(wal.RecRemoveGraph, removeMeta{Name: name}, nil); err != nil {
		return err
	}
	if !s.dropGraph(name) {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return nil
}

// dropGraph deletes name from the registry and reports whether it was
// there: the registry half of Remove, and all an applied removal does.
func (s *Server) dropGraph(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.graphs[name]
	delete(s.graphs, name)
	return ok
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
		return 0, nil, fmt.Errorf("serve: vertex %d out of range [0,%d)", vertex, len(snap.Ranks))
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
// query parser fills it.
type Overrides struct {
	Damping              *float64 `json:"damping,omitempty"`
	Iterations           *int     `json:"iterations,omitempty"`
	Tolerance            *float64 `json:"tolerance,omitempty"`
	PartitionBytes       *int     `json:"partition,omitempty"`
	Workers              *int     `json:"workers,omitempty"`
	RedistributeDangling *bool    `json:"redistribute,omitempty"`
}

// Validate rejects override values the engine would refuse, wrapping
// ErrInvalidOptions so callers can surface them as client errors before a
// run is scheduled.
func (o Overrides) Validate() error {
	if o.Damping != nil && (*o.Damping <= 0 || *o.Damping >= 1) {
		return fmt.Errorf("%w: damping %v outside (0,1)", ErrInvalidOptions, *o.Damping)
	}
	if o.Iterations != nil && *o.Iterations < 0 {
		return fmt.Errorf("%w: negative iterations %d", ErrInvalidOptions, *o.Iterations)
	}
	if o.Tolerance != nil && *o.Tolerance < 0 {
		return fmt.Errorf("%w: negative tolerance %v", ErrInvalidOptions, *o.Tolerance)
	}
	if o.PartitionBytes != nil &&
		(*o.PartitionBytes < 4 || *o.PartitionBytes&(*o.PartitionBytes-1) != 0) {
		return fmt.Errorf("%w: partition size %d not a power of two >= 4", ErrInvalidOptions, *o.PartitionBytes)
	}
	if o.Workers != nil && *o.Workers < 0 {
		return fmt.Errorf("%w: negative workers %d", ErrInvalidOptions, *o.Workers)
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
	if o.PartitionBytes != nil {
		base.PartitionBytes = *o.PartitionBytes
	}
	if o.Workers != nil {
		base.Workers = *o.Workers
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
// ov's overrides. If a recompute is already in flight the request coalesces
// onto it (the in-flight run's options take precedence; this is deliberate —
// coalescing exists to shed duplicate load). With wait set the call blocks
// until the run completes and returns its error; otherwise it returns
// immediately after scheduling.
func (s *Server) Recompute(name string, ov Overrides, wait bool) (RecomputeStatus, error) {
	e, err := s.lookup(name)
	if err != nil {
		return RecomputeStatus{}, err
	}
	if err := ov.Validate(); err != nil {
		return RecomputeStatus{}, err
	}
	opts := ov.apply(e.snap.Load().Options)

	e.mu.Lock()
	run := e.inflight
	started := run == nil
	if started {
		run = &inflightRun{done: make(chan struct{})}
		e.inflight = run
		go s.runRecompute(e, run, opts)
	}
	e.mu.Unlock()

	st := RecomputeStatus{Started: started}
	if !wait {
		return st, nil
	}
	<-run.done
	if run.err != nil {
		return st, run.err
	}
	st.Snapshot = e.snap.Load()
	return st, nil
}

// runRecompute executes one coalesced engine run and publishes the result.
// Holding the inflight slot makes it the only writer of e.snap, so loading
// the graph here cannot race a delta mutation.
func (s *Server) runRecompute(e *entry, run *inflightRun, opts pcpm.Options) {
	old := e.snap.Load()
	snap, err := s.compute(e, old.Graph, opts)
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
	e.inflight = nil
	if err != nil {
		e.lastErr = err.Error()
	} else {
		e.lastErr = ""
	}
	e.mu.Unlock()
	run.err = err
	close(run.done)
}

// compute runs the engine and wraps the result in an unpublished Snapshot of g
// for e; a re-run of the graph e already serves keeps its component memo
// (entry.seal).
//
// Every run is PCPM with the branch-avoiding gather. opts inherited from a
// snapshot an older data dir or leader shipped may name another engine; that
// is cleared here, unconsulted, so the published options describe the run.
func (s *Server) compute(e *entry, g *graph.Graph, opts pcpm.Options) (*Snapshot, error) {
	opts.Method = ""
	start := time.Now()
	res, err := s.computeFn(g, opts)
	if err != nil {
		return nil, err
	}
	return e.seal(&Snapshot{
		Graph:       g,
		Ranks:       res.Ranks,
		Options:     opts,
		Method:      res.Method,
		Iterations:  res.Iterations,
		Delta:       res.Delta,
		Version:     e.version.Add(1),
		ComputedAt:  time.Now(),
		ComputeTime: time.Since(start),
	}), nil
}

// fillDefaults overlays the server-wide default options onto opts.
func (s *Server) fillDefaults(opts pcpm.Options) pcpm.Options {
	d := s.cfg.Defaults
	if opts.Damping == 0 {
		opts.Damping = d.Damping
	}
	if opts.PartitionBytes == 0 {
		opts.PartitionBytes = d.PartitionBytes
	}
	if opts.Workers == 0 {
		opts.Workers = d.Workers
	}
	// An explicitly requested iteration count means fixed-iteration mode:
	// only overlay the default tolerance when neither knob was set, so a
	// server-wide -tol cannot silently override a request's ?iterations=.
	explicitIters := opts.Iterations != 0
	if !explicitIters {
		opts.Iterations = d.Iterations
	}
	if opts.Tolerance == 0 && !explicitIters {
		opts.Tolerance = d.Tolerance
	}
	if opts.MaxIterations == 0 {
		opts.MaxIterations = d.MaxIterations
	}
	// Boolean knobs follow the same zero-means-default contract as every
	// other field: false inherits the server default. (Callers needing an
	// explicit false against a true default use IngestGraph's Overrides.)
	opts.RedistributeDangling = opts.RedistributeDangling || d.RedistributeDangling
	return opts
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

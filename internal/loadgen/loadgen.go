// Package loadgen is a deterministic workload-replay load harness for the
// rank-serving daemon (cmd/pcpm-serve). From one integer seed it derives a
// fixed schedule of mixed traffic — top-k and single-vertex reads,
// single and batch personalized PageRank queries with Zipf-skewed seed
// sets, batched edge mutations (each insert batch paired with a delete of
// the same batch, so the graph's edge count is conserved over the replay),
// periodic recomputes, graph re-uploads, follower reads and promotions —
// replays it against a live server over HTTP with bounded concurrency, and
// reports per-endpoint latency percentiles and error counts.
//
// Replays are deterministic in the sense that matters for trajectory
// comparisons: the same Config produces byte-for-byte the same request
// schedule, so two builds of the server answer exactly the same traffic.
// The interleaving under concurrency still varies with scheduling, which
// is what a load test wants.
//
// The Zipf skew mirrors real personalized-query traffic: a few hub users
// dominate, which is exactly the regime the serving layer's stored answers
// and ppr's scratch pool are built for (cache hits for the head, misses on
// recycled scratch for the tail).
package loadgen

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"time"
)

// OpKind names one replay operation; kinds map to serving endpoints
// (mutate issues two requests to the edges endpoint: an insert batch and
// its matching delete).
type OpKind string

// The operation kinds of a mixed workload.
const (
	OpTopK         OpKind = "topk"
	OpRank         OpKind = "rank"
	OpPPR          OpKind = "ppr"
	OpPPRBatch     OpKind = "ppr_batch"
	OpMutate       OpKind = "mutate"
	OpRecompute    OpKind = "recompute"
	OpUpload       OpKind = "upload"
	OpFollowerRead OpKind = "follower_read"
	OpPromote      OpKind = "promote"
)

// opKinds is the fixed aggregation order of reports.
var opKinds = []OpKind{OpTopK, OpRank, OpPPR, OpPPRBatch, OpMutate, OpRecompute, OpUpload, OpFollowerRead, OpPromote}

// Mix holds the relative weights of each operation kind in the schedule.
// Weights are proportions, not percentages; the zero value of a field
// removes that kind from the replay.
//
// Mutate and Upload do not compose in one mix: a mutate op deletes the
// edges it inserted with a second request, and a concurrent re-upload
// (replace) resets the graph between the two, making the delete fail. Use
// one or the other per replay.
//
// FollowerRead ops exercise a replicated deployment's read fan-out: each
// draws a replica from Config.FollowerURLs (Zipf vertex, alternating
// topk/rank) and issues the read there instead of at BaseURL, measuring
// follower-served latency under the same schedule that mutates the leader.
//
// Promote ops exercise the failover control path: each POSTs to the
// promote endpoint of the follower at Config.PromoteURL. The first one in
// a replay performs the actual promotion (its latency is the failover-cut
// sample); the rest measure the idempotent already-leader answer.
// Concurrent reads and writes keep flowing meanwhile, which is exactly the
// regime a real failover happens in.
type Mix struct {
	TopK         int `json:"topk"`
	Rank         int `json:"rank"`
	PPR          int `json:"ppr"`
	PPRBatch     int `json:"ppr_batch"`
	Mutate       int `json:"mutate"`
	Recompute    int `json:"recompute"`
	Upload       int `json:"upload"`
	FollowerRead int `json:"follower_read"`
	Promote      int `json:"promote"`
}

// DefaultMix is a read-heavy serving profile: mostly cached global reads,
// a solid share of personalized queries, and rare mutations. Mutate is off
// by default (it conflicts with Upload, see Mix); select it explicitly
// with a mutation-mix spec like "topk=40,ppr=20,mutate=20,recompute=5".
func DefaultMix() Mix {
	return Mix{TopK: 50, Rank: 15, PPR: 25, PPRBatch: 6, Recompute: 2, Upload: 2}
}

// ParseMix parses a "kind=weight,kind=weight" spec (e.g.
// "topk=50,ppr=30,recompute=1"); kinds left out get weight 0.
func ParseMix(spec string) (Mix, error) {
	var m Mix
	fields := map[string]*int{
		string(OpTopK):         &m.TopK,
		string(OpRank):         &m.Rank,
		string(OpPPR):          &m.PPR,
		string(OpPPRBatch):     &m.PPRBatch,
		"batch":                &m.PPRBatch, // shorthand
		string(OpMutate):       &m.Mutate,
		string(OpRecompute):    &m.Recompute,
		string(OpUpload):       &m.Upload,
		string(OpFollowerRead): &m.FollowerRead,
		"follower":             &m.FollowerRead, // shorthand
		string(OpPromote):      &m.Promote,
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return Mix{}, fmt.Errorf("loadgen: bad mix entry %q: want kind=weight", part)
		}
		dst, known := fields[strings.TrimSpace(key)]
		if !known {
			return Mix{}, fmt.Errorf("loadgen: unknown mix kind %q", key)
		}
		var w int
		if _, err := fmt.Sscanf(strings.TrimSpace(val), "%d", &w); err != nil || w < 0 {
			return Mix{}, fmt.Errorf("loadgen: bad mix weight %q", val)
		}
		*dst = w
	}
	return m, nil
}

func (m Mix) weight(k OpKind) int {
	switch k {
	case OpTopK:
		return m.TopK
	case OpRank:
		return m.Rank
	case OpPPR:
		return m.PPR
	case OpPPRBatch:
		return m.PPRBatch
	case OpMutate:
		return m.Mutate
	case OpRecompute:
		return m.Recompute
	case OpUpload:
		return m.Upload
	case OpFollowerRead:
		return m.FollowerRead
	case OpPromote:
		return m.Promote
	}
	return 0
}

// Config parameterizes one replay.
type Config struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Graph is the registry name the replay targets.
	Graph string
	// Seed derives the whole schedule; same seed, same requests.
	Seed uint64
	// Ops is the total operation count (default 1000).
	Ops int
	// Concurrency bounds in-flight requests (default 8).
	Concurrency int
	// Nodes is the seed/vertex ID space, exclusive; queries draw IDs from
	// [0, Nodes). Must match the target graph.
	Nodes int
	// ZipfS is the Zipf skew exponent for PPR seed sets and rank reads
	// (must be > 1; default 1.2 — mild hub concentration).
	ZipfS float64
	// K is the top-k payload size of topk and ppr operations (default 10).
	K int
	// BatchSize is the query count of one ppr_batch operation (default 4).
	BatchSize int
	// Epsilon is the requested PPR precision; 0 uses the server default.
	Epsilon float64
	// Mix weights the operation kinds (zero value: DefaultMix). Recompute
	// and Upload weights are ignored unless the target supports them
	// (Upload additionally requires UploadBody).
	Mix Mix
	// UploadBody is the graph payload re-uploaded (replace=true) by upload
	// operations; nil disables them.
	UploadBody []byte
	// FollowerURLs lists replica base URLs for follower_read operations
	// (e.g. "http://127.0.0.1:8081"); empty disables them.
	FollowerURLs []string
	// PromoteURL is the base URL of the follower promote operations target;
	// empty disables them. See the Promote paragraph on Mix.
	PromoteURL string
	// Client overrides the HTTP client (default: 30 s timeout).
	Client *http.Client
}

func (cfg Config) withDefaults() (Config, error) {
	if cfg.BaseURL == "" {
		return cfg, fmt.Errorf("loadgen: BaseURL required")
	}
	if cfg.Graph == "" {
		return cfg, fmt.Errorf("loadgen: Graph required")
	}
	if cfg.Nodes <= 0 {
		return cfg, fmt.Errorf("loadgen: Nodes must be positive")
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 1000
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 8
	}
	if cfg.ZipfS == 0 {
		cfg.ZipfS = 1.2
	}
	if cfg.ZipfS <= 1 {
		return cfg, fmt.Errorf("loadgen: ZipfS must be > 1, got %v", cfg.ZipfS)
	}
	if cfg.K <= 0 {
		cfg.K = 10
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 4
	}
	if cfg.Mix == (Mix{}) {
		cfg.Mix = DefaultMix()
	}
	if cfg.UploadBody == nil {
		cfg.Mix.Upload = 0
	}
	if len(cfg.FollowerURLs) == 0 {
		cfg.Mix.FollowerRead = 0
	}
	if cfg.PromoteURL == "" {
		cfg.Mix.Promote = 0
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 30 * time.Second}
	}
	return cfg, nil
}

// Op is one scheduled operation.
type Op struct {
	Kind OpKind
	// Node is the vertex of a rank read.
	Node uint32
	// Seeds holds the seed sets of a ppr (one set) or ppr_batch (several)
	// operation.
	Seeds [][]uint32
	// Edges holds the [src, dst] pairs of a mutate operation: the op first
	// inserts them, then deletes the same batch, exercising both delta
	// paths while leaving the graph's edge count unchanged over the replay.
	Edges [][2]uint32
	// Follower indexes Config.FollowerURLs and Read picks the read shape
	// (OpTopK or OpRank) of a follower_read operation.
	Follower int
	Read     OpKind
}

// Schedule derives the deterministic operation sequence for cfg. Exported
// so tests (and curious operators) can inspect exactly what a seed replays.
func Schedule(cfg Config) ([]Op, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	total := 0
	for _, k := range opKinds {
		total += cfg.Mix.weight(k)
	}
	if total == 0 {
		return nil, fmt.Errorf("loadgen: mix has no positive weights")
	}
	// math/rand (v1) is used deliberately: it has the Zipf generator and a
	// stable seeded stream, which is the whole point of a replay.
	rng := rand.New(rand.NewSource(int64(cfg.Seed)))
	zipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Nodes-1))
	drawSeeds := func(n int) []uint32 {
		set := make([]uint32, n)
		for i := range set {
			set[i] = uint32(zipf.Uint64())
		}
		return set
	}
	ops := make([]Op, cfg.Ops)
	for i := range ops {
		pick := rng.Intn(total)
		var kind OpKind
		for _, k := range opKinds {
			if w := cfg.Mix.weight(k); pick < w {
				kind = k
				break
			} else {
				pick -= w
			}
		}
		op := Op{Kind: kind}
		switch kind {
		case OpRank:
			op.Node = uint32(zipf.Uint64())
		case OpPPR:
			// 1–3 seeds per personalized query, Zipf-skewed toward hubs.
			op.Seeds = [][]uint32{drawSeeds(1 + rng.Intn(3))}
		case OpPPRBatch:
			op.Seeds = make([][]uint32, cfg.BatchSize)
			for j := range op.Seeds {
				op.Seeds[j] = drawSeeds(1 + rng.Intn(3))
			}
		case OpMutate:
			// 1–4 edge changes, endpoints Zipf-skewed toward hubs — churn
			// concentrates on popular vertices in real mutation streams.
			op.Edges = make([][2]uint32, 1+rng.Intn(4))
			for j := range op.Edges {
				op.Edges[j] = [2]uint32{uint32(zipf.Uint64()), uint32(zipf.Uint64())}
			}
		case OpFollowerRead:
			op.Follower = rng.Intn(len(cfg.FollowerURLs))
			if rng.Intn(2) == 0 {
				op.Read = OpTopK
			} else {
				op.Read = OpRank
				op.Node = uint32(zipf.Uint64())
			}
		}
		ops[i] = op
	}
	return ops, nil
}

// EndpointStats aggregates one endpoint's replay outcomes.
type EndpointStats struct {
	Endpoint string  `json:"endpoint"`
	Count    int     `json:"count"`
	Errors   int     `json:"errors"`
	MeanMS   float64 `json:"mean_ms"`
	P50MS    float64 `json:"p50_ms"`
	P99MS    float64 `json:"p99_ms"`
	MaxMS    float64 `json:"max_ms"`
}

// Report is one completed replay.
type Report struct {
	Graph       string          `json:"graph"`
	Seed        uint64          `json:"seed"`
	Ops         int             `json:"ops"`
	Concurrency int             `json:"concurrency"`
	Errors      int             `json:"errors"`
	DurationMS  float64         `json:"duration_ms"`
	OpsPerSec   float64         `json:"ops_per_sec"`
	Endpoints   []EndpointStats `json:"endpoints"`
}

// Run replays cfg's schedule and aggregates the outcome.
func Run(cfg Config) (*Report, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	ops, err := Schedule(cfg)
	if err != nil {
		return nil, err
	}
	c := newClient(cfg)

	latencies := make([]time.Duration, len(ops))
	failed := make([]bool, len(ops))
	start := time.Now()
	// A shared channel of indices keeps op order stable while letting the
	// configured number of workers drain it.
	idx := make(chan int)
	done := make(chan struct{})
	workers := cfg.Concurrency
	if workers > len(ops) {
		workers = len(ops)
	}
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := range idx {
				t0 := time.Now()
				failed[i] = c.do(ops[i]) != nil
				latencies[i] = time.Since(t0)
			}
		}()
	}
	for i := range ops {
		idx <- i
	}
	close(idx)
	for w := 0; w < workers; w++ {
		<-done
	}
	wall := time.Since(start)

	rep := &Report{
		Graph:       cfg.Graph,
		Seed:        cfg.Seed,
		Ops:         len(ops),
		Concurrency: workers,
		DurationMS:  float64(wall) / float64(time.Millisecond),
		OpsPerSec:   float64(len(ops)) / wall.Seconds(),
	}
	for _, kind := range opKinds {
		var lat []time.Duration
		errs := 0
		for i, op := range ops {
			if op.Kind != kind {
				continue
			}
			lat = append(lat, latencies[i])
			if failed[i] {
				errs++
			}
		}
		if len(lat) == 0 {
			continue
		}
		rep.Errors += errs
		rep.Endpoints = append(rep.Endpoints, summarize(string(kind), lat, errs))
	}
	return rep, nil
}

// summarize folds one endpoint's latencies into stats.
func summarize(name string, lat []time.Duration, errs int) EndpointStats {
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	pct := func(p float64) time.Duration {
		i := int(p*float64(len(lat))) - 1
		if i < 0 {
			i = 0
		}
		return lat[i]
	}
	var total time.Duration
	for _, d := range lat {
		total += d
	}
	return EndpointStats{
		Endpoint: name,
		Count:    len(lat),
		Errors:   errs,
		MeanMS:   ms(total / time.Duration(len(lat))),
		P50MS:    ms(pct(0.50)),
		P99MS:    ms(pct(0.99)),
		MaxMS:    ms(lat[len(lat)-1]),
	}
}

// client executes single operations against the target server.
type client struct {
	cfg  Config
	http *http.Client
}

func newClient(cfg Config) *client { return &client{cfg: cfg, http: cfg.Client} }

func (c *client) do(op Op) error {
	g := c.cfg.Graph
	switch op.Kind {
	case OpTopK:
		return c.get(fmt.Sprintf("%s/v1/graphs/%s/topk?k=%d", c.cfg.BaseURL, g, c.cfg.K))
	case OpRank:
		return c.get(fmt.Sprintf("%s/v1/graphs/%s/rank/%d", c.cfg.BaseURL, g, op.Node))
	case OpPPR:
		return c.post(fmt.Sprintf("%s/v1/graphs/%s/ppr", c.cfg.BaseURL, g),
			"application/json", pprBody(op.Seeds[0], nil, c.cfg.K, c.cfg.Epsilon))
	case OpPPRBatch:
		return c.post(fmt.Sprintf("%s/v1/graphs/%s/ppr", c.cfg.BaseURL, g),
			"application/json", pprBody(nil, op.Seeds, c.cfg.K, c.cfg.Epsilon))
	case OpMutate:
		// Insert the batch, then delete the same batch: both delta paths are
		// exercised and the replayed graph's edge count is conserved, so a
		// long replay cannot grow the graph without bound. The delete only
		// removes instances this op inserted, which keeps concurrent mutate
		// ops from invalidating each other.
		url := fmt.Sprintf("%s/v1/graphs/%s/edges", c.cfg.BaseURL, g)
		if err := c.post(url, "application/json", edgesOpBody("insert", op.Edges)); err != nil {
			return err
		}
		return c.post(url, "application/json", edgesOpBody("delete", op.Edges))
	case OpRecompute:
		// Async on purpose: the point is to exercise snapshot swaps under
		// read load, not to serialize on engine runs. Concurrent
		// recomputes coalesce server-side.
		return c.post(fmt.Sprintf("%s/v1/graphs/%s/recompute", c.cfg.BaseURL, g),
			"application/json", nil)
	case OpUpload:
		return c.post(fmt.Sprintf("%s/v1/graphs?name=%s&replace=true", c.cfg.BaseURL, g),
			"application/octet-stream", c.cfg.UploadBody)
	case OpFollowerRead:
		base := c.cfg.FollowerURLs[op.Follower]
		if op.Read == OpRank {
			return c.get(fmt.Sprintf("%s/v1/graphs/%s/rank/%d", base, g, op.Node))
		}
		return c.get(fmt.Sprintf("%s/v1/graphs/%s/topk?k=%d", base, g, c.cfg.K))
	case OpPromote:
		return c.post(c.cfg.PromoteURL+"/v1/repl/promote", "application/json", nil)
	}
	return fmt.Errorf("loadgen: unknown op kind %q", op.Kind)
}

// pprBody marshals a ppr request body without encoding/json (the schedule
// is hot-path enough during replay that the simple writer is worth it).
func pprBody(seeds []uint32, batch [][]uint32, k int, epsilon float64) []byte {
	var b bytes.Buffer
	writeSet := func(set []uint32) {
		b.WriteByte('[')
		for i, s := range set {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", s)
		}
		b.WriteByte(']')
	}
	b.WriteByte('{')
	if batch != nil {
		b.WriteString(`"batch":[`)
		for i, set := range batch {
			if i > 0 {
				b.WriteByte(',')
			}
			writeSet(set)
		}
		b.WriteByte(']')
	} else {
		b.WriteString(`"seeds":`)
		writeSet(seeds)
	}
	fmt.Fprintf(&b, `,"k":%d`, k)
	if epsilon > 0 {
		fmt.Fprintf(&b, `,"epsilon":%g`, epsilon)
	}
	b.WriteByte('}')
	return b.Bytes()
}

// edgesOpBody marshals one side of a mutate operation ("insert" or
// "delete") into the edges endpoint's JSON body.
func edgesOpBody(kind string, edges [][2]uint32) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"%s":[`, kind)
	for i, e := range edges {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "[%d,%d]", e[0], e[1])
	}
	b.WriteString("]}")
	return b.Bytes()
}

func (c *client) get(url string) error {
	resp, err := c.http.Get(url)
	return c.settle(resp, err)
}

func (c *client) post(url, contentType string, body []byte) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	resp, err := c.http.Post(url, contentType, rd)
	return c.settle(resp, err)
}

// settle drains and closes the response, mapping transport failures and
// error statuses to errors.
func (c *client) settle(resp *http.Response, err error) error {
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // best-effort drain for keep-alive
	if resp.StatusCode >= 400 {
		return fmt.Errorf("loadgen: status %d", resp.StatusCode)
	}
	return nil
}

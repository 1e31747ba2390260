package serve

import (
	"container/list"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	pcpm "repro"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/ppr"
)

// ErrBadSeeds marks a personalized-query seed set the engine would reject
// (empty, or naming a vertex outside the graph); the HTTP layer maps it to
// 400 before any compute is spent.
var ErrBadSeeds = errors.New("serve: invalid seed set")

// pprCacheSize is how many personalized queries each graph structure keeps
// flights for (structMemo).
const pprCacheSize = 128

// defaultPPRTopK is the top-K payload size when a query leaves k unset.
const defaultPPRTopK = 10

// Abuse limits for the personalized endpoint: requests are untrusted, so
// one body must not be able to pin unbounded CPU or memory. The engine's
// per-round work is O(m), so the round cap times maxPPRBatchQueries bounds
// the compute one request can demand.
const (
	// maxPPRBatchQueries caps seed sets per request.
	maxPPRBatchQueries = 64
	// maxPPRSeedsPerQuery caps one query's seed vertices.
	maxPPRSeedsPerQuery = 1024
	// maxPPRTopK caps the per-query payload size.
	maxPPRTopK = 1000
	// minPPREpsilon is the precision floor; requested epsilons below it are
	// clamped (a looser bound is served, and the clamped value keys the
	// cache) rather than letting a client demand unbounded rounds.
	minPPREpsilon = 1e-9
	// maxPPRRounds caps engine rounds per served query, well above what
	// minPPREpsilon needs at the default damping but a hard stop for
	// graphs ingested with damping near 1.
	maxPPRRounds = 1000
)

// PPRScore is the wire form of one personalized-rank entry.
type PPRScore struct {
	Node  uint32  `json:"node"`
	Score float64 `json:"score"`
}

// PPRAnswer is one served personalized PageRank query. Answers are immutable
// once built — a flight hands the same value to every repeat query.
type PPRAnswer struct {
	// Seeds is the canonicalized (sorted, deduplicated) seed set.
	Seeds []uint32 `json:"seeds"`
	// K is the top-K payload size the answer was computed with.
	K int `json:"k"`
	// Top holds the K highest personalized scores, descending.
	Top []PPRScore `json:"scores"`
	// Rounds and Pushes summarize the push computation (zero cost on hits):
	// Rounds counts push passes (sweeps and Aitken steps), and Pushes every
	// vertex push over all of them.
	Rounds int   `json:"rounds"`
	Pushes int64 `json:"pushes"`
	// ResidualL1 bounds the L1 error of the underlying score vector.
	ResidualL1 float64 `json:"residual_l1"`
	// Truncated is true when the run hit the serving round cap before
	// reaching the requested epsilon: the scores are an honest partial
	// answer, not a converged one. Truncated answers are never cached.
	Truncated bool `json:"truncated,omitempty"`
	// ComputeMS is the engine wall-clock of the original computation.
	ComputeMS float64 `json:"compute_ms"`
	// Cached is true when another request computed this answer.
	Cached bool `json:"cached"`
}

// pprFlight is one personalized query on one graph structure, running or
// landed. The request that files it computes it; every other request that
// finds it waits on done and serves its answer.
type pprFlight struct {
	key  string
	done chan struct{} // closed when the run lands
	ans  PPRAnswer     // valid after done closes, when err is nil
	err  error         // valid after done closes
}

// flightLocked returns key's flight, promoting it to most recent, or files
// a new one (filed), evicting the least recent past pprCacheSize. Keys
// canonicalize the whole query (damping, epsilon, k, sorted seed set); the
// structure is the memo's own.
func (m *structMemo) flightLocked(key string) (fl *pprFlight, filed bool) {
	if el, ok := m.flights[key]; ok {
		m.lru.MoveToFront(el)
		return el.Value.(*pprFlight), false
	}
	if m.flights == nil {
		m.flights = make(map[string]*list.Element)
	}
	fl = &pprFlight{key: key, done: make(chan struct{})}
	m.flights[key] = m.lru.PushFront(fl)
	if m.lru.Len() > pprCacheSize {
		delete(m.flights, m.lru.Remove(m.lru.Back()).(*pprFlight).key)
	}
	return fl, true
}

// landLocked hands fl's outcome to its waiters. A flight without an answer
// converged to its keyed epsilon — failed, or truncated by the round cap —
// leaves the table, so a later request computes it afresh.
func (m *structMemo) landLocked(fl *pprFlight, ans PPRAnswer, err error) {
	fl.ans, fl.err = ans, err
	if el, ok := m.flights[fl.key]; ok && el.Value == fl && (err != nil || ans.Truncated) {
		m.lru.Remove(el)
		delete(m.flights, fl.key)
	}
	close(fl.done)
}

// pprKey canonicalizes one query into a cache key. Seeds must already be
// sorted and deduplicated.
func pprKey(damping, epsilon float64, k int, seeds []uint32) string {
	var b strings.Builder
	b.Grow(32 + 8*len(seeds))
	b.WriteString(strconv.FormatFloat(damping, 'g', -1, 64))
	b.WriteByte('|')
	b.WriteString(strconv.FormatFloat(epsilon, 'g', -1, 64))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(k))
	for _, s := range seeds {
		b.WriteByte('|')
		b.WriteString(strconv.FormatUint(uint64(s), 10))
	}
	return b.String()
}

// canonicalSeeds sorts, deduplicates, and range-checks one seed set via the
// engine's own canonicalization, mapping failures to ErrBadSeeds.
func canonicalSeeds(n int, seeds []uint32) ([]uint32, error) {
	cs, err := ppr.CanonicalSeeds(n, seeds)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSeeds, err)
	}
	return cs, nil
}

// normalizePPRLimits applies the serving defaults and abuse limits to one
// request's k and epsilon: k <= 0 means defaultPPRTopK, k above maxPPRTopK
// is rejected, epsilon <= 0 means the engine default, and sub-floor
// epsilons are clamped to minPPREpsilon (the clamped value keys the cache).
func normalizePPRLimits(k int, epsilon float64) (int, float64, error) {
	if k <= 0 {
		k = defaultPPRTopK
	}
	if k > maxPPRTopK {
		return 0, 0, fmt.Errorf("%w: k %d exceeds the limit of %d", ErrInvalidOptions, k, maxPPRTopK)
	}
	if epsilon <= 0 {
		epsilon = ppr.DefaultEpsilon
	}
	if epsilon < minPPREpsilon {
		epsilon = minPPREpsilon
	}
	return k, epsilon, nil
}

// runPersonalizedMisses is the default pprRunFn: it answers the queries one
// request computes on g, scheduled dynamically across workers.
func (s *Server) runPersonalizedMisses(g *graph.Graph, seedSets [][]uint32, ro pcpm.PPRRunOptions) ([]*pcpm.PPRResult, error) {
	results := make([]*pcpm.PPRResult, len(seedSets))
	errs := make([]error, len(seedSets))
	par.ForDynamic(len(seedSets), min(par.Workers(s.cfg.Defaults.Workers), len(seedSets)), func(i int) {
		results[i], errs[i] = pcpm.RunPersonalized(g, seedSets[i], ro)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// Personalized answers a batch of personalized PageRank queries against one
// graph. Each element of seedSets is one query's seed vertices; k and
// epsilon apply to the whole batch (k <= 0 means 10, epsilon <= 0 means the
// engine default; both are subject to the abuse limits above, and epsilon
// is clamped to minPPREpsilon). The damping factor is inherited from the options that
// produced the graph's current snapshot, so personalized and global ranks
// stay comparable, and so is the worker count a batch of misses is spread
// over.
//
// Answers live on the structure they were computed on (structMemo): a
// query whose flight that structure holds, running or landed, waits on it
// (like a coalesced recompute); the rest are filed and computed together,
// each query sequential. A publish that changes the structure starts a new
// memo, so no answer outlives the graph it describes.
func (s *Server) Personalized(name string, seedSets [][]uint32, k int, epsilon float64) ([]PPRAnswer, error) {
	e, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	if len(seedSets) == 0 {
		return nil, fmt.Errorf("%w: no queries", ErrBadSeeds)
	}
	if len(seedSets) > maxPPRBatchQueries {
		return nil, fmt.Errorf("%w: %d queries exceeds the per-request limit of %d",
			ErrInvalidOptions, len(seedSets), maxPPRBatchQueries)
	}
	k, epsilon, err = normalizePPRLimits(k, epsilon)
	if err != nil {
		return nil, err
	}
	snap := e.snap.Load()
	damping := snap.Options.Damping
	if damping == 0 {
		damping = ppr.DefaultDamping
	}

	canon := make([][]uint32, len(seedSets))
	keys := make([]string, len(seedSets))
	for i, seeds := range seedSets {
		if len(seeds) > maxPPRSeedsPerQuery {
			return nil, fmt.Errorf("%w: query %d has %d seeds, limit %d",
				ErrInvalidOptions, i, len(seeds), maxPPRSeedsPerQuery)
		}
		cs, err := canonicalSeeds(snap.Graph.NumNodes(), seeds)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		canon[i], keys[i] = cs, pprKey(damping, epsilon, k, cs)
	}

	// A key named twice in the batch finds the flight its first occurrence
	// filed, and is answered by the same run.
	m := snap.memo
	flights := make([]*pprFlight, len(seedSets))
	var owned []*pprFlight // filed by this request, aligned with missSets
	var missSets [][]uint32
	m.mu.Lock()
	for i := range seedSets {
		fl, filed := m.flightLocked(keys[i])
		flights[i] = fl
		if filed {
			owned = append(owned, fl)
			missSets = append(missSets, canon[i])
		}
	}
	m.mu.Unlock()

	if len(owned) > 0 {
		// If the run panics, the filed flights must still land, or every
		// later identical query would wait forever.
		landed := false
		defer func() {
			if !landed {
				m.mu.Lock()
				for _, fl := range owned {
					m.landLocked(fl, PPRAnswer{}, errors.New("serve: personalized computation aborted"))
				}
				m.mu.Unlock()
			}
		}()
		results, err := s.pprRunFn(snap.Graph, missSets, pcpm.PPRRunOptions{
			Damping:   damping,
			Epsilon:   epsilon,
			TopK:      k,
			TopOnly:   true, // answers serve only the top-K; skip O(n) copies
			MaxRounds: maxPPRRounds,
		})
		m.mu.Lock()
		landed = true
		for j, fl := range owned {
			var ans PPRAnswer
			if err == nil {
				ans = toPPRAnswer(missSets[j], k, results[j])
			}
			m.landLocked(fl, ans, err)
		}
		m.mu.Unlock()
		s.log.Debug("ppr computed", "graph", name,
			"queries", len(seedSets), "misses", len(owned))
	}

	answers := make([]PPRAnswer, len(seedSets))
	for i, fl := range flights {
		<-fl.done
		if fl.err != nil {
			return nil, fl.err
		}
		answers[i] = fl.ans
		answers[i].Seeds = canon[i]
		answers[i].Cached = !slices.Contains(owned, fl)
	}
	return answers, nil
}

func toPPRAnswer(seeds []uint32, k int, res *pcpm.PPRResult) PPRAnswer {
	top := make([]PPRScore, len(res.Top))
	for i, en := range res.Top {
		top[i] = PPRScore{Node: en.Node, Score: en.Score}
	}
	return PPRAnswer{
		Seeds:      seeds,
		K:          k,
		Top:        top,
		Rounds:     res.Rounds,
		Pushes:     res.Pushes,
		ResidualL1: res.ResidualL1,
		Truncated:  res.Truncated,
		ComputeMS:  float64(res.Duration) / float64(time.Millisecond),
	}
}

// PPRCacheLen reports how many personalized queries the structure name
// serves holds flights for (testing and observability).
func (s *Server) PPRCacheLen(name string) (int, error) {
	e, err := s.lookup(name)
	if err != nil {
		return 0, err
	}
	m := e.snap.Load().memo
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lru.Len(), nil
}

package serve

import (
	"container/list"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	pcpm "repro"
	"repro/internal/par"
	"repro/internal/ppr"
)

// ErrBadSeeds marks a personalized-query seed set the engine would reject
// (empty, or naming a vertex outside the graph); the HTTP layer maps it to
// 400 before any compute is spent.
var ErrBadSeeds = errors.New("serve: invalid seed set")

// defaultPPRCacheSize is the per-graph LRU capacity for personalized
// answers when Config.PPRCacheSize is unset.
const defaultPPRCacheSize = 128

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
// once built — the LRU hands the same value to every repeat query.
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
	// Cached is true when this answer was served from the per-graph LRU.
	Cached bool `json:"cached"`
}

// pprInflight is one personalized computation in progress; identical
// queries arriving from other requests attach to it instead of launching a
// duplicate engine run.
type pprInflight struct {
	done chan struct{} // closed when the run finishes
	ans  PPRAnswer     // valid after done closes, when err is nil
	err  error         // valid after done closes
}

// pprCache is a small mutex-guarded LRU of personalized answers, one per
// registered graph. Keys canonicalize the whole query (damping, epsilon, k,
// sorted seed set), and only answers that converged to their keyed epsilon
// are inserted, so a hit always satisfies the precision it claims. Edge
// deltas do change a graph's structure: each one replaces the cache
// (retireLocked), and the structVersion check in Personalized keeps a run
// that raced a delta from inserting an answer for the graph that is gone.
// A damping change via recompute simply keys new entries.
type pprCache struct {
	cap   int
	order *list.List // front = most recent; values are *pprCacheEntry
	items map[string]*list.Element
}

type pprCacheEntry struct {
	key string
	ans PPRAnswer
}

func newPPRCache(capacity int) *pprCache {
	if capacity <= 0 {
		capacity = defaultPPRCacheSize
	}
	return &pprCache{
		cap:   capacity,
		order: list.New(),
		items: make(map[string]*list.Element, capacity),
	}
}

// get returns the cached answer for key, promoting it to most-recent.
// Callers must hold the owning entry's mu.
func (c *pprCache) get(key string) (PPRAnswer, bool) {
	el, ok := c.items[key]
	if !ok {
		return PPRAnswer{}, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*pprCacheEntry).ans, true
}

// put inserts an answer, evicting the least-recently-used entry past
// capacity. Callers must hold the owning entry's mu.
func (c *pprCache) put(key string, ans PPRAnswer) {
	if el, ok := c.items[key]; ok {
		el.Value.(*pprCacheEntry).ans = ans
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&pprCacheEntry{key: key, ans: ans})
	for c.order.Len() > c.cap {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.items, back.Value.(*pprCacheEntry).key)
	}
}

func (c *pprCache) len() int { return c.order.Len() }

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

// runPersonalizedMisses is the default pprRunFn: it answers the distinct
// cache-missed queries of one request, scheduled dynamically across workers.
func (s *Server) runPersonalizedMisses(e *entry, seedSets [][]uint32, ro pcpm.PPRRunOptions) ([]*pcpm.PPRResult, error) {
	snap := e.snap.Load()
	results := make([]*pcpm.PPRResult, len(seedSets))
	errs := make([]error, len(seedSets))
	par.ForDynamic(len(seedSets), min(par.Workers(s.cfg.Defaults.Workers), len(seedSets)), func(i int) {
		results[i], errs[i] = pcpm.RunPersonalized(snap.Graph, seedSets[i], ro)
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
// over. Repeat queries hit the per-graph LRU; identical queries already
// being computed by another request are coalesced onto that run (like
// recomputes); remaining misses are computed together, each query
// sequential.
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

	answers := make([]PPRAnswer, len(seedSets))
	canon := make([][]uint32, len(seedSets))
	keys := make([]string, len(seedSets))
	var missIdx []int
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

	// Partition misses by cache key: the first request to want a key owns
	// its computation (registering an inflight marker other requests attach
	// to), duplicates within this batch reuse the owner's slot, and keys
	// another request is already computing become followers that wait on
	// that run instead of duplicating it — thundering-herd shedding, same
	// idea as recompute coalescing.
	missPos := make(map[string]int) // key -> index into missSets (keys we own)
	var missSets [][]uint32         // one entry per distinct owned key
	var ownedKeys []string          // aligned with missSets
	var owned []*pprInflight        // aligned with missSets
	followers := make(map[int]*pprInflight)
	e.mu.Lock()
	// An edge delta bumping structVersion between here and the insert below
	// means any answer this request computes describes a graph that no
	// longer exists; it is still served (the read raced the write) but must
	// not be cached.
	structV := e.structVersion
	for i := range seedSets {
		if ans, ok := e.ppr.get(keys[i]); ok {
			ans.Cached = true
			answers[i] = ans
			continue
		}
		if _, ok := missPos[keys[i]]; ok { // duplicate within this batch
			missIdx = append(missIdx, i)
			continue
		}
		if fl, ok := e.pprWait[keys[i]]; ok { // another request is computing it
			followers[i] = fl
			continue
		}
		fl := &pprInflight{done: make(chan struct{})}
		e.pprWait[keys[i]] = fl
		missPos[keys[i]] = len(missSets)
		missSets = append(missSets, canon[i])
		ownedKeys = append(ownedKeys, keys[i])
		owned = append(owned, fl)
		missIdx = append(missIdx, i)
	}
	e.mu.Unlock()

	// If the compute below panics (or this function unwinds any other way
	// before settling), the registered inflight markers must still be
	// released — otherwise every future identical query would block forever
	// on a done channel nobody will close.
	settled := len(missSets) == 0
	defer func() {
		if settled {
			return
		}
		e.mu.Lock()
		for j, fl := range owned {
			fl.err = fmt.Errorf("serve: personalized computation aborted")
			delete(e.pprWait, ownedKeys[j])
			close(fl.done)
		}
		e.mu.Unlock()
	}()

	if len(missSets) > 0 {
		runOpts := pcpm.PPRRunOptions{
			Damping:   damping,
			Epsilon:   epsilon,
			TopK:      k,
			TopOnly:   true, // answers serve only the top-K; skip O(n) copies
			MaxRounds: maxPPRRounds,
		}
		results, err := s.pprRunFn(e, missSets, runOpts)
		e.mu.Lock()
		settled = true
		if err != nil {
			for j, fl := range owned {
				fl.err = err
				delete(e.pprWait, ownedKeys[j])
				close(fl.done)
			}
			e.mu.Unlock()
			return nil, err
		}
		for j, fl := range owned {
			fl.ans = toPPRAnswer(missSets[j], k, results[j])
			// Only converged answers computed against the still-current
			// structure enter the cache: a run truncated by the round cap is
			// served once, honestly labeled, and a run that raced an edge
			// delta answered a graph that no longer exists — neither may be
			// pinned for repeat queries.
			if !results[j].Truncated && e.structVersion == structV {
				e.ppr.put(ownedKeys[j], fl.ans)
			}
			delete(e.pprWait, ownedKeys[j])
			close(fl.done)
		}
		for _, i := range missIdx {
			answers[i] = owned[missPos[keys[i]]].ans
			answers[i].Seeds = canon[i]
		}
		e.mu.Unlock()
		s.log.Debug("ppr computed", "graph", name,
			"queries", len(seedSets), "misses", len(missSets))
	}

	// Wait for runs owned by other requests; their answers count as cached
	// from this request's perspective (no compute was spent here).
	for i, fl := range followers {
		<-fl.done
		if fl.err != nil {
			return nil, fl.err
		}
		ans := fl.ans
		ans.Seeds = canon[i]
		ans.Cached = true
		answers[i] = ans
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

// PPRCacheLen reports how many personalized answers name's LRU holds
// (testing and observability).
func (s *Server) PPRCacheLen(name string) (int, error) {
	e, err := s.lookup(name)
	if err != nil {
		return 0, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ppr.len(), nil
}

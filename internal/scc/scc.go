// Package scc computes the strongly-connected-component decomposition of a
// directed graph plus its condensation DAG, grouped into topological levels.
// It is the scheduling substrate of the componentwise PageRank solver
// (internal/comp), following Engström & Silvestrov ("Graph partitioning and
// a componentwise PageRank algorithm"): ranks of a component depend only on
// components upstream of it in the condensation, so a solver may freeze
// upstream ranks and solve components level by level.
//
// The decomposition is the Forward-Backward (FW-BW) algorithm with
// trimming (Fleischer, Hendrickson, Pınar 2000; McLendon et al. 2005),
// chosen over Tarjan because it parallelizes: a trim pass peels vertices
// that are trivially their own component (no in- or out-edges within the
// active subset, which dissolves the DAG-like bulk of web graphs), then one
// pivot's forward- and backward-reachable sets F and B are computed over
// the already-materialized CSR/CSC pair, F∩B is emitted as one component,
// and the three remainders F\B, B\F, and the untouched rest — which cannot
// share a component — recurse as independent subproblems scheduled across a
// bounded worker pool. Subproblems own disjoint vertex sets, so all scratch
// is written without synchronization beyond the task handoff.
//
// Component identifiers are deterministic regardless of scheduling: after
// the partition settles, components are renumbered level-major (topological
// level first, smallest member vertex second), so equal graphs always get
// equal Results.
package scc

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/par"
)

// Result is one completed decomposition. Component identifiers are dense in
// [0, NumComps) and topologically ordered: every edge u→v with
// Comp[u] != Comp[v] satisfies Comp[u] < Comp[v] (level-major numbering).
type Result struct {
	// Comp maps each vertex to its component.
	Comp []int32
	// NumComps is the number of strongly connected components.
	NumComps int
	// CompOff / CompVerts group vertices by component, CSR-style:
	// CompVerts[CompOff[c]:CompOff[c+1]] lists component c's members in
	// ascending vertex order.
	CompOff   []int64
	CompVerts []graph.NodeID
	// Level is each component's topological depth in the condensation: 0
	// for components with no upstream component, otherwise one more than
	// the deepest upstream component.
	Level []int32
	// Levels groups component ids by Level, in ascending id order. All
	// cross-component edges go from a lower level to a strictly higher one,
	// so components within one level are independent.
	Levels [][]int32
	// AdjOff / Adj are the condensation DAG's out-edges (deduplicated),
	// CSR-style over component ids.
	AdjOff []int64
	Adj    []int32
	// PartitionTime is the FW-BW decomposition proper; CondenseTime covers
	// building the DAG, the levels, and the deterministic renumbering. The
	// componentwise solver reports them as its decompose / schedule phases.
	PartitionTime time.Duration
	CondenseTime  time.Duration
}

// Size returns component c's vertex count.
func (r *Result) Size(c int32) int { return int(r.CompOff[c+1] - r.CompOff[c]) }

// Members returns component c's vertices in ascending order. The slice
// aliases internal storage and must not be modified.
func (r *Result) Members(c int32) []graph.NodeID {
	return r.CompVerts[r.CompOff[c]:r.CompOff[c+1]]
}

// Succ returns component c's out-neighbors in the condensation DAG
// (deduplicated, ascending). The slice aliases internal storage.
func (r *Result) Succ(c int32) []int32 { return r.Adj[r.AdjOff[c]:r.AdjOff[c+1]] }

// LargestComponent returns the size of the largest component (0 for an
// empty graph).
func (r *Result) LargestComponent() int {
	largest := 0
	for c := 0; c < r.NumComps; c++ {
		if s := r.Size(int32(c)); s > largest {
			largest = s
		}
	}
	return largest
}

// StatsFor is graph.ComputeStats plus the component summary fields
// (Components, LargestComponent) filled from an existing decomposition of
// g — the graph package cannot fill them itself without importing this
// one. For a caller that holds a Result anyway; ComputeStats is the cheaper
// form for one that does not.
func StatsFor(g *graph.Graph, r *Result) graph.Stats {
	s := g.ComputeStats()
	s.Components = r.NumComps
	s.LargestComponent = r.LargestComponent()
	return s
}

// ComputeStats returns what StatsFor(g, Decompose(g, workers)) would without
// building a Result: the partition step plus a size tally, skipping condense
// (about half of Decompose's time). The serving layer (once per graph
// structure, at one worker) and the facade's ComputeGraphStats use it.
func ComputeStats(g *graph.Graph, workers int) graph.Stats {
	s := g.ComputeStats()
	d := partition(g, workers)
	sizes := make([]int, d.nextComp.Load())
	for _, c := range d.comp {
		sizes[c]++
		s.LargestComponent = max(s.LargestComponent, sizes[c])
	}
	s.Components = len(sizes)
	return s
}

// task is one FW-BW subproblem: a set of vertices owned exclusively by the
// worker processing it, tagged with the id recorded in decomposer.sub.
type task struct {
	id    int32
	verts []graph.NodeID
}

// decomposer carries the shared state of one partition call. All vertex-
// indexed scratch (sub, mark, indeg, outdeg, comp) is only ever written by
// the task that currently owns the vertex, and tasks own disjoint sets, so
// workers need no locks — only the task counter and component counter are
// atomic, and the semaphore channel hands tasks across goroutines.
type decomposer struct {
	g *graph.Graph

	comp []int32 // provisional component ids, -1 until assigned
	// sub is the subproblem owning each vertex (-1 once assigned to a
	// component). It is the one cross-task array: tasks test neighbor
	// membership by comparing a neighbor's sub to their own id while the
	// neighbor's owner may be retagging it, so accesses are atomic. The
	// comparison can never spuriously match — task ids are unique and
	// never reused — so a stale read only ever reads "not mine".
	sub  []atomic.Int32
	mark []uint8 // FW-BW reachability bits: 1 = forward, 2 = backward

	indeg, outdeg []int32 // trim degrees within the active subset

	nextComp atomic.Int32
	nextTask atomic.Int32

	slots chan struct{} // bounds concurrently running workers
	wg    sync.WaitGroup
}

// Decompose computes the SCC decomposition of g using up to the given
// number of workers (0 means GOMAXPROCS): the partition step, then condense.
func Decompose(g *graph.Graph, workers int) *Result {
	start := time.Now()
	if g.NumNodes() == 0 {
		return &Result{Comp: []int32{}, CompOff: []int64{0}, AdjOff: []int64{0}}
	}
	d := partition(g, workers)
	partTime := time.Since(start)

	res := d.condense(int(d.nextComp.Load()))
	res.PartitionTime = partTime
	res.CondenseTime = time.Since(start) - partTime
	return res
}

// partition assigns every vertex of g a provisional component id in d.comp,
// dense in [0, d.nextComp) but in scheduling order; Decompose and
// ComputeStats finish from there.
func partition(g *graph.Graph, workers int) *decomposer {
	n := g.NumNodes()
	d := &decomposer{
		g:      g,
		comp:   make([]int32, n),
		sub:    make([]atomic.Int32, n),
		mark:   make([]uint8, n),
		indeg:  make([]int32, n),
		outdeg: make([]int32, n),
		slots:  make(chan struct{}, par.Workers(workers)),
	}
	for i := range d.comp {
		d.comp[i] = -1
	}
	if par.Workers(workers) == 1 {
		// Sequential fast path: one worker gains nothing from FW-BW's
		// divide-and-conquer (which re-scans each subproblem's edges per
		// split), so run iterative Tarjan — a single O(V+E) pass. The
		// deterministic renumbering in condense makes both paths produce
		// identical Results.
		d.tarjan()
	} else {
		root := task{id: 0, verts: make([]graph.NodeID, n)}
		for v := range root.verts {
			root.verts[v] = graph.NodeID(v)
		}
		d.nextTask.Store(1)
		d.spawn(root)
		d.wg.Wait()
	}
	return d
}

// spawn hands t to a fresh worker goroutine if a slot is free, otherwise
// runs it on the calling goroutine (which already holds a slot — or is the
// root call, which counts as one).
func (d *decomposer) spawn(t task) {
	d.wg.Add(1)
	select {
	case d.slots <- struct{}{}:
		go func() {
			defer d.wg.Done()
			d.process(t)
			<-d.slots
		}()
	default:
		defer d.wg.Done()
		d.process(t)
	}
}

// process drains t and every subproblem it spawns that could not be handed
// off, using an explicit stack so chains of splits cannot overflow the
// goroutine stack.
func (d *decomposer) process(t task) {
	stack := []task{t}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		subs := d.step(cur)
		if len(subs) == 0 {
			continue
		}
		// Keep the largest subproblem local (it is the likely giant-SCC
		// carrier); offer the rest to idle workers.
		largest := 0
		for i, s := range subs {
			if len(s.verts) > len(subs[largest].verts) {
				largest = i
			}
		}
		for i, s := range subs {
			if i == largest {
				stack = append(stack, s)
				continue
			}
			select {
			case d.slots <- struct{}{}:
				d.wg.Add(1)
				go func(s task) {
					defer d.wg.Done()
					d.process(s)
					<-d.slots
				}(s)
			default:
				stack = append(stack, s)
			}
		}
	}
}

// step runs one trim + FW-BW split on t, assigns components for everything
// it settles, and returns the up-to-three remaining subproblems.
func (d *decomposer) step(t task) []task {
	g, sid := d.g, t.id

	// Trim: peel vertices with no in- or out-edges inside the subset
	// (ignoring self-loops, which never connect a vertex to anyone else).
	// Each peeled vertex is its own component. Trimming iterates to a fixed
	// point, which fully dissolves acyclic regions without recursion.
	for _, v := range t.verts {
		d.indeg[v], d.outdeg[v] = 0, 0
	}
	for _, v := range t.verts {
		for _, u := range g.OutNeighbors(v) {
			if u != v && d.sub[u].Load() == sid {
				d.outdeg[v]++
				d.indeg[u]++
			}
		}
	}
	var queue []graph.NodeID
	for _, v := range t.verts {
		if d.indeg[v] == 0 || d.outdeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if d.sub[v].Load() != sid {
			continue // peeled through its other zero degree already
		}
		d.sub[v].Store(-1)
		d.comp[v] = d.nextComp.Add(1) - 1
		for _, u := range g.OutNeighbors(v) {
			if u != v && d.sub[u].Load() == sid {
				if d.indeg[u]--; d.indeg[u] == 0 {
					queue = append(queue, u)
				}
			}
		}
		for _, u := range g.InNeighbors(v) {
			if u != v && d.sub[u].Load() == sid {
				if d.outdeg[u]--; d.outdeg[u] == 0 {
					queue = append(queue, u)
				}
			}
		}
	}
	rem := t.verts[:0]
	for _, v := range t.verts {
		if d.sub[v].Load() == sid {
			rem = append(rem, v)
		}
	}
	if len(rem) == 0 {
		return nil
	}

	// Pivot: the busiest remaining vertex. Hubs sit in the giant component
	// of scale-free graphs, so this keeps the expensive F∩B round count low.
	pivot := rem[0]
	best := int32(-1)
	for _, v := range rem {
		if s := d.indeg[v] + d.outdeg[v]; s > best {
			best, pivot = s, v
		}
	}

	fwd := d.reach(pivot, sid, 1, g.OutNeighbors)
	bwd := d.reach(pivot, sid, 2, g.InNeighbors)

	// Split: F∩B is the pivot's component; F\B, B\F, and the untouched rest
	// are independent subproblems (no component spans two of them).
	cid := d.nextComp.Add(1) - 1
	var fOnly, bOnly []graph.NodeID
	for _, v := range fwd {
		if d.mark[v] == 3 {
			d.comp[v] = cid
			d.sub[v].Store(-1)
		} else {
			fOnly = append(fOnly, v)
		}
	}
	for _, v := range bwd {
		if d.mark[v] == 2 {
			bOnly = append(bOnly, v)
		}
	}
	var rest []graph.NodeID
	for _, v := range rem {
		if d.mark[v] == 0 {
			rest = append(rest, v)
		}
	}
	for _, v := range fwd {
		d.mark[v] = 0
	}
	for _, v := range bwd {
		d.mark[v] = 0
	}

	var subs []task
	for _, verts := range [][]graph.NodeID{fOnly, bOnly, rest} {
		if len(verts) == 0 {
			continue
		}
		nid := d.nextTask.Add(1) - 1
		for _, v := range verts {
			d.sub[v].Store(nid)
		}
		subs = append(subs, task{id: nid, verts: verts})
	}
	return subs
}

// reach marks every vertex reachable from start within subproblem sid via
// the given neighbor accessor, OR-ing bit into mark, and returns the
// visited set.
func (d *decomposer) reach(start graph.NodeID, sid int32, bit uint8, nbrs func(graph.NodeID) []graph.NodeID) []graph.NodeID {
	visited := []graph.NodeID{start}
	d.mark[start] |= bit
	for frontier := 0; frontier < len(visited); frontier++ {
		v := visited[frontier]
		for _, u := range nbrs(v) {
			if d.sub[u].Load() == sid && d.mark[u]&bit == 0 {
				d.mark[u] |= bit
				visited = append(visited, u)
			}
		}
	}
	return visited
}

// tarjan is the sequential decomposition: iterative Tarjan with an explicit
// frame stack, writing provisional component ids into d.comp. It reuses the
// FW-BW scratch arrays (indeg as the DFS index, outdeg as lowlink, mark as
// the on-stack flag), so the sequential path allocates nothing extra.
func (d *decomposer) tarjan() {
	g, n := d.g, d.g.NumNodes()
	const undef = int32(-1)
	index, low, onStack := d.indeg, d.outdeg, d.mark
	for i := range index {
		index[i] = undef
	}
	var next int32
	var stack []graph.NodeID
	type frame struct {
		v  graph.NodeID
		ei int64
	}
	var call []frame
	for root := 0; root < n; root++ {
		if index[root] != undef {
			continue
		}
		call = append(call[:0], frame{v: graph.NodeID(root)})
		index[root], low[root] = next, next
		next++
		stack = append(stack, graph.NodeID(root))
		onStack[root] = 1
		for len(call) > 0 {
			f := &call[len(call)-1]
			adj := g.OutNeighbors(f.v)
			if f.ei < int64(len(adj)) {
				u := adj[f.ei]
				f.ei++
				if index[u] == undef {
					index[u], low[u] = next, next
					next++
					stack = append(stack, u)
					onStack[u] = 1
					call = append(call, frame{v: u})
				} else if onStack[u] == 1 && index[u] < low[f.v] {
					low[f.v] = index[u]
				}
				continue
			}
			v := f.v
			call = call[:len(call)-1]
			if len(call) > 0 {
				p := call[len(call)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				cid := d.nextComp.Add(1) - 1
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = 0
					d.comp[w] = cid
					if w == v {
						break
					}
				}
			}
		}
	}
}

// compEdge is one (possibly duplicated) condensation edge.
type compEdge struct{ from, to int32 }

// condense builds the deduplicated condensation DAG over the provisional
// component ids, computes topological levels (longest path from a source),
// renumbers components level-major with smallest-member tie-break so the
// result is schedule-independent, and assembles the Result.
func (d *decomposer) condense(numProv int) *Result {
	g, n := d.g, d.g.NumNodes()

	// Cross-component edges, deduplicated by sort.
	var edges []compEdge
	for v := 0; v < n; v++ {
		cu := d.comp[v]
		for _, u := range g.OutNeighbors(graph.NodeID(v)) {
			if cv := d.comp[u]; cv != cu {
				edges = append(edges, compEdge{cu, cv})
			}
		}
	}
	edges = dedupEdges(edges)

	// Longest-path levels via Kahn's algorithm over the provisional DAG.
	provLevel := make([]int32, numProv)
	indeg := make([]int32, numProv)
	off, adj := edgesToCSR(numProv, edges)
	for _, e := range edges {
		indeg[e.to]++
	}
	queue := make([]int32, 0, numProv)
	for c := int32(0); c < int32(numProv); c++ {
		if indeg[c] == 0 {
			queue = append(queue, c)
		}
	}
	for head := 0; head < len(queue); head++ {
		c := queue[head]
		for _, e := range adj[off[c]:off[c+1]] {
			if l := provLevel[c] + 1; l > provLevel[e] {
				provLevel[e] = l
			}
			if indeg[e]--; indeg[e] == 0 {
				queue = append(queue, e)
			}
		}
	}

	// Deterministic renumbering: (level, smallest member vertex).
	minVert := make([]int32, numProv)
	for c := range minVert {
		minVert[c] = int32(n)
	}
	for v := n - 1; v >= 0; v-- {
		minVert[d.comp[v]] = int32(v)
	}
	order := make([]int32, numProv)
	for c := range order {
		order[c] = int32(c)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if provLevel[a] != provLevel[b] {
			return provLevel[a] < provLevel[b]
		}
		return minVert[a] < minVert[b]
	})
	perm := make([]int32, numProv) // provisional -> final
	for newID, old := range order {
		perm[old] = int32(newID)
	}

	res := &Result{
		Comp:     d.comp, // renumbered in place below
		NumComps: numProv,
		Level:    make([]int32, numProv),
	}
	maxLevel := int32(0)
	for newID, old := range order {
		res.Level[newID] = provLevel[old]
		if provLevel[old] > maxLevel {
			maxLevel = provLevel[old]
		}
	}
	res.Levels = make([][]int32, maxLevel+1)
	for c := int32(0); c < int32(numProv); c++ {
		l := res.Level[c]
		res.Levels[l] = append(res.Levels[l], c)
	}
	for v := 0; v < n; v++ {
		res.Comp[v] = perm[res.Comp[v]]
	}

	// Member lists via counting sort (ascending vertex order per component).
	res.CompOff = make([]int64, numProv+1)
	for v := 0; v < n; v++ {
		res.CompOff[res.Comp[v]+1]++
	}
	for c := 0; c < numProv; c++ {
		res.CompOff[c+1] += res.CompOff[c]
	}
	res.CompVerts = make([]graph.NodeID, n)
	cur := make([]int64, numProv)
	for v := 0; v < n; v++ {
		c := res.Comp[v]
		res.CompVerts[res.CompOff[c]+cur[c]] = graph.NodeID(v)
		cur[c]++
	}

	// Condensation adjacency under the final numbering.
	for i := range edges {
		edges[i] = compEdge{perm[edges[i].from], perm[edges[i].to]}
	}
	edges = dedupEdges(edges)
	res.AdjOff, res.Adj = edgesToCSR(numProv, edges)
	return res
}

func dedupEdges(edges []compEdge) []compEdge {
	if len(edges) == 0 {
		return edges
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].from != edges[j].from {
			return edges[i].from < edges[j].from
		}
		return edges[i].to < edges[j].to
	})
	out := edges[:1]
	for _, e := range edges[1:] {
		if e != out[len(out)-1] {
			out = append(out, e)
		}
	}
	return out
}

func edgesToCSR(numComps int, edges []compEdge) ([]int64, []int32) {
	off := make([]int64, numComps+1)
	adj := make([]int32, len(edges))
	for _, e := range edges {
		off[e.from+1]++
	}
	for c := 0; c < numComps; c++ {
		off[c+1] += off[c]
	}
	cur := make([]int64, numComps)
	for _, e := range edges { // edges sorted by from, so order is preserved
		adj[off[e.from]+cur[e.from]] = e.to
		cur[e.from]++
	}
	return off, adj
}

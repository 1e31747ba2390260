package serve

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	pcpm "repro"
	"repro/internal/delta"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/scc"
	"repro/internal/wal"
)

// The scenario harness. A daemon must serve one rank vector per graph, bit
// for bit, from three places: the live leader, a copy recovered from its log
// and a follower. A scenario is a list of steps run against one cluster: a
// durable leader behind a stable URL, a follower tailing it (with a dormant
// data dir, so it can be promoted) and a twin, a memory-only server that
// performs every write the leader acknowledges and never crashes, restarts
// or fails over. After every step the leader, a server recovered from a copy
// of the leader's data dir and every follower not parked must, once caught
// up, serve the same graphs at the same version and log position, with
// identical rank bits, options, drift, shape and component counts; the twin
// must serve the same but for log positions.

// scenario is a test's steps, then what it asserts beyond the checks that
// end every step.
type scenario struct {
	steps []step
	then  func(t *testing.T, c *cluster)
}

// step is one thing done to a cluster. A write step also carries its
// operation, so failAppend can run it against a closed log. times > 1 runs
// the step, and the check after it, that many times.
type step struct {
	name  string
	times int
	do    func(t *testing.T, c *cluster)
	op    func(t *testing.T, s *Server) error
}

type cluster struct {
	opts pcpm.Options
	lead *leaderHarness
	dir  string // the leader's data dir
	fs   []*follower
	// twin is nil once a step's outcome depends on scheduling.
	twin *Server
	// recovered is the recovery report of the last check's copy.
	recovered *RecoveryReport
	at        string // the step running, for failure reports
	// promoted is the answer of the last fresh promotion, cleared when the
	// leader restarts.
	promoted PromoteReport
}

// follower is a cluster's follower; while hold is non-nil its tail loop
// waits at the gate before its next poll.
type follower struct {
	srv    *Server
	dir    string
	stop   context.CancelFunc
	mu     sync.Mutex
	hold   chan struct{}
	parked chan struct{}
}

// runScenario runs sc on a fresh cluster at the test options, in parallel
// with the other scenarios.
func runScenario(t *testing.T, sc scenario) {
	t.Parallel()
	c := newCluster(t, testOptions)
	c.run(t, sc.steps...)
	if sc.then != nil {
		sc.then(t, c)
	}
}

func newCluster(t *testing.T, opts pcpm.Options) *cluster {
	t.Helper()
	c := &cluster{opts: opts, dir: t.TempDir(), twin: New(Config{Defaults: opts})}
	s, _ := newDurableServer(t, c.config(c.dir))
	c.lead = listen(t, s)
	c.addFollower(t, t.TempDir())
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("the scenario failed in %s", c.at)
		}
	})
	return c
}

func (c *cluster) config(dir string) Config { return Config{Defaults: c.opts, DataDir: dir} }

// addFollower starts a follower of the current leader with a dormant data
// dir, and appends it to c.fs.
func (c *cluster) addFollower(t *testing.T, dir string) {
	t.Helper()
	cfg := c.config(dir)
	cfg.FollowAddr, cfg.FollowPollWait = c.lead.url, 25*time.Millisecond
	s, _ := newDurableServer(t, cfg)
	f := &follower{srv: s, dir: dir}
	s.follower.pollGate = f.gate
	f.stop = startFollower(t, s)
	t.Cleanup(f.unpark) // before the stop registered above
	c.fs = append(c.fs, f)
}

func (f *follower) gate() {
	f.mu.Lock()
	hold, parked := f.hold, f.parked
	f.mu.Unlock()
	if hold != nil {
		select {
		case parked <- struct{}{}:
		default:
		}
		<-hold
	}
}

// park returns once f's tail loop waits at its gate, so no request of it is
// in flight.
func (f *follower) park() {
	f.mu.Lock()
	f.hold, f.parked = make(chan struct{}), make(chan struct{}, 1)
	parked := f.parked
	f.mu.Unlock()
	<-parked
}

func (f *follower) unpark() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.hold != nil {
		close(f.hold)
		f.hold = nil
	}
}

func (f *follower) isParked() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.hold != nil
}

// following returns the followers that are not parked.
func (c *cluster) following() []*follower {
	var fs []*follower
	for _, f := range c.fs {
		if !f.isParked() {
			fs = append(fs, f)
		}
	}
	return fs
}

// run runs steps in order, each followed by the check.
func (c *cluster) run(t *testing.T, steps ...step) {
	t.Helper()
	for i, s := range steps {
		for n := range max(s.times, 1) {
			at := fmt.Sprintf("step %d (%s, %d of %d)", i, s.name, n+1, max(s.times, 1))
			c.at = at
			s.do(t, c)
			c.at = at // a step that runs steps of its own moved it
			c.check(t)
		}
	}
}

// recoverCopy recovers a new server from a copy of the leader's data dir
// (every append is fsynced, so the copy is a crash image).
func (c *cluster) recoverCopy(t *testing.T) (*Server, *RecoveryReport) {
	t.Helper()
	cp := t.TempDir()
	if err := os.CopyFS(cp, os.DirFS(c.dir)); err != nil {
		t.Fatal(err)
	}
	return newDurableServer(t, c.config(cp))
}

// check requires live = recovered = every following follower, and the
// twin's state, and stops the test at the first step that breaks it.
func (c *cluster) check(t *testing.T) {
	t.Helper()
	at, live := c.at, c.lead.srv
	for _, name := range live.Names() {
		assertInfoComponents(t, at+": live "+name, live, name)
	}
	rec, rep := c.recoverCopy(t)
	c.recovered = rep
	sameAs(t, at+": recovered copy", live, rec, true)
	crashStop(t, rec) // no shutdown checkpoint: the copy is thrown away
	for i, f := range c.following() {
		waitCaughtUp(t, live, f.srv)
		sameAs(t, fmt.Sprintf("%s: follower %d", at, i), live, f.srv, true)
	}
	if c.twin != nil {
		sameAs(t, at+": never-failed twin", live, c.twin, false)
	}
	if t.Failed() {
		t.FailNow()
	}
}

// sameAs requires got to hold the graphs want holds, each served as want
// serves it (sameGraph).
func sameAs(t *testing.T, who string, want, got *Server, lsn bool) {
	t.Helper()
	if w, g := strings.Join(want.Names(), ","), strings.Join(got.Names(), ","); w != g {
		t.Errorf("%s holds graphs %q, live %q", who, g, w)
		return
	}
	for _, name := range want.Names() {
		sameGraph(t, who, want, got, name, lsn)
	}
}

// sameGraph requires got to serve name as want does: the same GraphInfo but
// for timings (version, shape, method, component counts), options, drift
// and rank bits, and with lsn the same log position.
func sameGraph(t *testing.T, who string, want, got *Server, name string, lsn bool) {
	t.Helper()
	w, g := publishedSnap(t, want, name), publishedSnap(t, got, name)
	if wi, gi := stateInfo(t, want, name), stateInfo(t, got, name); wi != gi {
		t.Errorf("%s: %s serves %+v, live %+v", who, name, gi, wi)
	}
	if !ranksBitEqual(w.Ranks, g.Ranks) || w.Options != g.Options || w.RepairDrift != g.RepairDrift ||
		(lsn && w.WalLSN != g.WalLSN) {
		t.Errorf("%s: %s at version %d, LSN %d, drift %g, options %+v (ranks equal: %v); live at %d, %d, %g, %+v",
			who, name, g.Version, g.WalLSN, g.RepairDrift, g.Options, ranksBitEqual(w.Ranks, g.Ranks),
			w.Version, w.WalLSN, w.RepairDrift, w.Options)
	}
}

// assertConverged requires the follower f to serve name as lead does.
func assertConverged(t *testing.T, lead, f *Server, name string) {
	t.Helper()
	sameGraph(t, "follower", lead, f, name, true)
}

// stateInfo is name's GraphInfo less what may differ between two servers
// holding the same state: timings and a write in progress.
func stateInfo(t *testing.T, s *Server, name string) GraphInfo {
	t.Helper()
	info, err := s.Info(name)
	if err != nil {
		t.Fatal(err)
	}
	info.ComputedAt, info.ComputeMS, info.Recomputing, info.LastError = time.Time{}, 0, false, ""
	return info
}

// wantComponents is the from-scratch answer for the graph s serves now.
func wantComponents(t *testing.T, s *Server, name string) (components, largest int) {
	t.Helper()
	g := publishedSnap(t, s, name).Graph
	st := scc.StatsFor(g, scc.Decompose(g, 1))
	return st.Components, st.LargestComponent
}

// assertInfoComponents checks s.Info(name) against wantComponents.
func assertInfoComponents(t *testing.T, who string, s *Server, name string) {
	t.Helper()
	info, err := s.Info(name)
	if err != nil {
		t.Fatalf("%s: Info: %v", who, err)
	}
	if c, l := wantComponents(t, s, name); info.Components != c || info.LargestComp != l {
		t.Errorf("%s at version %d: Info reports %d components (largest %d), a from-scratch decomposition %d (largest %d)",
			who, info.Version, info.Components, info.LargestComp, c, l)
	}
}

// write is a step that performs op on the leader and on the twin.
func write(name string, op func(t *testing.T, s *Server) error) step {
	return step{name: name, op: op, do: func(t *testing.T, c *cluster) {
		t.Helper()
		for _, s := range []*Server{c.lead.srv, c.twin} {
			if s == nil {
				continue
			}
			if err := op(t, s); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}}
}

func add(name string, g *graph.Graph) step {
	return write("ingest "+name, func(t *testing.T, s *Server) error {
		_, err := s.AddGraph(name, g, Overrides{}, false)
		return err
	})
}

func replace(name string, g *graph.Graph) step {
	return write("replace "+name, func(t *testing.T, s *Server) error {
		_, err := s.AddGraph(name, g, Overrides{}, true)
		return err
	})
}

func remove(name string) step {
	return write("remove "+name, func(t *testing.T, s *Server) error { return s.Remove(name) })
}

// recompute reruns name, at damping when it is non-zero.
func recompute(name string, damping float64) step {
	var ov Overrides
	if damping != 0 {
		ov.Damping = &damping
	}
	return write(fmt.Sprintf("recompute %s (damping %g)", name, damping), func(t *testing.T, s *Server) error {
		st, err := s.Recompute(name, ov, true)
		if err == nil && damping != 0 && st.Snapshot.Options.Damping != damping {
			return fmt.Errorf("published damping %g", st.Snapshot.Options.Damping)
		}
		return err
	})
}

// edit applies d to name; a non-empty mode is the repair path it must take.
func edit(name string, d delta.EdgeDelta, mode string) step {
	return write("edge delta on "+name, func(t *testing.T, s *Server) error {
		st, err := s.ApplyEdgeDelta(name, d)
		if err == nil && mode != "" && st.Mode != mode {
			return fmt.Errorf("delta took the %s path, want %s", st.Mode, mode)
		}
		return err
	})
}

// deltas applies count batches of a mutation stream drawn from name's graph
// as the step first finds it, one batch (and check) at a time.
func deltas(name string, count int, seed int64) step {
	var stream []delta.EdgeDelta
	next := 0
	return step{name: fmt.Sprintf("%d deltas on %s", count, name), times: count, do: func(t *testing.T, c *cluster) {
		if stream == nil {
			stream = mutationStream(t, publishedSnap(t, c.lead.srv, name).Graph, count, seed)
		}
		edit(name, stream[next], "").do(t, c)
		next++
	}}
}

// bulk applies count batches of a mutation stream drawn from name's graph
// as the step finds it, all in one step: one check follows them.
func bulk(name string, count int, seed int64) step {
	return step{name: fmt.Sprintf("%d deltas on %s", count, name), do: func(t *testing.T, c *cluster) {
		for _, d := range mutationStream(t, publishedSnap(t, c.lead.srv, name).Graph, count, seed) {
			edit(name, d, "").do(t, c)
		}
	}}
}

// expect is a step that asserts what f asserts of the cluster as the check
// before it left it.
func expect(what string, f func(*testing.T, *cluster)) step { return step{name: what, do: f} }

func checkpoint() step {
	return step{name: "checkpoint", do: func(t *testing.T, c *cluster) {
		if err := c.lead.srv.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}}
}

// failAppend runs the write w on the leader with its log closed, requires
// it to fail, and reopens the log.
func failAppend(w step) step {
	return step{name: "failed append: " + w.name, do: func(t *testing.T, c *cluster) {
		s := c.lead.srv
		if err := s.wal.Load().Close(); err != nil {
			t.Fatal(err)
		}
		if err := w.op(t, s); err == nil {
			t.Fatalf("%s succeeded with a closed log", w.name)
		}
		st, err := wal.Open(c.dir, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		s.wal.Store(st)
	}}
}

// downHandler answers every request the way a dead leader's address does to
// a client: a transport-class failure.
var downHandler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	http.Error(w, "leader down", http.StatusBadGateway)
})

// restart stops the leader (with its shutdown checkpoint when graceful) and
// recovers a new one from its dir behind the same URL. Followers ride the
// outage out with reconnects and keep their bootstrap: LSNs survive it.
func restart(graceful bool) step {
	name := "crash-restart"
	if graceful {
		name = "graceful restart"
	}
	return step{name: name, do: func(t *testing.T, c *cluster) {
		fs := c.following()
		reconnects, bootstraps := make([]uint64, len(fs)), make([]uint64, len(fs))
		for i, f := range fs {
			st := f.srv.ReplStatus()
			reconnects[i], bootstraps[i] = st.Reconnects, st.Bootstraps
		}
		c.lead.swap(downHandler)
		if graceful {
			if err := c.lead.srv.CloseDurable(); err != nil {
				t.Fatal(err)
			}
		} else {
			crashStop(t, c.lead.srv)
		}
		for i, f := range fs {
			waitReplStatus(t, f.srv, "reconnected", func(st ReplStatus) bool { return st.Reconnects > reconnects[i] })
		}
		// The new server's durable-close cleanup is registered after the
		// listener's and would run first; re-register the listener's close so
		// it drains in-flight handlers before the log goes away.
		reborn, _ := newDurableServer(t, c.config(c.dir))
		t.Cleanup(c.lead.hs.Close)
		c.lead.srv, c.promoted = reborn, PromoteReport{} // a new process knows no cut
		c.lead.swap(reborn.Handler())
		for i, f := range fs {
			waitCaughtUp(t, reborn, f.srv)
			if got := f.srv.ReplStatus().Bootstraps; got != bootstraps[i] {
				t.Errorf("leader restart took follower %d from %d to %d bootstraps", i, bootstraps[i], got)
			}
		}
	}}
}

// promote kills the leader and promotes the first follower, which must not
// be parked, over HTTP, then writes one edge delta to the first of its
// graphs over HTTP. The other followers re-aim at it, and the dead leader's
// host rejoins as its follower with the old, now stale data dir.
func promote() step {
	return step{name: "promote", do: func(t *testing.T, c *cluster) {
		c.lead.swap(downHandler)
		crashStop(t, c.lead.srv)
		p := c.fs[0]
		lead := listen(t, p.srv)
		var rep PromoteReport
		if code := doJSON(t, "POST", lead.url+"/v1/repl/promote", nil, &rep); code != http.StatusOK ||
			!rep.Promoted || rep.Role != "leader" || rep.NextLSN != rep.CutLSN+2 {
			t.Fatalf("promote: status %d, report %+v; want 200 and a fresh leader whose checkpoint marker follows the cut", code, rep)
		}
		if again, err := p.srv.Promote(); err != nil || again.Promoted || again.Role != "leader" || again.CutLSN != rep.CutLSN {
			t.Fatalf("second promote: %+v, %v; want an idempotent already-leader answer with cut %d", again, err, rep.CutLSN)
		}
		if st := p.srv.ReplStatus(); st.Role != "leader" || !st.Promoted {
			t.Fatalf("promoted server reports %+v", st)
		}
		if err := p.srv.Follow(context.Background()); err == nil {
			t.Fatal("Follow ran on a promoted server")
		}
		// The mux that answered writes with 503 takes one now.
		if names := p.srv.Names(); len(names) > 0 {
			d := mutationStream(t, publishedSnap(t, p.srv, names[0]).Graph, 1, 1)[0]
			pairs := func(es []graph.Edge) (ps [][2]uint32) {
				for _, e := range es {
					ps = append(ps, [2]uint32{e.Src, e.Dst})
				}
				return ps
			}
			url := fmt.Sprintf("%s/v1/graphs/%s/edges", lead.url, names[0])
			if code := doJSON(t, "POST", url, edgesBody(pairs(d.Insert), pairs(d.Delete)), nil); code != http.StatusOK {
				t.Fatalf("edge delta on the promoted leader: status %d, want 200", code)
			}
			if c.twin != nil {
				if _, err := c.twin.ApplyEdgeDelta(names[0], d); err != nil {
					t.Fatal(err)
				}
			}
		}
		old := c.dir
		c.lead, c.dir, c.fs, c.promoted = lead, p.dir, c.fs[1:], rep
		for _, f := range c.fs {
			body := fmt.Sprintf(`{"leader":%q}`, lead.url)
			if code := doJSON(t, "POST", newHTTPServer(t, f.srv)+"/v1/repl/reaim", []byte(body), nil); code != http.StatusOK {
				t.Fatalf("re-aim: status %d", code)
			}
		}
		c.addFollower(t, old)
	}}
}

// retryPromotion asks the leader a promote step made to promote again, as
// a client does after a dropped response: the answer must be the fresh
// promotion's cut, whatever the leader has written since, or 0 once the
// leader has restarted.
func retryPromotion() step {
	return step{name: "retried promotion", do: func(t *testing.T, c *cluster) {
		var rep PromoteReport
		if code := doJSON(t, "POST", c.lead.url+"/v1/repl/promote", nil, &rep); code != http.StatusOK ||
			rep.Promoted || rep.Role != "leader" || rep.CutLSN != c.promoted.CutLSN {
			t.Fatalf("retried promote: status %d, report %+v; want 200, an already-leader answer and cut %d",
				code, rep, c.promoted.CutLSN)
		}
	}}
}

// refusePromotion asks the last follower, whose data dir holds history, to
// promote: it must be refused and leave the follower following.
func refusePromotion() step {
	return step{name: "refused promotion", do: func(t *testing.T, c *cluster) {
		f := c.fs[len(c.fs)-1]
		var e struct{ Error string }
		if code := doJSON(t, "POST", newHTTPServer(t, f.srv)+"/v1/repl/promote", nil, &e); code != http.StatusConflict {
			t.Fatalf("promotion into a data dir with history: status %d (%s), want 409", code, e.Error)
		}
	}}
}

// failPromotion asks the first follower to promote while a directory sits
// where the checkpoint writes name's snapshot: the promotion must fail and
// leave the follower following, with its data dir as empty as it found it.
// The blocker goes at the end of the step.
func failPromotion(name string) step {
	return step{name: "failed promotion", do: func(t *testing.T, c *cluster) {
		f := c.fs[0]
		blocker := filepath.Join(f.dir, hex.EncodeToString([]byte(name))+".snap.tmp")
		if err := os.Mkdir(blocker, 0o755); err != nil {
			t.Fatal(err)
		}
		if rep, err := f.srv.Promote(); err == nil {
			t.Fatalf("promotion with %s's snapshot blocked: %+v, want an error", name, rep)
		}
		if st := f.srv.ReplStatus(); st.Role != "follower" {
			t.Fatalf("failed promotion left a %s", st.Role)
		}
		if err := os.Remove(blocker); err != nil {
			t.Fatal(err)
		}
		if left, err := os.ReadDir(f.dir); err != nil || len(left) > 0 {
			t.Fatalf("failed promotion left %v in the data dir (%v)", left, err)
		}
	}}
}

// relaunchFollower stops the first follower and starts a fresh one, which
// bootstraps from the leader. With killAfter > 0 an incarnation in between
// dies after that many tailed records, mid catch-up, as SIGKILL takes it.
func relaunchFollower(killAfter int32) step {
	return step{name: "relaunch the follower", do: func(t *testing.T, c *cluster) {
		old := c.fs[0]
		old.stop()
		c.fs = c.fs[1:]
		if killAfter > 0 {
			cfg := c.config(old.dir)
			cfg.FollowAddr = c.lead.url
			doomed := New(cfg)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			var tailed atomic.Int32
			doomed.follower.applyHook = func(*wal.Record) error {
				if tailed.Add(1) > killAfter {
					cancel()
					return errors.New("killed")
				}
				return nil
			}
			doomed.Follow(ctx) //nolint:errcheck // death is the point
			if got := doomed.ReplStatus().AppliedLSN; got >= c.lead.srv.wal.Load().NextLSN()-1 {
				t.Fatalf("kill landed after catch-up finished (applied %d)", got)
			}
		}
		c.addFollower(t, old.dir)
	}}
}

// parked runs steps while follower i waits at its gate, then lets it go:
// the checks inside skip it, the one closing this step includes it.
func parked(i int, steps ...step) step {
	return step{name: fmt.Sprintf("follower %d parked", i), do: func(t *testing.T, c *cluster) {
		f := c.fs[i]
		f.park()
		c.run(t, steps...)
		f.unpark()
	}}
}

// rewritten runs steps while the leader's tail responses pass through
// bufferingRewriter, which applies rewrite to the first of them.
func rewritten(what string, rewrite func(body []byte) []byte, steps ...step) step {
	return step{name: what, do: func(t *testing.T, c *cluster) {
		var fired atomic.Bool
		inner := c.lead.srv.Handler()
		c.lead.swap(bufferingRewriter(inner, func(body []byte) []byte {
			if fired.CompareAndSwap(false, true) {
				return rewrite(body)
			}
			return body
		}))
		c.run(t, steps...)
		c.lead.swap(inner)
	}}
}

// wantStatus is a scenario's closing check of its first follower's
// counters.
func wantStatus(what string, ok func(ReplStatus) bool) func(*testing.T, *cluster) {
	return func(t *testing.T, c *cluster) {
		if st := c.fs[0].srv.ReplStatus(); !ok(st) {
			t.Errorf("follower status %+v, want %s", st, what)
		}
	}
}

// bootstraps is wantStatus for a follower's bootstrap count.
func bootstraps(n uint64) func(*testing.T, *cluster) {
	return wantStatus(fmt.Sprintf("%d bootstraps", n), func(st ReplStatus) bool { return st.Bootstraps == n })
}

// wantRecovered is a scenario's closing check of the last check's recovery
// report; a negative skipped is not checked.
func wantRecovered(snapshots, replayed, skipped int) func(*testing.T, *cluster) {
	return func(t *testing.T, c *cluster) {
		if r := c.recovered; r.Snapshots != snapshots || r.Replayed != replayed || (skipped >= 0 && r.Skipped != skipped) {
			t.Errorf("recovery loaded %d snapshots, replayed %d, skipped %d; want %d, %d, %d",
				r.Snapshots, r.Replayed, r.Skipped, snapshots, replayed, skipped)
		}
	}
}

// smallGraph is a second graph, smaller than testGraph, for replaces and
// second names.
func smallGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.ErdosRenyi(200, 1600, 3, graph.BuildOptions{Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// family is a generator shape the goldens and the component rows run on,
// with the seed of its Workers 1 row.
type family struct {
	name  string
	seed  uint64
	build func(dense bool, seed uint64) (*graph.Graph, error)
}

// families are the five generator shapes, declared once. The goldens run
// them dense; the component rows run them sparse, so that edge deltas merge
// and split strongly connected components.
func families() []family {
	opts := graph.BuildOptions{Dedup: true, DropSelfLoops: true}
	return []family{
		{"erdos-renyi", 11, func(dense bool, seed uint64) (*graph.Graph, error) {
			if dense {
				return gen.ErdosRenyi(400, 3200, seed, opts)
			}
			return gen.ErdosRenyi(300, 900, seed, opts)
		}},
		{"rmat", 13, func(dense bool, seed uint64) (*graph.Graph, error) {
			if dense {
				return gen.RMAT(gen.Graph500RMAT(8, 8, seed), opts)
			}
			return gen.RMAT(gen.Graph500RMAT(8, 4, seed), opts)
		}},
		{"pref-attach", 17, func(dense bool, seed uint64) (*graph.Graph, error) {
			if dense {
				return gen.PreferentialAttachment(400, 6, seed, opts)
			}
			return gen.PreferentialAttachmentMix(300, 4, 0.3, seed, opts)
		}},
		{"copying", 19, func(dense bool, seed uint64) (*graph.Graph, error) {
			cfg := gen.CopyingConfig{N: 300, OutDegree: 4, CopyProb: 0.5, Locality: 0.5, Seed: seed}
			if dense {
				cfg.N, cfg.OutDegree = 400, 6
			}
			return gen.Copying(cfg, opts)
		}},
		{"dag-communities", 23, func(dense bool, seed uint64) (*graph.Graph, error) {
			cfg := gen.DAGCommunitiesConfig{Clusters: 8, ClusterSize: 30, IntraDegree: 2, BridgeDegree: 3, Seed: seed}
			if dense {
				cfg.ClusterSize, cfg.IntraDegree, cfg.BridgeDegree = 50, 4, 6
			}
			return gen.DAGCommunities(cfg, opts)
		}},
	}
}

// onFamilies runs body on every family, a subtest per family with one per
// worker count inside it, all in parallel. body gets the test options at
// that worker count and the family's graph, built at the family's seed for
// the first worker count and 90 past it for the second, so that five
// families at two worker counts cover ten graphs.
func onFamilies(t *testing.T, dense bool, workers []int, body func(t *testing.T, opts pcpm.Options, g *graph.Graph)) {
	for _, fam := range families() {
		t.Run(fam.name, func(t *testing.T) {
			t.Parallel()
			for i, w := range workers {
				t.Run(fmt.Sprintf("w%d", w), func(t *testing.T) {
					t.Parallel()
					g, err := fam.build(dense, fam.seed+90*uint64(i))
					if err != nil {
						t.Fatalf("generating: %v", err)
					}
					opts := testOptions
					opts.Workers = w
					body(t, opts, g)
				})
			}
		})
	}
}

// caughtUp checks that the first follower bootstrapped once and has no lag.
var caughtUp = wantStatus("1 bootstrap and lag 0", func(st ReplStatus) bool { return st.Bootstraps == 1 && st.Lag == 0 })

// golden is the one golden run, after its ingest. A follower that
// bootstrapped before the ingest tails 25 edge deltas, is parked through 25
// more and a recompute, and catches up on that backlog. The leader crashes,
// and recovery replays the ingest, all 50 deltas and the recompute: a
// second replay of the log the check before it replayed from a copy. A
// checkpoint, 10 deltas, a recompute and a graceful restart follow. Then
// the leader dies, its follower is promoted and takes an HTTP write, 10
// deltas, a graceful restart and 10 more, while the dead leader's host
// follows it. Every check holds the cluster to the twin, bit for bit.
var golden = scenario{[]step{
	bulk("g", 25, 97),
	parked(0, bulk("g", 25, 101), recompute("g", 0.6)),
	restart(false),
	expect("the crash recovery replayed the whole log", wantRecovered(0, 52, 0)),
	expect("the follower rode out the crash", caughtUp),
	checkpoint(),
	bulk("g", 10, 103),
	recompute("g", 0),
	restart(true),
	promote(),
	bulk("g", 10, 151),
	restart(true),
	bulk("g", 10, 157),
}, func(t *testing.T, c *cluster) {
	caughtUp(t, c)
	wantRecovered(1, 10, -1)(t, c)
}}

// goldenRuns holds the outcome of each golden run this process made, by
// family and worker count, and which goldens have reported it.
var goldenRuns = struct {
	sync.Mutex
	m map[string]*goldenRun
}{m: map[string]*goldenRun{}}

type goldenRun struct {
	by       string
	failed   bool
	reported map[string]bool
}

// runGolden runs the golden on every dense family at Workers 1 and 2. The
// recovery, follower-convergence and promotion goldens are names for this
// one table: the first of them to reach a row makes its run, and the other
// two report that run's outcome. A name run alone, or again under -count,
// makes its own runs.
func runGolden(t *testing.T) {
	name := t.Name()
	onFamilies(t, true, []int{1, 2}, func(t *testing.T, opts pcpm.Options, g *graph.Graph) {
		row := strings.TrimPrefix(t.Name(), name)
		goldenRuns.Lock()
		run := goldenRuns.m[row]
		if run != nil && !run.reported[name] {
			run.reported[name] = true
			goldenRuns.Unlock()
			if run.failed {
				t.Fatalf("the run %s made of this row failed", run.by)
			}
			return
		}
		goldenRuns.Unlock()
		defer func() {
			goldenRuns.Lock()
			goldenRuns.m[row] = &goldenRun{by: name, failed: t.Failed(), reported: map[string]bool{name: true}}
			goldenRuns.Unlock()
		}()
		c := newCluster(t, opts)
		c.run(t, append([]step{add("g", g)}, golden.steps...)...)
		golden.then(t, c)
	})
}

// The three goldens are not parallel tests, so one never waits on a run
// another is still making.

// TestGoldenRecoveryAllFamilies is the golden run as the restart golden: a
// crash with its replay of the whole log, a checkpoint and graceful
// restarts, every recovered copy bit-equal to the leader and its twin.
func TestGoldenRecoveryAllFamilies(t *testing.T) { runGolden(t) }

// TestFollowerConvergenceAllFamilies is the golden run as the convergence
// golden: a follower that bootstrapped empty tails every write, catches up
// on a parked backlog and rides out leader restarts with one bootstrap.
func TestFollowerConvergenceAllFamilies(t *testing.T) { runGolden(t) }

// TestPromotionGoldenAllFamilies is the golden run as the failover golden:
// the leader dies mid-stream and its promoted follower takes the rest of
// the writes, bit-equal to the never-failed twin, drift included.
func TestPromotionGoldenAllFamilies(t *testing.T) { runGolden(t) }

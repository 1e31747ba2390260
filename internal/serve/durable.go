package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"

	pcpm "repro"
	"repro/internal/delta"
	"repro/internal/graph"
	"repro/internal/wal"
)

// Durability: when Config.DataDir is set, every successful mutation —
// ingest, edge delta, removal, recompute — is appended to the write-ahead
// log in internal/wal before its snapshot is published, and Recover
// warm-starts the registry by loading the newest persisted snapshots and
// applying only the log tail on top of them.
//
// Records carry the state they published — a snapshot blob, or a rank
// vector (sparse residual or full) beside the edge lists that rebuild the
// structure — so applying one never runs an engine or a repair: applyRecord
// installs what the writer computed, under the record's own LSN, for both
// record sources (wal.Store.Replay in Recover, repl.Client.Tail in Follow).
// The result is the writer's exact trajectory: versions continue and
// repair drift is the logged drift. A record without shipped state fails
// closed.
//
// Per record: covered (an add or remove at or below the LSN of the graph's
// current snapshot → skip), orphaned (a rank-shipping record whose parent is
// not the current snapshot — superseded by a racing replace, or already
// covered, since a parent precedes its record → skip, matching the live
// daemon where that publish was invisible), or applied. The registry is the
// only record of what is covered. Torn final records were already truncated
// by wal.Open; any other damage failed the open before replay started.

// addMeta is the RecAddGraph payload; the blob carries the published
// snapshot (graph + ranks + snapMeta, options included), which appliers
// install as-is. Records an older binary wrote also carry "replace" and
// "options" keys, which nothing reads.
type addMeta struct {
	Name string `json:"name"`
}

// deltaMeta is the RecEdgeDelta payload.
type deltaMeta struct {
	Name string `json:"name"`
	// Parent is the WalLSN of the snapshot the delta was applied to. A
	// mismatch during replay means the delta published into an entry a
	// concurrent replace had already orphaned — its effect was never
	// visible, so replay skips it too.
	Parent uint64       `json:"parent"`
	Insert []graph.Edge `json:"insert,omitempty"`
	Delete []graph.Edge `json:"delete,omitempty"`
	// FellBack records the live daemon's repair-vs-recompute decision. A
	// fallback ran the engine, so the resulting snapshot rides in the blob
	// and is installed as-is. Reason explains the fallback (recovery counts
	// drift-budget fallbacks from it).
	FellBack bool   `json:"fell_back,omitempty"`
	Reason   string `json:"reason,omitempty"`
	// RanksEnc, set on every incremental repair, says how the blob encodes
	// the repaired rank vector: "residual" (sparse signed delta against the
	// parent vector, see internal/delta's residual codec) or "full" (float32
	// LE, the size-guard fallback). Appliers rebuild the structure from the
	// edge lists and install the shipped ranks with the leader's drift
	// accounting (Rounds/Residual/Drift).
	RanksEnc string  `json:"ranks_enc,omitempty"`
	Rounds   int     `json:"rounds,omitempty"`
	Residual float64 `json:"residual,omitempty"`
	Drift    float64 `json:"drift,omitempty"`
}

// Rank-vector encodings named by deltaMeta.RanksEnc.
const (
	ranksEncResidual = "residual"
	ranksEncFull     = "full"
)

// recomputeMeta is the RecRecompute payload: the resolved options and
// result shape of an engine re-run. The recomputed rank vector rides in
// the record's blob (float32 little-endian, or a sparse residual under
// RecRankResidual), and appliers republish it.
type recomputeMeta struct {
	Name       string       `json:"name"`
	Parent     uint64       `json:"parent"`
	Options    pcpm.Options `json:"options"`
	Method     pcpm.Method  `json:"method,omitempty"`
	Iterations int          `json:"iterations,omitempty"`
	Delta      float64      `json:"delta,omitempty"`
}

// removeMeta is the RecRemoveGraph payload.
type removeMeta struct {
	Name string `json:"name"`
}

// snapMeta is the caller-metadata document stored inside each persisted
// graph.Snapshot: everything a serve.Snapshot carries that the graph and
// rank vector alone do not.
type snapMeta struct {
	Name       string       `json:"name"`
	LSN        uint64       `json:"lsn"`
	Version    uint64       `json:"version"`
	Options    pcpm.Options `json:"options"`
	Method     pcpm.Method  `json:"method"`
	Iterations int          `json:"iterations"`
	Delta      float64      `json:"delta"`
	Drift      float64      `json:"drift"`
	ComputedAt time.Time    `json:"computed_at"`
}

func snapMetaOf(name string, snap *Snapshot) snapMeta {
	return snapMeta{
		Name:       name,
		LSN:        snap.WalLSN,
		Version:    snap.Version,
		Options:    snap.Options,
		Method:     snap.Method,
		Iterations: snap.Iterations,
		Delta:      snap.Delta,
		Drift:      snap.RepairDrift,
		ComputedAt: snap.ComputedAt,
	}
}

// snapshotBlob serializes snap (graph + ranks + snapMeta) with the
// internal/graph snapshot framing: the payload of RecAddGraph records,
// fallback RecEdgeDelta records, and bootstrap frames.
func snapshotBlob(name string, snap *Snapshot) ([]byte, error) {
	mb, err := json.Marshal(snapMetaOf(name, snap))
	if err != nil {
		return nil, fmt.Errorf("serve: snapshot meta: %w", err)
	}
	var buf bytes.Buffer
	if err := graph.WriteSnapshot(&buf, &graph.Snapshot{Graph: snap.Graph, Ranks: snap.Ranks, Meta: mb}); err != nil {
		return nil, fmt.Errorf("serve: snapshot blob: %w", err)
	}
	return buf.Bytes(), nil
}

// decodeSnapMeta parses a persisted snapshot's metadata document and checks
// that it describes the graph it was filed under: a snapshot of one graph
// must never be installed under another's name.
func decodeSnapMeta(meta []byte, name string) (snapMeta, error) {
	var m snapMeta
	if err := json.Unmarshal(meta, &m); err != nil {
		return snapMeta{}, fmt.Errorf("snapshot metadata: %w", err)
	}
	if m.Name != name {
		return snapMeta{}, fmt.Errorf("snapshot filed under %q names graph %q", name, m.Name)
	}
	return m, nil
}

// decodeSnapshotBlob parses a snapshotBlob payload expected to hold name.
func decodeSnapshotBlob(blob []byte, name string) (*graph.Snapshot, snapMeta, error) {
	gs, err := graph.ReadSnapshot(bytes.NewReader(blob))
	if err != nil {
		return nil, snapMeta{}, err
	}
	m, err := decodeSnapMeta(gs.Meta, name)
	return gs, m, err
}

// encodeRanks serializes a rank vector as float32 little-endian: the blob
// of RecRecompute records.
func encodeRanks(ranks []float32) []byte {
	out := make([]byte, 0, 4*len(ranks))
	for _, r := range ranks {
		out = binary.LittleEndian.AppendUint32(out, math.Float32bits(r))
	}
	return out
}

// shipRanks picks the wire encoding for a published rank vector: the
// sparse signed residual against the parent vector when it is strictly
// smaller than the full float32 form (and exactly reconstructible), the
// full vector otherwise. The sizes follow from the changed count, so only
// the encoding shipped is built.
func shipRanks(prev, next []float32) (enc string, blob []byte) {
	if len(prev) == len(next) && delta.ResidualSize(delta.Changed(prev, next)) < 4*len(next) {
		if resid, ok := delta.EncodeResidual(prev, next); ok {
			return ranksEncResidual, resid
		}
	}
	return ranksEncFull, encodeRanks(next)
}

func decodeRanks(blob []byte) ([]float32, error) {
	if len(blob)%4 != 0 {
		return nil, fmt.Errorf("rank blob of %d bytes is not a float32 array", len(blob))
	}
	out := make([]float32, len(blob)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(blob[4*i:]))
	}
	return out, nil
}

// walAppend serializes meta and appends one record; a no-op returning LSN 0
// when durability is off.
func (s *Server) walAppend(typ wal.RecordType, meta any, blob []byte) (uint64, error) {
	st := s.wal.Load()
	if st == nil {
		return 0, nil
	}
	mb, err := json.Marshal(meta)
	if err != nil {
		return 0, fmt.Errorf("serve: wal meta: %w", err)
	}
	lsn, err := st.Append(typ, mb, blob)
	if err != nil {
		return 0, fmt.Errorf("serve: %w", err)
	}
	return lsn, nil
}

// walAppendRecompute logs one engine re-run, shipping the resulting rank
// vector as a RecRankResidual (sparse signed delta against the parent
// snapshot's vector) when that encoding is smaller, or a full-vector
// RecRecompute otherwise. Both record types decode to byte-identical
// follower state.
func (s *Server) walAppendRecompute(name string, old, snap *Snapshot) (uint64, error) {
	if s.wal.Load() == nil {
		return 0, nil
	}
	m := recomputeMeta{Name: name, Parent: old.WalLSN, Options: snap.Options,
		Method: snap.Method, Iterations: snap.Iterations, Delta: snap.Delta}
	typ := wal.RecRecompute
	enc, blob := shipRanks(old.Ranks, snap.Ranks)
	if enc == ranksEncResidual {
		typ = wal.RecRankResidual
	}
	return s.walAppend(typ, m, blob)
}

// walAppendAdd logs one ingest; the blob is the just-computed snapshot.
// The snapshot's final Version (a replace continues the old sequence) is
// only known at publish time, after this append; installers re-derive it,
// so the version inside the blob is advisory.
func (s *Server) walAppendAdd(name string, snap *Snapshot) (uint64, error) {
	if s.wal.Load() == nil {
		return 0, nil
	}
	blob, err := snapshotBlob(name, snap)
	if err != nil {
		return 0, err
	}
	return s.walAppend(wal.RecAddGraph, addMeta{Name: name}, blob)
}

// stageSnapshot turns a decoded snapshot blob into everything short of its
// publication: the full in-memory Snapshot (an empty structure memo, top-k
// cache) at log position lsn, and a fresh unregistered entry to publish it
// in. The LSN comes from the caller (the record or snapshot position being
// installed), not from m — the blob was written before its append was
// assigned one. The snapshot keeps m's version unless that would go
// backwards: over an entry already registered under name, re-installing the
// log position it serves (a follower re-bootstrapping into what it has)
// keeps that entry's version, anything else is a newer publish and takes the
// next one. The caller is the registry's only writer, so that entry is still
// the registered one when the staged entry replaces it.
func (s *Server) stageSnapshot(name string, gs *graph.Snapshot, m snapMeta, lsn uint64) (*entry, *Snapshot) {
	e := &entry{name: name}
	snap := e.seal(&Snapshot{
		Graph:       gs.Graph,
		Ranks:       gs.Ranks,
		Options:     m.Options,
		Method:      m.Method,
		Iterations:  m.Iterations,
		Delta:       m.Delta,
		Version:     m.Version,
		RepairDrift: m.Drift,
		WalLSN:      lsn,
		ComputedAt:  m.ComputedAt,
	})
	if old, err := s.lookup(name); err == nil {
		if cur := old.snap.Load(); snap.Version <= cur.Version {
			snap.Version = cur.Version
			if cur.WalLSN != lsn {
				snap.Version++
			}
		}
	}
	return e, snap
}

// installSnapshot publishes a deserialized snapshot under name: recovery
// phase 1, applied ingests and applied fallback deltas land here. Like a
// live replace it swaps in a fresh entry, so nothing shaped on the old
// structure survives; readers may be live, so the entry gets its snapshot
// before it is visible in the map.
func (s *Server) installSnapshot(name string, gs *graph.Snapshot, m snapMeta, lsn uint64) {
	e, snap := s.stageSnapshot(name, gs, m, lsn)
	//lint:ignore walorder apply path: the snapshot came out of the log or the snapshot store, so its state is already durable at lsn
	e.snap.Store(snap)
	s.mu.Lock()
	s.graphs[name] = e
	s.mu.Unlock()
}

// RecoveryReport summarizes one Recover call.
type RecoveryReport struct {
	// Graphs registered after recovery completed.
	Graphs int `json:"graphs"`
	// Snapshots loaded from the store.
	Snapshots int `json:"snapshots"`
	// Replayed and Skipped count log-tail records applied vs. passed over
	// (an add or remove the graph's snapshot covers, a rank-shipping record
	// whose parent is not the graph's current snapshot, or a checkpoint
	// marker).
	Replayed int `json:"replayed"`
	Skipped  int `json:"skipped"`
	// DriftRecomputes counts applied deltas whose record logs that the
	// drift budget forced a full engine run in place of the repair.
	DriftRecomputes int           `json:"drift_recomputes"`
	Duration        time.Duration `json:"-"`
	DurationMS      float64       `json:"duration_ms"`
}

// Recover opens the durable store under Config.DataDir, loads the newest
// valid snapshot of every graph, applies the log tail on top of them
// (applyRecord), and leaves the server appending to the log. It must be
// called before the server accepts traffic and is a no-op when DataDir is
// empty. Corruption anywhere except a torn final record fails closed with
// the offending file and offset.
func (s *Server) Recover() (*RecoveryReport, error) {
	rep := &RecoveryReport{}
	if s.cfg.DataDir == "" {
		return rep, nil
	}
	if s.wal.Load() != nil {
		return nil, errors.New("serve: Recover called twice")
	}
	if s.cfg.FollowAddr != "" {
		// A follower's DataDir is the promotion target, not a live log;
		// opening it here would fork durability from the leader's.
		return rep, nil
	}
	start := time.Now()
	st, err := wal.Open(s.cfg.DataDir, wal.Options{SyncEvery: s.cfg.FsyncEvery})
	if err != nil {
		return nil, err
	}

	// Phase 1: seed the registry from the persisted snapshots.
	var maxLSN uint64
	for _, gs := range st.Snapshots() {
		m, err := decodeSnapMeta(gs.Snap.Meta, gs.Name)
		if err != nil {
			return nil, errors.Join(fmt.Errorf("serve: snapshot file for %q: %w", gs.Name, err), st.Close())
		}
		s.installSnapshot(gs.Name, gs.Snap, m, m.LSN)
		maxLSN = max(maxLSN, m.LSN)
		rep.Snapshots++
	}
	if err := st.Advance(maxLSN); err != nil {
		return nil, errors.Join(err, st.Close())
	}

	// Phase 2: apply the log tail.
	err = st.Replay(func(rec *wal.Record) error {
		applied, aerr := s.applyRecord(rec)
		switch {
		case aerr != nil:
			return aerr
		case !applied:
			rep.Skipped++
		default:
			rep.Replayed++
			// A drift-forced fallback says so in its logged reason, the
			// only free-text field of a delta's meta.
			if rec.Type == wal.RecEdgeDelta && bytes.Contains(rec.Meta, []byte("repair drift")) {
				rep.DriftRecomputes++
			}
		}
		return nil
	})
	if err != nil {
		return nil, errors.Join(err, st.Close())
	}
	s.wal.Store(st)
	rep.Graphs = s.NumGraphs()
	rep.Duration = time.Since(start)
	rep.DurationMS = float64(rep.Duration) / float64(time.Millisecond)
	s.log.Info("recovery complete", "graphs", rep.Graphs, "snapshots", rep.Snapshots,
		"replayed", rep.Replayed, "skipped", rep.Skipped,
		"drift_recomputes", rep.DriftRecomputes, "duration", rep.Duration)
	return rep, nil
}

// applyRecord applies one log record — replayed from the local WAL by
// Recover or tailed from the leader by Follow — to the registry, and reports
// whether it changed anything (false: a checkpoint marker, an add or remove
// at or below the LSN the graph's current snapshot was published at, or a
// rank-shipping record whose parent is not that snapshot). A covered rank
// record fails the parent check too: its parent precedes it. It only ever
// installs state the record ships; a record without any fails closed. The
// calling goroutine is the registry's only writer, though readers may be
// live.
func (s *Server) applyRecord(rec *wal.Record) (applied bool, err error) {
	fail := func(err error) (bool, error) {
		return false, fmt.Errorf("serve: applying record %d (type %d): %w", rec.LSN, rec.Type, err)
	}
	switch rec.Type {
	case wal.RecCheckpoint:
		return false, nil

	case wal.RecAddGraph:
		var m addMeta
		if err := json.Unmarshal(rec.Meta, &m); err != nil {
			return fail(err)
		}
		if e, err := s.lookup(m.Name); err == nil && rec.LSN <= e.snap.Load().WalLSN {
			return false, nil // covered by the graph's snapshot
		}
		// Replace unconditionally: whatever state the name is in, the live
		// daemon acknowledged this ingest, so it must win here too.
		gs, sm, err := decodeSnapshotBlob(rec.Blob, m.Name)
		if err != nil {
			return fail(err)
		}
		s.installSnapshot(m.Name, gs, sm, rec.LSN)

	case wal.RecEdgeDelta:
		var m deltaMeta
		if err := json.Unmarshal(rec.Meta, &m); err != nil {
			return fail(err)
		}
		e, err := s.lookup(m.Name)
		if err != nil || e.snap.Load().WalLSN != m.Parent {
			return false, nil // published into an entry a replace/remove orphaned
		}
		switch {
		case m.FellBack && len(rec.Blob) > 0:
			// The repair fell back to an engine run: the blob is its result.
			gs, sm, err := decodeSnapshotBlob(rec.Blob, m.Name)
			if err != nil {
				return fail(err)
			}
			s.installSnapshot(m.Name, gs, sm, rec.LSN)
		case m.RanksEnc != "":
			// The structural change is rebuilt locally from the edge lists
			// (deterministic, cheap); the repaired ranks and their drift
			// accounting come from the record, so the repair ran once, on the
			// leader, and both sides publish bit-identical state.
			old := e.snap.Load()
			ng, _, err := delta.Rebuild(old.Graph, delta.EdgeDelta{Insert: m.Insert, Delete: m.Delete})
			if err != nil {
				return fail(err)
			}
			if err := s.republish(e, ng, m.RanksEnc, rec.Blob, rec.LSN, &Snapshot{
				Options: old.Options, Method: old.Method,
				// Iterations/Delta mirror the leader's published repair shape.
				Iterations: m.Rounds, Delta: m.Residual, RepairDrift: m.Drift,
			}); err != nil {
				return fail(err)
			}
		default:
			return fail(errors.New("edge delta ships neither a snapshot nor a rank vector"))
		}

	case wal.RecRecompute, wal.RecRankResidual:
		var m recomputeMeta
		if err := json.Unmarshal(rec.Meta, &m); err != nil {
			return fail(err)
		}
		e, err := s.lookup(m.Name)
		if err != nil || e.snap.Load().WalLSN != m.Parent {
			return false, nil
		}
		enc := ranksEncFull
		if rec.Type == wal.RecRankResidual {
			enc = ranksEncResidual
		}
		if err := s.republish(e, e.snap.Load().Graph, enc, rec.Blob, rec.LSN, &Snapshot{
			Options: m.Options, Method: m.Method, Iterations: m.Iterations, Delta: m.Delta,
		}); err != nil {
			return fail(err)
		}

	case wal.RecRemoveGraph:
		var m removeMeta
		if err := json.Unmarshal(rec.Meta, &m); err != nil {
			return fail(err)
		}
		if e, err := s.lookup(m.Name); err == nil && rec.LSN <= e.snap.Load().WalLSN {
			return false, nil // covered by the graph's snapshot
		}
		s.dropGraph(m.Name) // absent is fine: racing removals both log

	default:
		return fail(errors.New("unknown record type"))
	}
	return true, nil
}

// shippedRanks reconstructs the n-entry rank vector a record ships in blob
// under encoding enc; a residual applies against prev, the parent
// snapshot's vector.
func shippedRanks(enc string, prev []float32, blob []byte, n int) (ranks []float32, err error) {
	switch enc {
	case ranksEncResidual:
		ranks, err = delta.ApplyResidual(prev, blob)
	case ranksEncFull:
		ranks, err = decodeRanks(blob)
	default:
		return nil, fmt.Errorf("unknown rank encoding %q", enc)
	}
	if err == nil && len(ranks) != n {
		err = fmt.Errorf("shipped rank vector has %d entries, graph has %d", len(ranks), n)
	}
	return ranks, err
}

// republish publishes e's next snapshot from a record that ships its rank
// vector: the ranks in blob under encoding enc (a residual applies against
// e's current vector) on g — e's graph for a recompute, the rebuilt one for
// an edge delta — at log position lsn, with header's options and result
// shape.
func (s *Server) republish(e *entry, g *graph.Graph, enc string, blob []byte, lsn uint64, header *Snapshot) error {
	ranks, err := shippedRanks(enc, e.snap.Load().Ranks, blob, g.NumNodes())
	if err != nil {
		return err
	}
	header.Graph, header.Ranks, header.WalLSN, header.ComputedAt = g, ranks, lsn, time.Now()
	//lint:ignore walorder apply path: this republishes a record already in the log (lsn), nothing new to append
	e.snap.Store(e.seal(header))
	return nil
}

// Checkpoint persists every registered graph's current snapshot to the
// durable store and truncates the log up to the covered positions. Safe to
// call concurrently with serving traffic: it reads only published
// (immutable) snapshots. A no-op when durability is off.
func (s *Server) Checkpoint() error {
	st := s.wal.Load()
	if st == nil {
		return nil
	}
	entries := s.sortedEntries()
	ces := make([]wal.CheckpointEntry, 0, len(entries))
	for _, e := range entries {
		snap := e.snap.Load()
		mb, err := json.Marshal(snapMetaOf(e.name, snap))
		if err != nil {
			return fmt.Errorf("serve: snapshot meta: %w", err)
		}
		ces = append(ces, wal.CheckpointEntry{
			Name: e.name,
			LSN:  snap.WalLSN,
			Snap: &graph.Snapshot{Graph: snap.Graph, Ranks: snap.Ranks, Meta: mb},
		})
	}
	if err := st.Checkpoint(ces); err != nil {
		return err
	}
	s.log.Info("checkpoint complete", "graphs", len(ces))
	return nil
}

// CloseDurable takes a final checkpoint and closes the durable store. The
// server keeps serving reads afterwards, but further mutations are no
// longer logged; call it only on shutdown.
func (s *Server) CloseDurable() error {
	st := s.wal.Load()
	if st == nil {
		return nil
	}
	err := s.Checkpoint()
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	s.wal.Store(nil)
	return err
}

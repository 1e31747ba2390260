package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/wal"
)

const walProbeBlob = 64 << 10 // bytes of payload per probe record

// wal probes the log on this sandbox's disk (the numbers describe the
// sandbox, not a device): appends with and without fsync, a checkpoint of
// the served snapshot, replay of the appended records, and what recovery of
// the server's own directory loads and replays.
func (sp *serveProbe) wal() error {
	env := sp.env
	meta := []byte(strings.Repeat("m", 200))
	blob := make([]byte, walProbeBlob)
	records := env.cfg.reps(40)
	var nosyncDir string
	for _, mode := range []struct {
		metric string
		opts   wal.Options
	}{
		{"wal.append_sync_p50_ms", wal.Options{}},
		{"wal.append_nosync_p50_ms", wal.Options{SyncEvery: -1}},
	} {
		dir := filepath.Join(env.workDir, mode.metric)
		st, err := wal.Open(dir, mode.opts)
		if err != nil {
			return err
		}
		secs, err := env.repeat("wal.Store.Append", env.root, records, func(int) (err error) {
			_, err = st.Append(wal.RecEdgeDelta, meta, blob)
			return err
		})
		if err != nil {
			return err
		}
		env.res.putMedian(mode.metric, scale(secs, 1000))
		if err := st.Close(); err != nil {
			return err
		}
		nosyncDir = dir
	}

	// Replay the unsynced log, then checkpoint the served snapshot into it.
	st, err := wal.Open(nosyncDir, wal.Options{SyncEvery: -1})
	if err != nil {
		return err
	}
	replayed := 0
	secs, err := env.timed("wal.Store.Replay", env.root, func() error {
		return st.Replay(func(*wal.Record) error { replayed++; return nil })
	})
	if err != nil {
		return err
	}
	if replayed != records {
		return fmt.Errorf("wal replay saw %d records, %d were appended", replayed, records)
	}
	env.res.put("wal.replay_records_per_s", float64(replayed)/secs)
	_, snap, err := sp.s.srv.TopK(graphName, 1)
	if err != nil {
		return err
	}
	secs, err = env.timed("wal.Store.Checkpoint", env.root, func() error {
		return st.Checkpoint([]wal.CheckpointEntry{{
			Name: graphName, LSN: uint64(records),
			Snap: &graph.Snapshot{Graph: snap.Graph, Ranks: snap.Ranks, Meta: []byte("{}")},
		}})
	})
	if err != nil {
		return err
	}
	env.res.put("wal.checkpoint_s", secs)
	if err := st.Close(); err != nil {
		return err
	}

	// Recovery of the server's own directory as a crash would leave it: the
	// snapshot from the checkpoint before the delta probe, plus its deltas.
	image := filepath.Join(env.workDir, "probe-crash-image")
	if err := copyDir(sp.dataDir, image); err != nil {
		return err
	}
	snaps, err := filepath.Glob(filepath.Join(image, "*.snap"))
	if err != nil || len(snaps) != 1 {
		return fmt.Errorf("expected one snapshot file in the data directory, found %d (%v)", len(snaps), err)
	}
	secs, err = env.timed("graph.ReadSnapshot", env.root, func() error {
		f, ferr := os.Open(snaps[0])
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		_, ferr = graph.ReadSnapshot(f)
		return ferr
	})
	if err != nil {
		return err
	}
	env.res.put("serve.recover.snapshot_load_s", secs)
	rec := serve.New(serve.Config{DataDir: image})
	var rep *serve.RecoveryReport
	if _, err := env.timed("serve.Server.Recover", env.root, func() (err error) {
		rep, err = rec.Recover()
		return err
	}); err != nil {
		return err
	}
	env.res.put("serve.recover.replayed", float64(rep.Replayed))
	return rec.CloseDurable()
}

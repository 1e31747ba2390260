package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/repl"
	"repro/internal/serve"
)

// repl probes the replication layer: the stream decoder over the log bytes
// this run wrote, and how long after the leader acknowledges an edge delta
// a second in-process server following it serves the new version.
func (sp *serveProbe) repl() error {
	env := sp.env
	segments, err := filepath.Glob(filepath.Join(sp.dataDir, "*.wal"))
	if err != nil {
		return err
	}
	var stream []byte
	for _, seg := range segments {
		b, err := os.ReadFile(seg)
		if err != nil {
			return err
		}
		stream = append(stream, b...)
	}
	records := 0
	secs, err := env.timed("repl.Decoder.Next", env.root, func() error {
		dec := repl.NewDecoder(bytes.NewReader(stream), 0)
		for {
			if _, derr := dec.Next(); derr != nil {
				if errors.Is(derr, io.EOF) {
					return nil
				}
				return derr
			}
			records++
		}
	})
	if err != nil {
		return err
	}
	if records == 0 {
		return errors.New("the server's log holds no record to decode")
	}
	env.res.put("repl.decode_mbps", float64(len(stream))/1e6/secs)
	env.tr.count("repl.decoded_bytes", int64(len(stream)))

	follower := serve.New(serve.Config{FollowAddr: sp.s.root, FollowPollWait: time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1) // one send, from the Follow goroutine
	go func() { done <- follower.Follow(ctx) }()
	stop := func() error {
		cancel()
		if err := <-done; err != nil && !errors.Is(err, context.Canceled) {
			return fmt.Errorf("follower: %w", err)
		}
		return nil
	}
	visible := func(version uint64) error {
		for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(100 * time.Microsecond) {
			if info, err := follower.Info(graphName); err == nil && info.Version >= version {
				return nil
			}
		}
		return fmt.Errorf("follower did not reach version %d", version)
	}
	info, err := sp.s.srv.Info(graphName)
	if err == nil {
		err = visible(info.Version) // bootstrapped and caught up
	}
	if err != nil {
		return errors.Join(err, stop())
	}
	sched := newWriteSchedule(env.cfg.Seed+4, sp.n, nil)
	var lags []float64
	for i := 0; i < env.cfg.reps(4); i++ {
		ins := sched.batch()
		for _, o := range []op{ins, ins.asDelete()} {
			out, err := sp.c.exec(o)
			acked := time.Now()
			if err == nil {
				sp2 := env.tr.begin("repl.follower_apply", env.root, int64(out.Delta.Version))
				err = visible(out.Delta.Version)
				env.tr.end(sp2)
			}
			if err != nil {
				return errors.Join(err, stop())
			}
			lags = append(lags, float64(time.Since(acked))/float64(time.Millisecond))
		}
	}
	env.res.putMedian("repl.apply_lag_p50_ms", lags)
	return stop()
}

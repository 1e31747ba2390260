package repl

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/wal"
)

// stream frames records into one wire buffer.
func stream(recs ...*wal.Record) []byte {
	var b []byte
	for _, r := range recs {
		b = wal.EncodeFrame(b, r)
	}
	return b
}

func rec(lsn uint64) *wal.Record {
	return &wal.Record{
		LSN:  lsn,
		Type: wal.RecEdgeDelta,
		Meta: []byte(fmt.Sprintf(`{"name":"g","lsn":%d}`, lsn)),
		Blob: []byte("blob"),
	}
}

// fakeLeader serves canned tail/bootstrap responses.
type fakeLeader struct {
	tail      func(w http.ResponseWriter, r *http.Request)
	bootstrap func(w http.ResponseWriter, r *http.Request)
}

func (f *fakeLeader) start(t *testing.T) *Client {
	t.Helper()
	mux := http.NewServeMux()
	if f.tail != nil {
		mux.HandleFunc("GET /v1/wal", f.tail)
	}
	if f.bootstrap != nil {
		mux.HandleFunc("GET /v1/repl/bootstrap", f.bootstrap)
	}
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return &Client{Base: srv.URL}
}

func TestClientTailStream(t *testing.T) {
	c := (&fakeLeader{tail: func(w http.ResponseWriter, r *http.Request) {
		if got := r.URL.Query().Get("from"); got != "3" {
			t.Errorf("leader saw from=%s, want 3", got)
		}
		w.Header().Set("X-Repl-Next-LSN", "6")
		w.Write(stream(rec(3), rec(4), rec(5))) //nolint:errcheck
	}}).start(t)

	var got []uint64
	res, err := c.Tail(context.Background(), 3, func(r *wal.Record) error {
		got = append(got, r.LSN)
		return nil
	})
	if err != nil {
		t.Fatalf("Tail: %v", err)
	}
	if len(got) != 3 || got[0] != 3 || got[2] != 5 {
		t.Fatalf("tailed %v, want [3 4 5]", got)
	}
	if res.Next != 6 || res.LeaderNext != 6 || !res.CaughtUp {
		t.Fatalf("result %+v, want Next=6 LeaderNext=6 CaughtUp", res)
	}
}

func TestClientTailEmptyPoll(t *testing.T) {
	c := (&fakeLeader{tail: func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Repl-Next-LSN", "3")
		w.WriteHeader(http.StatusNoContent)
	}}).start(t)
	res, err := c.Tail(context.Background(), 3, func(*wal.Record) error {
		t.Fatal("204 must not deliver records")
		return nil
	})
	if err != nil || !res.CaughtUp || res.Next != 3 {
		t.Fatalf("empty poll: res=%+v err=%v, want CaughtUp at 3", res, err)
	}
}

func TestClientTailPruned(t *testing.T) {
	c := (&fakeLeader{tail: func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusGone)
		w.Write([]byte(`{"error":"pruned","oldest_lsn":17}`)) //nolint:errcheck
	}}).start(t)
	_, err := c.Tail(context.Background(), 3, func(*wal.Record) error { return nil })
	if !errors.Is(err, ErrPruned) {
		t.Fatalf("410 classified as %v, want ErrPruned", err)
	}
}

func TestClientFetchBootstrap(t *testing.T) {
	c := (&fakeLeader{bootstrap: func(w http.ResponseWriter, r *http.Request) {
		frames := stream(
			&wal.Record{LSN: 9, Type: wal.RecAddGraph, Meta: []byte(`{"name":"a"}`), Blob: []byte("sa")},
			&wal.Record{LSN: 4, Type: wal.RecAddGraph, Meta: []byte(`{"name":"b"}`), Blob: []byte("sb")},
			&wal.Record{LSN: 3, Type: wal.RecCheckpoint, Meta: []byte(`{"from":3}`)},
		)
		w.Write(frames) //nolint:errcheck
	}}).start(t)
	b, err := c.FetchBootstrap(context.Background())
	if err != nil {
		t.Fatalf("FetchBootstrap: %v", err)
	}
	if len(b.Records) != 2 || b.Records[0].LSN != 9 || b.Records[1].LSN != 4 {
		t.Fatalf("bootstrap records %+v, want LSNs [9 4]", b.Records)
	}
	if b.From != 3 {
		t.Fatalf("bootstrap cursor %d, want 3", b.From)
	}
}

func TestClientFetchBootstrapMissingTerminator(t *testing.T) {
	// A stream cut before its RecCheckpoint terminator (leader died
	// mid-bootstrap) must not be trusted as a complete registry.
	c := (&fakeLeader{bootstrap: func(w http.ResponseWriter, r *http.Request) {
		w.Write(stream(&wal.Record{ //nolint:errcheck
			LSN: 9, Type: wal.RecAddGraph, Meta: []byte(`{"name":"a"}`), Blob: []byte("sa")}))
	}}).start(t)
	if _, err := c.FetchBootstrap(context.Background()); err == nil {
		t.Fatal("truncated bootstrap accepted")
	}
}

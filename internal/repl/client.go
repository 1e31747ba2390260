package repl

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/wal"
)

// Client talks to a leader's replication endpoints.
type Client struct {
	// Base is the leader's base URL, e.g. "http://10.0.0.1:8080".
	Base string
	// HTTP is the transport; nil uses http.DefaultClient. Tail requests
	// long-poll, so the client must not impose a timeout shorter than
	// PollWait plus slack.
	HTTP *http.Client
	// PollWait is the server-side long-poll window requested by Tail; 0
	// accepts the leader's default.
	PollWait time.Duration
	// MaxBytes caps one tail response's frame bytes; 0 accepts the
	// leader's default. The leader always sends at least one whole record.
	MaxBytes int64
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// TailResult summarizes one tail round.
type TailResult struct {
	// Next is the cursor for the following round: one past the last
	// decoded record, or the request cursor when the round was empty.
	Next uint64
	// Records decoded (and delivered to fn) this round.
	Records int
	// LeaderNext is the leader's next append position at response time
	// (X-Repl-Next-LSN); Next == LeaderNext means the follower is caught
	// up through everything the leader had acknowledged.
	LeaderNext uint64
	// CaughtUp reports the cursor reached LeaderNext this round.
	CaughtUp bool
}

// Tail runs one long-poll round against GET /v1/wal, delivering each
// decoded record to fn in LSN order. A torn stream returns the progress
// made plus ErrTorn — the caller resumes from res.Next. A pruned cursor
// returns ErrPruned; corruption returns the *wal.CorruptionError. An error
// from fn aborts the round with that error.
func (c *Client) Tail(ctx context.Context, from uint64, fn func(*wal.Record) error) (TailResult, error) {
	res := TailResult{Next: from}
	q := url.Values{"from": {strconv.FormatUint(from, 10)}}
	if c.PollWait > 0 {
		q.Set("wait", c.PollWait.String())
	}
	if c.MaxBytes > 0 {
		q.Set("max_bytes", strconv.FormatInt(c.MaxBytes, 10))
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/v1/wal?"+q.Encode(), nil)
	if err != nil {
		return res, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return res, err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16)) //nolint:errcheck // drain for reuse
		resp.Body.Close()
	}()
	res.LeaderNext = headerLSN(resp.Header)

	switch resp.StatusCode {
	case http.StatusOK:
		// Decoded below.
	case http.StatusNoContent:
		res.CaughtUp = true
		return res, nil
	case http.StatusGone:
		var body struct {
			OldestLSN uint64 `json:"oldest_lsn"`
		}
		json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&body) //nolint:errcheck // best-effort detail
		return res, fmt.Errorf("%w (cursor %d, leader oldest %d)", ErrPruned, from, body.OldestLSN)
	default:
		return res, httpError("tail", resp)
	}

	dec := NewDecoder(resp.Body, from)
	for {
		rec, err := dec.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				res.CaughtUp = res.LeaderNext > 0 && res.Next >= res.LeaderNext
				return res, nil
			}
			return res, err
		}
		if err := fn(rec); err != nil {
			return res, err
		}
		res.Records++
		res.Next = rec.LSN + 1
	}
}

// Bootstrap is a follower's from-nothing starting state.
type Bootstrap struct {
	// Records holds one RecAddGraph per registered graph; the blob is the
	// graph's published snapshot serialization, and the LSN is the position
	// that snapshot was published at.
	Records []*wal.Record
	// From is the tail cursor to resume from (see BootstrapEnd).
	From uint64
}

// FetchBootstrap downloads GET /v1/repl/bootstrap. A stream that ends
// before the terminating RecCheckpoint frame is incomplete and fails (the
// caller retries); any decode failure fails the whole bootstrap — a
// half-trusted starting state is worse than none.
func (c *Client) FetchBootstrap(ctx context.Context) (*Bootstrap, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/v1/repl/bootstrap", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, httpError("bootstrap", resp)
	}

	b := &Bootstrap{}
	dec := NewDecoder(resp.Body, 0)
	for {
		rec, err := dec.Next()
		if errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("repl: bootstrap stream ended without terminator")
		}
		if err != nil {
			return nil, fmt.Errorf("repl: bootstrap: %w", err)
		}
		switch rec.Type {
		case wal.RecCheckpoint:
			var end BootstrapEnd
			if err := json.Unmarshal(rec.Meta, &end); err != nil {
				return nil, fmt.Errorf("repl: bootstrap terminator: %w", err)
			}
			b.From = end.From
			return b, nil
		case wal.RecAddGraph:
			b.Records = append(b.Records, rec)
		default:
			return nil, fmt.Errorf("repl: bootstrap stream carried record type %d", rec.Type)
		}
	}
}

func headerLSN(h http.Header) uint64 {
	v, err := strconv.ParseUint(h.Get("X-Repl-Next-LSN"), 10, 64)
	if err != nil {
		return 0
	}
	return v
}

func httpError(op string, resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	return fmt.Errorf("repl: %s: leader returned %s: %s", op, resp.Status, body)
}

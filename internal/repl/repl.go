// Package repl is the leader/follower replication protocol of the
// rank-serving daemon. The wire format is the WAL's own frame encoding
// (length + CRC32-C + payload, see internal/wal) streamed over HTTP:
//
//   - GET /v1/wal?from=<lsn> on the leader long-polls the log tail and
//     streams every durable record at or past the cursor. 204 means the
//     cursor is at the head (nothing new within the wait window); 410 Gone
//     means a checkpoint pruned the cursor and the follower must
//     re-bootstrap. Every response carries X-Repl-Next-LSN, the leader's
//     next append position, which is what followers measure lag against.
//   - GET /v1/repl/bootstrap streams one synthetic RecAddGraph frame per
//     registered graph (blob = the graph's published snapshot, LSN = the
//     snapshot's covered position) terminated by a RecCheckpoint frame
//     whose metadata carries the tail cursor to resume from.
//
// Frames are read by wal.Decoder, the same reader the log uses, under the
// stream policy: a body that ends mid-frame is torn (ErrTorn — the
// transport died; resume from the cursor), while a frame that fails its
// checksum, carries an insane length, or breaks LSN continuity is
// corruption (*wal.CorruptionError — fail closed and re-bootstrap, never
// apply a suspect record). The disk's torn-tail rule does not apply: a
// header that arrived whole cannot be torn.
package repl

import (
	"errors"
	"io"

	"repro/internal/wal"
)

// ErrTorn reports a stream that ended partway through a frame: the
// transport (or the leader) went away mid-record. Records decoded before
// the tear are intact; the follower resumes tailing from its cursor.
var ErrTorn = wal.ErrTorn

// ErrPruned reports a tail cursor that predates the leader's oldest
// retained record; the follower must re-bootstrap from snapshots.
var ErrPruned = errors.New("repl: cursor pruned on leader")

// BootstrapEnd is the metadata document of the RecCheckpoint frame that
// terminates a bootstrap stream.
type BootstrapEnd struct {
	// From is the tail cursor the follower resumes from: the leader's
	// oldest retained LSN at the moment the bootstrap cut was taken. Any
	// record at or past it that is already reflected in a shipped snapshot
	// is skipped by the follower, exactly as in warm recovery.
	From uint64 `json:"from"`
}

// Decoder reads WAL frames from a replication stream.
type Decoder = wal.Decoder

// NewDecoder wraps r; see wal.NewDecoder. Tail streams pass their cursor,
// which arms the LSN continuity check; bootstrap streams pass 0.
func NewDecoder(r io.Reader, from uint64) *Decoder { return wal.NewDecoder(r, from) }

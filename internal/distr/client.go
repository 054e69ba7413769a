// The coordinator↔shard RPC boundary. Everything the coordinator does to
// a shard — count rounds, the batched sample protocol, update mirroring,
// liveness — goes through the ShardClient interface; insert routing reads
// the coordinator's own shard boxes (summary.go) and asks no shard. Its
// one transport-facing implementation is wireClient, the same for
// in-process shard hosts and for shard processes behind TCP; the
// fault-injection decorator wraps it for the robustness suites.
package distr

import (
	"errors"
	"fmt"
	"time"

	"storm/internal/data"
	"storm/internal/geo"
	"storm/internal/pred"
	"storm/internal/wire"
)

// ShardClient is the coordinator's view of one shard server. Every round
// shape the cluster speaks is here:
//
//   - Count is the count round (|P_s ∩ q| for fan-out totals), which can
//     also return one attribute's moments over it (the exact plan).
//   - Open/Fetch/CloseStream are the batched sample protocol: Open
//     creates a per-query without-replacement stream (returning its
//     matching count), Fetch pulls a demand-sized batch, CloseStream
//     releases it.
//   - Insert/Delete mirror updates into the shard's index.
//   - Live is the liveness check that fences a down shard off.
//
// Implementations: wireClient (remote.go, over an in-memory or TCP
// wire.Transport) and faultClient (fault-injection decorator, fault.go).
// All methods must be safe for concurrent use.
type ShardClient interface {
	// Count answers a count round: the shard's matching count for the
	// request's rectangle, restricted to records satisfying its predicate
	// terms, and the moments of its attribute when it names one and the
	// count fits its limit. The shard compiles and prunes locally; the
	// client fills in the target.
	Count(req wire.Count) (wire.CountOK, error)
	// Open creates sample stream id over q, seeded with seed, never
	// emitting the excluded IDs and emitting only records satisfying the
	// predicate terms (nil = no predicate); it returns the stream's
	// matching count. A zero count opens nothing.
	Open(stream uint64, q geo.Rect, seed int64, exclude []data.ID, where []pred.Term) (int, error)
	// Fetch pulls up to n samples from an open stream into dst[:n]. A
	// non-zero deadline is an absolute wall-clock bound the attempt must
	// respect: the TCP transport caps its request timeout at the time
	// remaining (never above Config.FetchTimeout, never below
	// wire.MinCallTimeout). A zero deadline leaves Config.FetchTimeout as
	// the only bound.
	Fetch(stream uint64, dst []data.Entry, n int, deadline time.Time) (int, error)
	// CloseStream releases an open stream.
	CloseStream(stream uint64) error
	// Insert adds a record to the shard's index, with its attribute
	// values as insertAttrs reads them from the coordinator's dataset.
	Insert(e data.Entry, num []wire.NumAttr, str []wire.StrAttr) error
	// Delete removes a record, reporting whether the shard held it.
	Delete(e data.Entry) (bool, error)
	// Live reports whether the shard is currently down. Each call is one
	// coordinator observation (it advances an injected crash's recovery
	// clock, or rate-limits a real TCP probe), and rejoined is true
	// exactly once per recovery — on the observation that brought the
	// shard back. An in-process shard host is never down on its own.
	Live() (down, rejoined bool)
	// Addr names the shard's endpoint ("loopback" for an in-process
	// shard host).
	Addr() string
}

// Fetch-path error taxonomy. The coordinator's retry loop (see
// Sampler.clientFetch) keys off these: shardDownError writes the shard
// off (recoverable crashes are retried as probes first), ErrUnknownStream
// triggers a stream reopen with an exclude list, everything else is
// retried with backoff up to Config.MaxRetries.
var (
	// ErrFetchTimeout reports a fetch that exceeded the per-fetch
	// deadline (injected, or a real transport deadline).
	ErrFetchTimeout = errors.New("distr: fetch timed out")
	// ErrTransient reports a retryable shard-side failure.
	ErrTransient = errors.New("distr: transient shard error")
	// ErrUnknownStream reports a fetch against a stream the shard no
	// longer has — the signature of a shard process restart.
	ErrUnknownStream = errors.New("distr: unknown sample stream")
)

// shardDownError reports a shard that is down. Recoverable marks a shard
// that may come back (an injected crash with a recover-after schedule, or
// any real TCP outage — a process can always be restarted); the
// coordinator then keeps the query's stream stashed for re-admission
// instead of writing the loss off permanently.
type shardDownError struct {
	Recoverable bool
}

func (e *shardDownError) Error() string {
	return fmt.Sprintf("distr: shard down (recoverable=%v)", e.Recoverable)
}

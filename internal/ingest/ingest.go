// Package ingest is STORM's streaming write path: sharded, lock-minimal
// ingest buffers that accept appends off the query path and drain in the
// background as batched bulk inserts into the query indexes — the paper's
// live-firehose scenario (a Twitter stream queried online while it is
// still arriving).
//
// # Architecture
//
// Producers call AppendBatch (Append is a batch of one), which
// round-robins batches across S independent buffer shards; each append
// takes one short per-shard mutex, never the dataset's index lock. A
// background drainer goroutine wakes on a timer
// (Config.FlushInterval) or as soon as any shard passes
// Config.FlushRecords, swaps every shard's buffer out under its mutex, and
// hands the combined batch to the Sink — engine.Handle.InsertBatch, which
// takes the dataset write lock once per call and feeds the R-tree the
// whole batch as Hilbert-sorted run merges (rtree.Tree.InsertBatch: one
// descent per run, whole-run leaf splices, evenly-filled multi-way
// splits). Deep backlogs are handed over in Config.MaxBatch-sized chunks
// with a scheduler yield between them, so one drain pass holds the write
// lock for a bounded time and queries contend with a few brief writers
// per flush interval instead of one per record.
//
// # Backpressure
//
// The buffer is bounded: when more than Config.MaxPending records are
// waiting to drain, Append returns ErrBackpressure instead of growing the
// heap — the caller (the server's POST /ingest handler) surfaces it as
// HTTP 429 with a Retry-After. Backpressure means the drain (index
// insert) side is the bottleneck; see INGEST.md for tuning.
//
// # Sliding-window state
//
// The ingestor keeps no window state. Queries over the live window
// (`LAST <dur>`) run through the engine, which anchors the window at the
// latest event time the drain has indexed; see engine.Options.
//
// Metrics land under storm.ingest.<dataset>.*: accepted, backpressure,
// batches, drained, pending, window.lag_ms (how far queryability trails
// arrival), drain.batch_ms.
package ingest

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"storm/internal/data"
	"storm/internal/obs"
)

// ErrBackpressure is returned by Append when the buffered backlog exceeds
// Config.MaxPending: the drain side is behind and the producer must slow
// down or retry. The server maps it to HTTP 429.
var ErrBackpressure = errors.New("ingest: buffer full (drain backlog at MaxPending); retry")

// ErrClosed is returned by Append after Close.
var ErrClosed = errors.New("ingest: ingestor closed")

// Sink receives drained batches. engine.Handle implements it: InsertBatch
// takes the dataset write lock once for the whole batch and merges it into
// the R-tree as Hilbert-sorted runs.
type Sink interface {
	InsertBatch(rows []data.Row) []data.ID
}

// Config tunes an Ingestor. The zero value gets sensible defaults.
type Config struct {
	// Shards is the number of independent buffer shards Append spreads
	// over; more shards mean less producer contention. Default 8.
	Shards int
	// FlushRecords triggers an early drain once any one shard holds this
	// many records (default 4096), keeping window lag low under load.
	FlushRecords int
	// FlushInterval is the drainer's idle wake-up period (default 25ms) —
	// the worst-case time an accepted record waits before becoming
	// queryable on an idle stream.
	FlushInterval time.Duration
	// MaxPending bounds the total records buffered across all shards;
	// beyond it Append returns ErrBackpressure. Default 1 << 19 (512k).
	MaxPending int
	// MaxBatch caps the records handed to one Sink.InsertBatch call
	// (default 65536). The sink holds the dataset write lock per call, so
	// this bounds how long one drain pass can stall concurrent queries
	// even when a large backlog has built up; the backlog drains over
	// several calls with the lock released in between.
	MaxBatch int
	// Obs receives storm.ingest.<Name>.* metrics; nil disables them.
	Obs *obs.Registry
	// Name is the dataset name used in metric keys (default "default").
	Name string
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.FlushRecords <= 0 {
		c.FlushRecords = 4096
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 25 * time.Millisecond
	}
	if c.MaxPending <= 0 {
		c.MaxPending = 1 << 19
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 1 << 16
	}
	if c.Name == "" {
		c.Name = "default"
	}
	return c
}

// bufShard is one ingest buffer shard: a mutex, the pending rows, and the
// arrival time of the oldest pending row (for window-lag accounting).
// Padded indirectly by being heap-allocated per shard.
type bufShard struct {
	mu     sync.Mutex
	rows   []data.Row
	oldest time.Time
}

// ingestMetrics holds the ingestor's resolved metric handles; all writes
// are nil-safe no-ops when metrics are disabled.
type ingestMetrics struct {
	accepted     *obs.Counter
	backpressure *obs.Counter
	batches      *obs.Counter
	drained      *obs.Counter
	lagMS        *obs.TuningHistogram
	batchMS      *obs.TuningHistogram
}

// Ingestor is a sharded streaming write buffer in front of a Sink.
type Ingestor struct {
	cfg    Config
	sink   Sink
	shards []*bufShard
	// next round-robins producers across shards.
	next atomic.Uint64
	// pending is the total buffered record count (backpressure authority).
	pending atomic.Int64
	// accepted counts records accepted over the ingestor's lifetime.
	accepted atomic.Uint64
	met      ingestMetrics
	wake     chan struct{}
	done     chan struct{}
	wg       sync.WaitGroup
	closed   atomic.Bool
	// flushMu serializes drain passes (the background drainer and explicit
	// Flush calls), keeping sink batches ordered. drainBuf is the drain's
	// staging buffer, guarded by flushMu and reused across passes so a
	// sustained stream drains without reallocating.
	flushMu  sync.Mutex
	drainBuf []data.Row
}

// New starts an ingestor draining into sink. Call Close to flush and stop
// the background drainer.
func New(sink Sink, cfg Config) *Ingestor {
	cfg = cfg.withDefaults()
	in := &Ingestor{
		cfg:    cfg,
		sink:   sink,
		shards: make([]*bufShard, cfg.Shards),
		wake:   make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	for i := range in.shards {
		in.shards[i] = &bufShard{}
	}
	// A nil registry hands out nil metrics whose writes are no-ops, so no
	// site below branches on "are metrics enabled" (the package obs rule).
	prefix := "storm.ingest." + cfg.Name + "."
	reg := cfg.Obs
	in.met = ingestMetrics{
		accepted:     reg.Counter(prefix + "accepted"),
		backpressure: reg.Counter(prefix + "backpressure"),
		batches:      reg.Counter(prefix + "batches"),
		drained:      reg.Counter(prefix + "drained"),
		lagMS:        reg.TuningHistogram(prefix+"window.lag_ms", 0.1, 16),
		batchMS:      reg.TuningHistogram(prefix+"drain.batch_ms", 0.1, 16),
	}
	reg.PublishFunc(prefix+"pending", func() any { return in.Pending() })
	in.wg.Add(1)
	go in.drainLoop()
	return in
}

// Append buffers one record for background insertion: an AppendBatch of
// one. It returns ErrBackpressure when the drain backlog is at
// Config.MaxPending and ErrClosed after Close; the record is then NOT
// buffered.
func (in *Ingestor) Append(row data.Row) error {
	return in.AppendBatch([]data.Row{row})
}

// AppendBatch buffers a batch of records under one shard-lock acquisition
// and one round of counter updates — the POST /ingest array path and
// paced firehose producers, where per-record Append overhead (mutex,
// atomics) would dominate. All-or-nothing: when it
// returns ErrBackpressure or ErrClosed, no record of the batch was
// buffered, so the caller retries the whole batch after backing off.
func (in *Ingestor) AppendBatch(rows []data.Row) error {
	if len(rows) == 0 {
		return nil
	}
	if in.closed.Load() {
		return ErrClosed
	}
	if in.pending.Load() >= int64(in.cfg.MaxPending) {
		in.met.backpressure.Inc()
		return ErrBackpressure
	}
	s := in.shards[in.next.Add(1)%uint64(len(in.shards))]
	s.mu.Lock()
	if len(s.rows) == 0 {
		s.oldest = time.Now()
	}
	s.rows = append(s.rows, rows...)
	n := len(s.rows)
	s.mu.Unlock()
	in.pending.Add(int64(len(rows)))
	in.accepted.Add(uint64(len(rows)))
	in.met.accepted.Add(uint64(len(rows)))
	if n >= in.cfg.FlushRecords {
		// Wake the drainer early; non-blocking because one pending wake-up
		// is enough.
		select {
		case in.wake <- struct{}{}:
		default:
		}
	}
	return nil
}

// Pending returns how many accepted records are still waiting to drain.
func (in *Ingestor) Pending() int { return int(in.pending.Load()) }

// Accepted returns how many records Append has accepted in total.
func (in *Ingestor) Accepted() uint64 { return in.accepted.Load() }

// drainLoop is the background drainer: wake on the flush interval or an
// early-flush signal, drain everything buffered, repeat until Close.
func (in *Ingestor) drainLoop() {
	defer in.wg.Done()
	ticker := time.NewTicker(in.cfg.FlushInterval)
	defer ticker.Stop()
	for {
		select {
		case <-in.done:
			in.drain()
			return
		case <-ticker.C:
		case <-in.wake:
		}
		in.drain()
	}
}

// drain swaps every shard's buffer out under its mutex and bulk-inserts
// the combined batch. One sink call per pass keeps the dataset write lock
// acquisitions at one per flush, not one per record.
func (in *Ingestor) drain() {
	in.flushMu.Lock()
	defer in.flushMu.Unlock()
	batch := in.drainBuf[:0]
	oldest := time.Time{}
	for _, s := range in.shards {
		s.mu.Lock()
		if len(s.rows) > 0 {
			batch = append(batch, s.rows...)
			s.rows = s.rows[:0]
			if oldest.IsZero() || s.oldest.Before(oldest) {
				oldest = s.oldest
			}
		}
		s.mu.Unlock()
	}
	in.drainBuf = batch
	if len(batch) == 0 {
		return
	}
	// Hand the sink at most MaxBatch records per call: each call is one
	// dataset write-lock hold, and a bounded hold keeps concurrent query
	// latency bounded even when draining a deep backlog.
	for lo := 0; lo < len(batch); lo += in.cfg.MaxBatch {
		hi := lo + in.cfg.MaxBatch
		if hi > len(batch) {
			hi = len(batch)
		}
		start := time.Now()
		in.sink.InsertBatch(batch[lo:hi])
		in.pending.Add(int64(-(hi - lo)))
		in.met.batches.Inc()
		in.met.drained.Add(uint64(hi - lo))
		in.met.batchMS.Observe(float64(time.Since(start)) / float64(time.Millisecond))
		// Yield between holds. Without this, on a machine with few spare
		// cores the drain goroutine re-acquires the dataset write lock
		// before the readers it just woke ever get scheduled, and a deep
		// backlog starves queries for its whole duration — exactly what
		// the per-chunk bound is meant to prevent.
		runtime.Gosched()
	}
	if !oldest.IsZero() {
		// Window lag: how long the batch's oldest record waited between
		// acceptance and queryability.
		in.met.lagMS.Observe(float64(time.Since(oldest)) / float64(time.Millisecond))
	}
}

// Flush synchronously drains everything currently buffered into the Sink.
func (in *Ingestor) Flush() { in.drain() }

// Close flushes remaining records, stops the drainer, and makes further
// Appends fail with ErrClosed. Idempotent.
func (in *Ingestor) Close() error {
	if in.closed.Swap(true) {
		return nil
	}
	close(in.done)
	in.wg.Wait()
	return nil
}

// String summarizes the ingestor's state for logs.
func (in *Ingestor) String() string {
	return fmt.Sprintf("ingest(%s: %d shards, %d pending, %d accepted)",
		in.cfg.Name, len(in.shards), in.Pending(), in.Accepted())
}

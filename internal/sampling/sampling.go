// Package sampling defines STORM's spatial online sampling abstraction
// (Definition 1 in the paper) and implements the three baseline methods the
// paper compares against: QueryFirst, SampleFirst and Olken's RandomPath.
//
// A Sampler is a per-query object that returns uniform random samples from
// P ∩ Q for an a-priori unknown sample count: the consumer keeps pulling
// with NextBatch — any number of samples at a time, one included — until
// it is satisfied (accuracy target met, time budget exhausted, or the user
// cancels). The STORM indexes (packages lstree and rstree) and the cluster
// coordinator (package distr) implement the same interface.
//
// # Concurrency
//
// Every Sampler in this package keeps all of its mutable state (cursors,
// permutations, seen-sets, its RNG) query-local and only reads the shared
// tree or dataset, so any number of samplers may run concurrently over the
// same index as long as index mutations are serialized against them by the
// caller (package engine uses a per-dataset RWMutex). An individual
// Sampler serves one query from one goroutine.
package sampling

import (
	"storm/internal/data"
	"storm/internal/geo"
	"storm/internal/iosim"
	"storm/internal/pred"
	"storm/internal/rtree"
	"storm/internal/stats"
)

// Mode selects between sampling with and without replacement.
type Mode int

const (
	// WithoutReplacement returns each matching record at most once; the
	// stream is exhausted after |P ∩ Q| samples. Online aggregation over
	// without-replacement samples converges to the exact answer.
	WithoutReplacement Mode = iota
	// WithReplacement returns independent uniform samples forever (as
	// long as the range is non-empty).
	WithReplacement
)

// Sampler is one query's stream of uniform random samples from its range.
//
// NextBatch fills dst[:n] with the next min(k, len(dst)) samples of the
// stream and returns n; n < k means the stream is exhausted: a without-
// replacement sampler over a range with q matching records is exhausted
// after q samples; a with-replacement sampler is exhausted only when the
// range is empty.
//
// The stream is chunking-invariant: for a fixed seed, the concatenation of
// the NextBatch results is the same sequence however the pulls are sized —
// a pull of k is k pulls of 1. Pulling more at a time only amortizes
// per-sample overheads (lock acquisitions, I/O charge bookkeeping, network
// round trips), never the draw distribution.
//
// Rest is the stream's exact finish: when every record it has yet to emit
// is already in memory and there are at most max of them, Rest appends
// them to dst in any order, ends the stream (later pulls return nothing)
// and returns true. Otherwise it changes nothing and returns dst, false.
// Folding the rest costs one pass over held records instead of one draw
// each, so a consumer that would otherwise drain the stream can finish
// exactly for less; samplers that hold nothing refuse.
//
// SamplerStats reports the stream's cumulative instrumentation counters.
// Close ends the stream and releases what it holds beyond the garbage
// collector's reach — pooled scratch, server-side shard streams; samplers
// holding nothing return nil. A sampler charges its simulated I/O to the
// accountant it was built with, for its whole lifetime.
type Sampler interface {
	NextBatch(dst []data.Entry, k int) int
	Rest(dst []data.Entry, max int) ([]data.Entry, bool)
	Name() string
	SamplerStats() SamplerStats
	Close() error
}

// QueryFirst is the paper's first strawman: compute P ∩ Q in full, then
// stream a random permutation of the result. Its cost is O(r(N) + q) to
// produce the first sample — the cost of a full range-reporting query —
// after which samples are free. For interactive workloads where the user
// stops after k << q samples, the up-front cost dominates.
type QueryFirst struct {
	tree    *rtree.Tree
	query   geo.Rect
	mode    Mode
	rng     *stats.RNG
	acct    iosim.Accountant
	filter  *rtree.TreeFilter
	matched []data.Entry
	fetched bool
	cursor  int
	draws   uint64
}

// NewQueryFirst returns a QueryFirst sampler over the given tree and range,
// charging the tree's device.
func NewQueryFirst(t *rtree.Tree, q geo.Rect, mode Mode, rng *stats.RNG) *QueryFirst {
	return NewQueryFirstWhere(t, q, mode, rng, nil, nil)
}

// NewQueryFirstWhere returns a QueryFirst sampler whose up-front range
// report is predicate-pruned: subtrees with a None digest verdict are
// skipped and only qualifying records enter the permutation. Page charges
// go to acct (a per-query iosim.Counter, say), or to the tree's device when
// acct is nil. A nil filter and a nil acct is exactly NewQueryFirst.
func NewQueryFirstWhere(t *rtree.Tree, q geo.Rect, mode Mode, rng *stats.RNG, f *rtree.TreeFilter, acct iosim.Accountant) *QueryFirst {
	if acct == nil {
		acct = t.Device()
	}
	return &QueryFirst{tree: t, query: q, mode: mode, rng: rng, acct: acct, filter: f}
}

// Name implements Sampler.
func (s *QueryFirst) Name() string { return "RangeReport" }

// Close implements Sampler; QueryFirst holds nothing to release.
func (s *QueryFirst) Close() error { return nil }

// NextBatch implements Sampler. All of QueryFirst's I/O happens in the one
// up-front range report; after it a draw is one step over the result.
func (s *QueryFirst) NextBatch(dst []data.Entry, k int) int {
	if k > len(dst) {
		k = len(dst)
	}
	if k <= 0 {
		return 0
	}
	if !s.fetched {
		s.matched = s.tree.ReportAllWhereTo(s.acct, s.query, s.filter)
		s.fetched = true
	}
	n := len(s.matched)
	if n == 0 {
		return 0
	}
	got := 0
	if s.mode == WithReplacement {
		for ; got < k; got++ {
			dst[got] = s.matched[s.rng.Intn(n)]
		}
	} else {
		// Incremental Fisher–Yates: each emitted prefix is a uniform
		// without-replacement sample.
		for ; got < k && s.cursor < n; got++ {
			j := s.cursor + s.rng.Intn(n-s.cursor)
			s.matched[s.cursor], s.matched[j] = s.matched[j], s.matched[s.cursor]
			dst[got] = s.matched[s.cursor]
			s.cursor++
		}
	}
	s.draws += uint64(got)
	return got
}

// Rest implements Sampler: once the range report has run, a
// without-replacement stream's rest is the unvisited tail of it.
func (s *QueryFirst) Rest(dst []data.Entry, max int) ([]data.Entry, bool) {
	if !s.fetched || s.mode != WithoutReplacement || len(s.matched)-s.cursor > max {
		return dst, false
	}
	dst = append(dst, s.matched[s.cursor:]...)
	s.cursor = len(s.matched)
	return dst, true
}

// SamplerStats implements Sampler: Scans records the up-front full range
// report once it has run.
func (s *QueryFirst) SamplerStats() SamplerStats {
	st := SamplerStats{Draws: s.draws}
	if s.fetched {
		st.Scans = 1
	}
	if s.filter != nil {
		st.Pruned = s.filter.Pruned
	}
	return st
}

// SampleFirst is the paper's second strawman: draw a uniform record from
// the whole data set and keep it only if it falls inside Q. Each accepted
// sample costs O(N/q) attempts in expectation — catastrophic for selective
// queries, and it never terminates when q = 0, so the implementation gives
// up after a configurable attempt budget.
type SampleFirst struct {
	ds    *data.Dataset
	query geo.Rect
	mode  Mode
	rng   *stats.RNG
	// batch coalesces the page charges of a pull; NextBatch flushes it.
	batch *iosim.Batcher
	// perPage is how many records share a simulated data page.
	perPage int
	// MaxAttempts bounds the rejection loop per sample; when exceeded,
	// the sampler degrades to one full filtered scan (counted as an
	// explosion) and serves the remaining matching records from it
	// instead of surfacing a short stream. Defaults to 200·N attempts.
	MaxAttempts int
	// Filter, when non-nil, rejects records it declines — the engine uses
	// it to hide records deleted from the indexes, which remain in the
	// append-only columnar store SampleFirst draws from. Rejection keeps
	// the accepted stream uniform over the live matching records.
	Filter func(data.ID) bool
	// Pred, when non-nil, restricts the accepted stream to records
	// satisfying a compiled attribute predicate. SampleFirst has no index
	// to prune with, so the predicate only tightens the rejection loop —
	// this is the honest rejection baseline pushdown is compared against.
	// Must be set before the first draw.
	Pred     *pred.Compiled
	seen     *IDSet
	attempts uint64 // total attempts, for instrumentation
	accepted uint64 // rejection-loop accepts (excludes scan serves)
	draws    uint64 // accepted samples returned
	// Degraded-scan state: pending holds the remaining matching records,
	// permuted incrementally from cursor.
	scanned    bool
	pending    []data.Entry
	cursor     int
	explosions uint64
}

// NewSampleFirst returns a SampleFirst sampler over the raw dataset. dev
// charges a page access per inspected record (records are perPage to a
// simulated page); nil or iosim.Discard skips accounting.
func NewSampleFirst(ds *data.Dataset, q geo.Rect, mode Mode, rng *stats.RNG, dev iosim.Accountant, perPage int) *SampleFirst {
	if perPage <= 0 {
		perPage = 64
	}
	s := &SampleFirst{
		ds: ds, query: q, mode: mode, rng: rng, batch: iosim.NewBatcher(dev), perPage: perPage,
		MaxAttempts: 200 * ds.Len(),
	}
	if mode == WithoutReplacement {
		s.seen = NewIDSet(ds.Len())
	}
	return s
}

// Name implements Sampler.
func (s *SampleFirst) Name() string { return "SampleFirst" }

// Close implements Sampler; SampleFirst holds nothing to release.
func (s *SampleFirst) Close() error { return nil }

// Rest implements Sampler; SampleFirst draws from the raw store and holds
// no rest, so it refuses.
func (s *SampleFirst) Rest(dst []data.Entry, _ int) ([]data.Entry, bool) { return dst, false }

// Attempts returns the total number of records inspected so far.
func (s *SampleFirst) Attempts() uint64 { return s.attempts }

// SamplerStats implements Sampler: every attempt that did not become a
// returned sample is a rejection of the whole-dataset loop; Explosions
// counts a degradation to the filtered scan, Scans the scan itself.
func (s *SampleFirst) SamplerStats() SamplerStats {
	st := SamplerStats{
		Draws:      s.draws,
		Rejects:    s.attempts - s.accepted,
		Explosions: s.explosions,
	}
	if s.scanned {
		st.Scans = 1
	}
	return st
}

// NextBatch implements Sampler. Page charges for the whole pull are
// coalesced into run-length batches, taking the device lock once per flush
// instead of once per inspected record.
func (s *SampleFirst) NextBatch(dst []data.Entry, k int) int {
	if k > len(dst) {
		k = len(dst)
	}
	if k <= 0 {
		return 0
	}
	got := 0
	for got < k {
		e, ok := s.next()
		if !ok {
			break
		}
		dst[got] = e
		got++
	}
	s.batch.Flush()
	return got
}

// next is the per-draw body: the rejection loop for one accepted sample.
func (s *SampleFirst) next() (data.Entry, bool) {
	n := s.ds.Len()
	if n == 0 {
		return data.Entry{}, false
	}
	if s.scanned {
		return s.scanNext()
	}
	for tries := 0; tries < s.MaxAttempts; tries++ {
		s.attempts++
		id := data.ID(s.rng.Intn(n))
		s.batch.Access(iosim.PageID(uint64(id) / uint64(s.perPage)))
		pos := s.ds.Pos(id)
		if !s.query.Contains(pos) {
			continue
		}
		if s.Pred != nil && !s.Pred.Match(id) {
			continue
		}
		if s.Filter != nil && !s.Filter(id) {
			continue
		}
		if s.mode == WithoutReplacement {
			if s.seen.Contains(id) {
				continue
			}
			s.seen.Add(id)
		}
		s.accepted++
		s.draws++
		return data.Entry{ID: id, Pos: pos}, true
	}
	return s.scanNext()
}

// scanNext degrades to the filtered-scan fallback: when the rejection loop
// exhausts its attempt budget (vanishingly selective query-and-predicate
// combinations, or a without-replacement stream near exhaustion), one full
// scan — every data page charged once — collects the still-unserved
// matching records, and subsequent draws come from them. The incremental
// Fisher–Yates over the remainder is an exact uniform continuation of the
// without-replacement stream; with-replacement draws pick uniformly from
// the matching set. This trades one O(N/B) scan for a stream that cannot
// come back short while qualifying records remain.
func (s *SampleFirst) scanNext() (data.Entry, bool) {
	if !s.scanned {
		s.scanned = true
		s.explosions++
		n := s.ds.Len()
		for p := 0; p <= (n-1)/s.perPage; p++ {
			s.batch.Access(iosim.PageID(p))
		}
		for i := 0; i < n; i++ {
			id := data.ID(i)
			pos := s.ds.Pos(id)
			if !s.query.Contains(pos) {
				continue
			}
			if s.Pred != nil && !s.Pred.Match(id) {
				continue
			}
			if s.Filter != nil && !s.Filter(id) {
				continue
			}
			if s.mode == WithoutReplacement && s.seen.Contains(id) {
				continue
			}
			s.pending = append(s.pending, data.Entry{ID: id, Pos: pos})
		}
	}
	m := len(s.pending)
	if s.mode == WithReplacement {
		if m == 0 {
			return data.Entry{}, false
		}
		s.draws++
		return s.pending[s.rng.Intn(m)], true
	}
	if s.cursor >= m {
		return data.Entry{}, false
	}
	j := s.cursor + s.rng.Intn(m-s.cursor)
	s.pending[s.cursor], s.pending[j] = s.pending[j], s.pending[s.cursor]
	e := s.pending[s.cursor]
	s.cursor++
	s.seen.Add(e.ID)
	s.draws++
	return e, true
}

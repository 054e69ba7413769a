// Package lstree implements STORM's first sampling index, the LS-tree
// ("level sampling").
//
// The index maintains a geometric hierarchy of coin-flip samples
// P_0 ⊇ P_1 ⊇ … ⊇ P_ℓ where P_0 = P and each P_{i+1} keeps every element
// of P_i independently with probability ½, stopping once the top level is
// small. A Hilbert R-tree T_i (package rtree, the tree under every index)
// is built over each level, its keys quantized over the level's own MBR;
// the total size is O(N) because level sizes form a geometric series.
//
// A query runs plain range reporting on T_ℓ first: because level membership
// is independent of identity, the matching records at level i form a
// probability-(1/2^i) coin-flip sample of P ∩ Q. Those records are emitted
// in random order; when level i is exhausted the sampler falls through to
// level i−1, skipping records it has already reported (P_{i+1} ⊆ P_i).
// After level 0 the stream has reported exactly P ∩ Q, so online
// aggregation over it converges to the exact answer.
//
// The expected cost of drawing k samples is O(k) reported records plus the
// range-reporting overhead of the levels above log(q/k) — and because each
// level is scanned by an ordinary range query, the I/O pattern is
// sequential: O(k/B) page reads rather than RandomPath's Ω(k).
//
// # Concurrency
//
// The level trees are shared and read-only on the query path; everything a
// query mutates (the per-level pending list, its permutation cursor, the
// cross-level dedup set) lives in the Sampler, so any number of Samplers
// may run concurrently against one Index. InsertBatch and Delete mutate the
// level trees and the index's structural RNG and must be serialized
// against in-flight samplers by the caller (package engine uses a
// per-dataset RWMutex). Each individual Sampler is single-goroutine.
package lstree

import (
	"fmt"

	"storm/internal/data"
	"storm/internal/geo"
	"storm/internal/iosim"
	"storm/internal/pred"
	"storm/internal/rtree"
	"storm/internal/sampling"
	"storm/internal/stats"
)

// DefaultTopLevelMax is the default size threshold at which the level
// hierarchy stops: the topmost level has at most this many records.
const DefaultTopLevelMax = 1024

// Config controls LS-tree construction.
type Config struct {
	// Fanout is the per-level R-tree fanout; 0 means rtree.DefaultFanout.
	Fanout int
	// Device charges page accesses across all levels; nil disables.
	Device iosim.Accountant
	// TopLevelMax stops level creation once a level is this small;
	// 0 means DefaultTopLevelMax.
	TopLevelMax int
	// Seed drives the coin flips that assign records to levels.
	Seed int64
	// Attrs, when non-nil (typically the backing *data.Dataset), enables
	// per-level attribute summaries so predicate queries (SamplerWhere,
	// CountWhere) can prune level subtrees by digest. Without it,
	// predicates still filter records but nothing is pruned.
	Attrs rtree.AttrSource
}

// Index is an LS-tree over a point set. Queries (Samplers, Count) may run
// concurrently; InsertBatch and Delete require exclusive access.
type Index struct {
	cfg    Config
	levels []*rtree.Tree // levels[0] indexes all of P
	// sums holds one attribute-summary maintainer per level (parallel to
	// levels) when Config.Attrs is set; nil otherwise. Built eagerly on
	// the write path (Build/grow) so the query path never appends.
	sums []*rtree.Summaries
	// rng drives structural randomness (level coin flips); it is touched
	// only by Build/InsertBatch/grow, which run under the caller's write
	// lock, never by queries.
	rng  *stats.RNG
	size int
}

// Build constructs an LS-tree over the given entries, which it does not
// retain. Level 0 is the input itself, so its STR sort — the longest —
// starts at once and the coin flips are drawn beside it; they read the
// unsorted lists, on one goroutine, so the structural RNG advances exactly
// as it would if each level were built before the next was drawn. The
// level trees are then packed bottom-up, each taking its sorted list over,
// so a shared device sees level 0's page writes, then level 1's, and so on.
func Build(entries []data.Entry, cfg Config) (*Index, error) {
	if cfg.Fanout == 0 {
		cfg.Fanout = rtree.DefaultFanout
	}
	if cfg.Device == nil {
		cfg.Device = iosim.Discard
	}
	if cfg.TopLevelMax == 0 {
		cfg.TopLevelMax = DefaultTopLevelMax
	}
	if cfg.TopLevelMax < 1 {
		return nil, fmt.Errorf("lstree: TopLevelMax must be positive")
	}
	idx := &Index{cfg: cfg, rng: stats.NewRNG(cfg.Seed), size: len(entries)}
	level0 := make(chan []data.Entry, 1)
	go func() { level0 <- rtree.STROrder(cfg.Fanout, entries)[0] }()
	var upper [][]data.Entry
	for level := entries; len(level) > cfg.TopLevelMax; {
		next := make([]data.Entry, 0, len(level)/2+16)
		for _, e := range level {
			if idx.rng.Bernoulli(0.5) {
				next = append(next, e)
			}
		}
		upper = append(upper, next)
		level = next
	}
	// Sorted before level 0 is waited for, not inside the append below:
	// operands evaluate left to right and the receive would block first.
	sortedUpper := rtree.STROrder(cfg.Fanout, upper...)
	for _, level := range append([][]data.Entry{<-level0}, sortedUpper...) {
		t, err := rtree.New(rtree.Config{Fanout: cfg.Fanout, Device: cfg.Device})
		if err != nil {
			return nil, fmt.Errorf("lstree: %w", err)
		}
		t.Pack(level)
		idx.levels = append(idx.levels, t)
		idx.addSummaries(t)
	}
	return idx, nil
}

// Levels returns the number of levels (ℓ + 1).
func (x *Index) Levels() int { return len(x.levels) }

// Level returns the R-tree at level i; level 0 indexes all of P. Exposed
// for tests and for the benchmark harness's structural reports.
func (x *Index) Level(i int) *rtree.Tree { return x.levels[i] }

// Len returns the number of indexed records (level-0 size).
func (x *Index) Len() int { return x.size }

// InsertBatch adds records, one or many. Each record, in input order,
// draws L from a Geometric(½) distribution and joins levels 0..L,
// preserving the coin-flip invariant that each level-i record appears at
// level i+1 with independent probability ½; each level takes its share in
// one rtree.Tree.InsertBatch. When sustained inserts push the top level
// past twice the construction threshold, new levels are grown above it
// (each top-level record kept with an independent ½ coin flip), so query
// cost stays logarithmic as the data set grows. The entries slice is
// reordered in place.
func (x *Index) InsertBatch(entries []data.Entry) {
	tops := make([]int, len(entries))
	for i := range tops {
		tops[i] = min(x.rng.Geometric(0.5), len(x.levels)-1)
	}
	// Move the records that reach each level to the front, level by level,
	// so that ends[i] records reach level i and they are a prefix. Levels
	// then insert from the top down: a level's InsertBatch reorders only
	// its own prefix, which is part of every prefix below.
	ends := []int{len(entries)}
	for lvl := 1; lvl < len(x.levels); lvl++ {
		k := 0
		for i := range ends[lvl-1] {
			if tops[i] >= lvl {
				entries[i], entries[k] = entries[k], entries[i]
				tops[i], tops[k] = tops[k], tops[i]
				k++
			}
		}
		if k == 0 {
			break
		}
		ends = append(ends, k)
	}
	for lvl := len(ends) - 1; lvl >= 0; lvl-- {
		x.levels[lvl].InsertBatch(entries[:ends[lvl]])
	}
	x.size += len(entries)
	for x.levels[len(x.levels)-1].Len() > 2*x.cfg.TopLevelMax {
		x.grow()
	}
}

// grow adds a level above the current top, which has outgrown the
// threshold. The new level samples the top level with independent coin
// flips, which is exactly the distribution the level would have had at
// build time. Its tree is built by one InsertBatch, keyed over the top
// level's box: the even splits fill it as densely as a pack would, and
// unlike Pack's greedy grouping they never leave an internal node with a
// single child.
func (x *Index) grow() {
	topTree := x.levels[len(x.levels)-1]
	universe := topTree.Bounds()
	next := make([]data.Entry, 0, topTree.Len()/2+16)
	topTree.Search(universe, func(e data.Entry) bool {
		if x.rng.Bernoulli(0.5) {
			next = append(next, e)
		}
		return true
	})
	t, err := rtree.New(rtree.Config{Fanout: x.cfg.Fanout, Device: x.cfg.Device, Bounds: universe})
	if err != nil {
		// Config was validated at Build; growth never changes it.
		panic(fmt.Sprintf("lstree: growing level: %v", err))
	}
	t.InsertBatch(next)
	x.levels = append(x.levels, t)
	x.addSummaries(t)
}

// addSummaries attaches an attribute-summary maintainer to a freshly built
// level tree when summaries are enabled. Runs on the write path only, so
// concurrent queries never observe sums growing.
func (x *Index) addSummaries(t *rtree.Tree) {
	if x.cfg.Attrs == nil {
		return
	}
	s := rtree.NewSummaries(t, x.cfg.Attrs)
	s.Precompute()
	x.sums = append(x.sums, s)
}

// Delete removes a record from every level that contains it. It returns
// true if the record existed at level 0.
func (x *Index) Delete(e data.Entry) bool {
	if !x.levels[0].Delete(e) {
		return false
	}
	for i := 1; i < len(x.levels); i++ {
		if !x.levels[i].Delete(e) {
			break // levels are nested: absent here means absent above
		}
	}
	x.size--
	return true
}

// Sampler returns a without-replacement online sampler for q. Samples are
// drawn level-by-level as described in the package comment. rng drives the
// per-level permutations and is independent of the index's structural
// randomness, so a fixed rng seed reproduces the same stream regardless of
// concurrent queries. Samplers of the same Index may run concurrently.
func (x *Index) Sampler(q geo.Rect, rng *stats.RNG) *Sampler {
	return x.SamplerWhere(q, rng, nil, nil)
}

// SamplerWhere returns a without-replacement online sampler for q
// restricted to records satisfying c. Level membership is independent of
// attribute values, so each level's predicate-filtered matches remain a
// coin-flip sample of the qualifying records and the level-by-level stream
// stays exactly uniform over them. When summaries are enabled, each level
// scan prunes subtrees by digest. Page charges go to acct (typically an
// iosim.Counter forwarding to the shared device, for race-free per-query
// I/O accounting), or to the index's device when acct is nil. A nil
// predicate and a nil acct is exactly Sampler.
func (x *Index) SamplerWhere(q geo.Rect, rng *stats.RNG, c *pred.Compiled, acct iosim.Accountant) *Sampler {
	if acct == nil {
		acct = x.cfg.Device
	}
	s := &Sampler{
		index: x,
		query: q,
		rng:   rng,
		batch: iosim.NewBatcher(acct),
		level: len(x.levels),
		seen:  sampling.NewIDSet(x.size),
	}
	if c != nil {
		s.filters = make([]*rtree.TreeFilter, len(x.levels))
		for i := range x.levels {
			var sums *rtree.Summaries
			if x.sums != nil {
				sums = x.sums[i]
			}
			s.filters[i] = rtree.NewTreeFilter(c, sums)
		}
	}
	return s
}

// Sampler is the LS-tree's online sample stream for one query. It
// implements sampling.Sampler. All mutable query state is local to the
// Sampler; the level trees are only read.
type Sampler struct {
	index *Index
	query geo.Rect
	rng   *stats.RNG
	batch *iosim.Batcher // coalesces a pull's level-scan charges; NextBatch flushes it
	level int            // next level to scan (counts down); len(levels) before start
	// filters holds one predicate filter per level (parallel to the
	// index's levels); nil when the query has no predicate.
	filters []*rtree.TreeFilter
	// pending holds the current level's unreported matches; the prefix
	// [0, cursor) has been emitted.
	pending []data.Entry
	cursor  int
	seen    *sampling.IDSet

	// instrumentation (single-goroutine, flushed by consumers at batch
	// boundaries — see sampling.SamplerStats)
	draws   uint64
	rejects uint64
	scans   uint64
}

var _ sampling.Sampler = (*Sampler)(nil)

// Name implements sampling.Sampler.
func (s *Sampler) Name() string { return "LS-tree" }

// Close implements sampling.Sampler; the LS-tree sampler holds nothing to
// release.
func (s *Sampler) Close() error { return nil }

// NextBatch implements sampling.Sampler. The range-report page charges of
// any level scans the pull triggers are coalesced through a run-length
// batcher (one device lock per flush).
func (s *Sampler) NextBatch(dst []data.Entry, k int) int {
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

// next is the per-draw body. The i-th call returns the i-th element of an
// online without-replacement sample of P ∩ Q; ok is false once all
// matching records have been reported.
func (s *Sampler) next() (data.Entry, bool) {
	for {
		if s.cursor < len(s.pending) {
			// Incremental Fisher–Yates within the level.
			j := s.cursor + s.rng.Intn(len(s.pending)-s.cursor)
			s.pending[s.cursor], s.pending[j] = s.pending[j], s.pending[s.cursor]
			e := s.pending[s.cursor]
			s.cursor++
			if s.seen.Contains(e.ID) {
				s.rejects++
				continue
			}
			s.seen.Add(e.ID)
			s.draws++
			return e, true
		}
		if s.level == 0 {
			return data.Entry{}, false
		}
		s.level--
		var f *rtree.TreeFilter
		if s.filters != nil {
			f = s.filters[s.level]
		}
		s.pending = s.index.levels[s.level].ReportAllWhereTo(s.batch, s.query, f)
		s.cursor = 0
		s.scans++
	}
}

// SamplerStats implements sampling.Sampler: Rejects counts
// duplicate suppressions (records already emitted from a higher level)
// and Scans counts level range-reports performed so far.
func (s *Sampler) SamplerStats() sampling.SamplerStats {
	st := sampling.SamplerStats{Draws: s.draws, Rejects: s.rejects, Scans: s.scans}
	for _, f := range s.filters {
		st.Pruned += f.Pruned
	}
	return st
}

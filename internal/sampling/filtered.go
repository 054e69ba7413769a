package sampling

import (
	"storm/internal/data"
	"storm/internal/pred"
)

// Filtered is the rejection baseline for attribute predicates: it wraps any
// inner Sampler and discards draws that fail a compiled predicate. The
// inner stream is uniform over P ∩ Q, so the accepted stream is uniform
// over the qualifying records — at the cost of 1/selectivity inner draws
// per accepted sample. The planner picks this strategy for high-selectivity
// predicates where pruned descent cannot beat plain sampling; pushdown is
// the alternative for selective ones.
//
// Rejections are counted in the wrapper and surface through SamplerStats
// (merged with the inner sampler's counters), feeding the engine's
// reject_ratio. Close closes the inner sampler.
type Filtered struct {
	inner Sampler
	pred  *pred.Compiled
	// MaxAttempts bounds the inner draws one NextBatch call spends so a
	// with-replacement inner stream (infinite by contract) cannot spin
	// forever on a predicate with no qualifying records. Defaults to 2²².
	MaxAttempts int
	rejects     uint64
	buf         []data.Entry // inner pulls land here before filtering
}

// NewFiltered wraps inner so only records matching c are emitted. c must be
// non-nil; use the inner sampler directly when there is no predicate.
func NewFiltered(inner Sampler, c *pred.Compiled) *Filtered {
	return &Filtered{inner: inner, pred: c, MaxAttempts: 1 << 22}
}

// Name implements Sampler.
func (s *Filtered) Name() string { return s.inner.Name() + "+reject" }

// Close implements Sampler by closing the inner sampler.
func (s *Filtered) Close() error { return s.inner.Close() }

// NextBatch implements Sampler: inner pulls sized by what is still missing
// are filtered into dst. The inner stream's chunking invariance plus
// deterministic filtering makes the accepted stream chunking-invariant too.
func (s *Filtered) NextBatch(dst []data.Entry, k int) int {
	if k > len(dst) {
		k = len(dst)
	}
	if k <= 0 {
		return 0
	}
	if cap(s.buf) < k {
		s.buf = make([]data.Entry, k)
	}
	got, attempts := 0, 0
	for got < k {
		want := k - got
		n := s.inner.NextBatch(s.buf[:want], want)
		for _, e := range s.buf[:n] {
			if s.pred.Match(e.ID) {
				dst[got] = e
				got++
			} else {
				s.rejects++
			}
		}
		if n < want {
			break // inner stream exhausted
		}
		attempts += want
		if s.MaxAttempts > 0 && attempts >= s.MaxAttempts {
			break
		}
	}
	return got
}

// Rest implements Sampler by filtering the inner sampler's rest. max caps
// the inner rest, which the predicate only shrinks.
func (s *Filtered) Rest(dst []data.Entry, max int) ([]data.Entry, bool) {
	n := len(dst)
	dst, ok := s.inner.Rest(dst, max)
	if !ok {
		return dst, false
	}
	kept := dst[:n]
	for _, e := range dst[n:] {
		if s.pred.Match(e.ID) {
			kept = append(kept, e)
		}
	}
	return kept, true
}

// SamplerStats implements Sampler, merging the inner sampler's counters with
// the wrapper's rejections. Draws stay the inner sampler's — reject_ratio
// then reads "rejections per inner draw", which is exactly the
// rejection-sampling overhead.
func (s *Filtered) SamplerStats() SamplerStats {
	st := s.inner.SamplerStats()
	st.Rejects += s.rejects
	return st
}

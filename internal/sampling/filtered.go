package sampling

import (
	"storm/internal/data"
	"storm/internal/iosim"
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
// reject_ratio. Filtered forwards AttributeIO and Close to the inner
// sampler when it supports them.
type Filtered struct {
	inner Sampler
	pred  *pred.Compiled
	// MaxAttempts bounds the inner draws one NextBatch call spends so a
	// with-replacement inner stream (infinite by contract) cannot spin
	// forever on a predicate with no qualifying records. Defaults to 2²².
	MaxAttempts int
	draws       uint64
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

// AttributeIO forwards per-query I/O attribution to the inner sampler.
func (s *Filtered) AttributeIO(a iosim.Accountant) {
	if x, ok := s.inner.(interface{ AttributeIO(iosim.Accountant) }); ok {
		x.AttributeIO(a)
	}
}

// Close releases the inner sampler's resources when it holds any.
func (s *Filtered) Close() error {
	if c, ok := s.inner.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}

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
				s.draws++
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

// SamplerStats implements StatsReporter, merging the inner sampler's
// counters (when it reports any) with the wrapper's rejections. Draws stay
// the inner sampler's — reject_ratio then reads "rejections per inner
// draw", which is exactly the rejection-sampling overhead.
func (s *Filtered) SamplerStats() SamplerStats {
	var st SamplerStats
	if r, ok := s.inner.(StatsReporter); ok {
		st = r.SamplerStats()
	}
	st.Rejects += s.rejects
	return st
}

// Accepted returns how many samples passed the predicate.
func (s *Filtered) Accepted() uint64 { return s.draws }

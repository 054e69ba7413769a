package sampling

import (
	"slices"

	"storm/internal/data"
	"storm/internal/stats"
)

// Mode selects between sampling with and without replacement. Every
// sampler draws without replacement; WithReplacementOf turns any such
// stream into a with-replacement one.
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

// replacing is the with-replacement stream WithReplacementOf builds.
type replacing struct {
	inner Sampler
	q     int
	rng   *stats.RNG
	// seen holds the distinct records emitted so far, in first-emission
	// order; pick is the per-pull scratch of the seen index each slot takes.
	seen  []data.Entry
	pick  []int
	draws uint64
}

// WithReplacementOf returns the with-replacement stream over inner, a
// without-replacement stream of exactly q records. With d distinct records
// emitted so far, each draw repeats a uniformly chosen one of them with
// probability d/q and otherwise takes inner's next record. An emitted
// record is then drawn with probability (d/q)(1/d) = 1/q and an unseen one
// with ((q−d)/q)(1/(q−d)) = 1/q: every draw is uniform over the q records
// and independent of the draws before it.
//
// rng draws the repeat choices only. Seed it with stats.MixSeed of inner's
// seed: inner's own RNG, or one seeded equally, would tie the choices to
// inner's draws. q = 0 delivers nothing; a stream
// whose inner runs dry before q records ends there. Close closes inner.
func WithReplacementOf(inner Sampler, q int, rng *stats.RNG) Sampler {
	return &replacing{inner: inner, q: q, rng: rng}
}

// Name implements Sampler: the stream is inner's method's.
func (s *replacing) Name() string { return s.inner.Name() }

// Close implements Sampler by closing inner.
func (s *replacing) Close() error { return s.inner.Close() }

// SamplerStats implements Sampler: inner's counters, with Draws counting
// every delivered sample, repeats included.
func (s *replacing) SamplerStats() SamplerStats {
	st := s.inner.SamplerStats()
	st.Draws = s.draws
	return st
}

// NextBatch implements Sampler. One Intn(q) per slot is both the coin and
// the pick: r < d repeats seen[r], anything else is the next new record.
// Every slot's choice is made before inner is pulled, so d's path depends
// on the choices alone and the m new records come from one inner pull of
// m: the stream is the same however the pulls are sized.
func (s *replacing) NextBatch(dst []data.Entry, k int) int {
	k = min(k, len(dst))
	if k <= 0 || s.q <= 0 {
		return 0
	}
	if cap(s.pick) < k {
		s.pick = make([]int, k)
	}
	pick := s.pick[:k]
	have := len(s.seen)
	d := have
	for i := range pick {
		r := s.rng.Intn(s.q)
		if r >= d {
			r = d
			d++
		}
		pick[i] = r
	}
	if m := d - have; m > 0 {
		s.seen = slices.Grow(s.seen, m)
		s.seen = s.seen[:have+s.inner.NextBatch(s.seen[have:have+m], m)]
	}
	for i, r := range pick {
		if r >= len(s.seen) {
			// inner held fewer than q records: the stream ends here.
			s.q, k = 0, i
			break
		}
		dst[i] = s.seen[r]
	}
	s.draws += uint64(k)
	return k
}

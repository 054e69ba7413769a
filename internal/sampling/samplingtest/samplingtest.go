// Package samplingtest holds what every sampling.Sampler implementation's
// tests share: the one-sample pull Next, and the chunking-invariance check
// (a seeded stream must come out the same however the pulls are sized).
package samplingtest

import (
	"fmt"
	"math"
	"testing"

	"storm/internal/data"
)

// Drawer is the draw half of sampling.Sampler, restated so that package
// sampling's in-package tests can import this package without a cycle.
type Drawer interface {
	NextBatch(dst []data.Entry, k int) int
}

// Next draws one sample — the k = 1 pull — for tests that consume a stream
// record by record; ok is false once the stream is exhausted.
func Next(s Drawer) (e data.Entry, ok bool) {
	var one [1]data.Entry
	n := s.NextBatch(one[:], 1)
	return one[0], n == 1
}

// Drain pulls from s with the cyclic size pattern and returns the IDs in
// stream order, stopping at the first short pull or after limit samples
// (limit < 0 drains the stream).
func Drain(s Drawer, sizes []int, limit int) []data.ID {
	var out []data.ID
	var buf []data.Entry
	for i := 0; limit < 0 || len(out) < limit; i++ {
		k := sizes[i%len(sizes)]
		if limit >= 0 && k > limit-len(out) {
			k = limit - len(out)
		}
		if len(buf) < k {
			buf = make([]data.Entry, k)
		}
		n := s.NextBatch(buf, k)
		for _, e := range buf[:n] {
			out = append(out, e.ID)
		}
		if n < k {
			break
		}
	}
	return out
}

// SameStream fails the test unless the two streams are identical: same
// length, same IDs in the same order.
func SameStream(t testing.TB, label string, want, got []data.ID) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: stream lengths differ: %d vs %d", label, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: streams diverge at %d: ID %d vs %d", label, i, want[i], got[i])
		}
	}
}

// ChunkingInvariant checks the Sampler stream contract: the stream a fresh
// sampler from mk yields one sample per pull must be reproduced under every
// given cyclic pull-size pattern. It returns the reference stream.
func ChunkingInvariant(t testing.TB, label string, mk func() Drawer, limit int, patterns ...[]int) []data.ID {
	t.Helper()
	want := Drain(mk(), []int{1}, limit)
	if len(want) == 0 {
		t.Fatalf("%s: empty reference stream", label)
	}
	for _, sizes := range patterns {
		SameStream(t, fmt.Sprintf("%s pulls %v", label, sizes), want, Drain(mk(), sizes, limit))
	}
	return want
}

// Rester is a Drawer with the Sampler's exact finish.
type Rester interface {
	Drawer
	Rest(dst []data.Entry, max int) ([]data.Entry, bool)
}

// RestInvariant checks the Sampler contract of Rest on fresh samplers from
// mk, whose stream qualifies exactly the IDs in want (the brute-force set).
// After each prefix of pulls (sized by the cyclic pattern sizes), with left
// the records the stream has yet to emit:
//   - Rest capped at left−1 refuses;
//   - Rest capped at left, and if that refuses Rest uncapped, either
//     refuses or returns the rest: the drawn IDs plus the rest are want,
//     with no duplicate, and the stream is over;
//   - after every refusal the stream goes on exactly as a twin's that
//     never called Rest.
//
// It returns how many prefixes ended in a Rest accepted at the cap left
// (atLeft) and how many only uncapped (uncapped): a sampler that counts its
// rest exactly has no uncapped acceptances.
func RestInvariant(t testing.TB, label string, mk func() Rester, want []data.ID, sizes []int, prefixes ...int) (atLeft, uncapped int) {
	t.Helper()
	qualifies := make(map[data.ID]bool, len(want))
	for _, id := range want {
		qualifies[id] = true
	}
	for _, p := range prefixes {
		name := fmt.Sprintf("%s prefix %d", label, p)
		twin := mk()
		drawn := Drain(twin, sizes, p)
		after := Drain(twin, sizes, -1)
		left := len(want) - len(drawn)
		if left != len(after) {
			t.Fatalf("%s: %d drawn and %d after, population %d", name, len(drawn), len(after), len(want))
		}
		// rest calls Rest after the prefix on a fresh sampler; a refusal
		// must leave dst and the stream untouched.
		rest := func(max int) ([]data.Entry, bool) {
			t.Helper()
			s := mk()
			Drain(s, sizes, p)
			dst := make([]data.Entry, 1, 4)
			got, ok := s.Rest(dst, max)
			if ok {
				if n := len(Drain(s, []int{4}, -1)); n != 0 {
					t.Fatalf("%s: stream yielded %d more after an accepted Rest", name, n)
				}
				return got[1:], true
			}
			if len(got) != 1 {
				t.Fatalf("%s: refused Rest changed dst to length %d", name, len(got))
			}
			SameStream(t, fmt.Sprintf("%s after a refused Rest(max %d)", name, max), after, Drain(s, sizes, -1))
			return nil, false
		}
		if left > 0 {
			if got, ok := rest(left - 1); ok {
				t.Fatalf("%s: Rest(max %d) accepted %d records", name, left-1, len(got))
			}
		}
		got, ok := rest(left)
		if ok {
			atLeft++
		} else if got, ok = rest(math.MaxInt); ok {
			uncapped++
		} else {
			continue
		}
		seen := make(map[data.ID]bool, len(want))
		for _, id := range drawn {
			seen[id] = true
		}
		for _, e := range got {
			if !qualifies[e.ID] {
				t.Fatalf("%s: rest holds non-qualifying ID %d", name, e.ID)
			}
			if seen[e.ID] {
				t.Fatalf("%s: rest repeats ID %d", name, e.ID)
			}
			seen[e.ID] = true
		}
		if len(drawn)+len(got) != len(want) {
			t.Fatalf("%s: %d drawn + %d rest, population %d", name, len(drawn), len(got), len(want))
		}
	}
	return atLeft, uncapped
}

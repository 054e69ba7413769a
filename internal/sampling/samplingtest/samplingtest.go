// Package samplingtest holds what every sampling.Sampler implementation's
// tests share: the one-sample pull Next, and the chunking-invariance check
// (a seeded stream must come out the same however the pulls are sized).
package samplingtest

import (
	"fmt"
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

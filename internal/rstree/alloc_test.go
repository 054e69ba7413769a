//go:build !race

// The race detector makes sync.Pool drop a share of what is put back, so
// allocation counts through a pool are only meaningful without it.

package rstree

import (
	"slices"
	"testing"

	"storm/internal/iosim"
)

// TestRegenerateAllocatesNoRNG regenerates a leaf buffer the way bufferFor
// does for a stale one (generate at the node's current version) and counts
// allocations: the buffer's entries and its header, nothing else — the RNG
// comes from rngPool, reseeded, not from a fresh 5 KB source (which made it
// five), and SetAux stores the pointer without boxing it. The regenerated buffer must
// be the one Build published: same seed, same draws.
func TestRegenerateAllocatesNoRNG(t *testing.T) {
	idx, err := Build(genEntries(5000, 1), Config{Fanout: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	leaf := idx.Tree().Root()
	for !leaf.IsLeaf() {
		leaf = leaf.Children()[0]
	}
	built := slices.Clone(idx.StoredBuffer(leaf))
	if got := idx.generate(leaf, iosim.Discard); !slices.Equal(got, built) {
		t.Fatal("regenerated leaf buffer differs from the one Build published")
	}
	if n := testing.AllocsPerRun(100, func() { idx.generate(leaf, iosim.Discard) }); n > 2 {
		t.Fatalf("regenerating a leaf buffer allocates %v times, want 2 (entries, header)", n)
	}
}

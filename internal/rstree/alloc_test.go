//go:build !race

// The race detector makes sync.Pool drop a share of what is put back, so
// allocation counts through a pool are only meaningful without it.

package rstree

import (
	"slices"
	"testing"

	"storm/internal/data"
	"storm/internal/iosim"
)

// TestRegenerateAllocations regenerates a stale internal buffer the way
// bufferFor does (generate at the node's current version) and counts
// allocations: the buffer's entries, its header and the 32-byte RNG seeded
// for it, nothing else — positions come from intPool, and SetAux stores the
// pointer without boxing it. Before the insert that stales it, regenerating
// must give the buffer Build published: same seed, same draws.
func TestRegenerateAllocations(t *testing.T) {
	idx, err := Build(genEntries(5000, 1), Config{Fanout: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	n := idx.Tree().Root()
	for !n.Children()[0].IsLeaf() {
		n = n.Children()[0]
	}
	built := slices.Clone(idx.StoredBuffer(n))
	if got := idx.generate(n, iosim.Discard); len(built) == 0 || !slices.Equal(got, built) {
		t.Fatal("regenerated internal buffer differs from the one Build published")
	}
	idx.InsertBatch([]data.Entry{{ID: 90_000, Pos: n.Children()[0].Entries()[0].Pos}})
	if idx.StoredBuffer(n) != nil {
		t.Fatal("an insert below the node left its buffer current")
	}
	if n := testing.AllocsPerRun(100, func() { idx.generate(n, iosim.Discard) }); n > 3 {
		t.Fatalf("regenerating an internal buffer allocates %v times, want 3 (entries, header, RNG)", n)
	}
}

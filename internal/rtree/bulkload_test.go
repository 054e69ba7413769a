package rtree

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"testing"

	"storm/internal/data"
	"storm/internal/geo"
)

// byCoordID is the order every STR pass must give: by coordinate axis,
// compared as its floatImage, then by record ID.
func byCoordID(axis int) func(a, b data.Entry) int {
	return func(a, b data.Entry) int {
		if c := cmp.Compare(floatImage(a.Pos[axis]), floatImage(b.Pos[axis])); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	}
}

// referenceSTR is the in-place, one-list-at-a-time STR sort bulk loads used
// before the sort/pack split, each pass a full slices.SortFunc over the
// entries by (coordinate, ID), kept as the oracle STROrder must reproduce
// exactly, ties, signed zeros, infinities and NaNs included.
func referenceSTR(entries []data.Entry, fanout int) {
	n := len(entries)
	leaves := (n + fanout - 1) / fanout
	s := int(math.Ceil(math.Cbrt(float64(leaves))))
	if s < 1 {
		s = 1
	}
	slices.SortFunc(entries, byCoordID(0))
	slabSize := s * s * fanout
	for lo := 0; lo < n; lo += slabSize {
		slab := entries[lo:min(lo+slabSize, n)]
		slices.SortFunc(slab, byCoordID(1))
		runSize := s * fanout
		for rlo := 0; rlo < len(slab); rlo += runSize {
			slices.SortFunc(slab[rlo:min(rlo+runSize, len(slab))], byCoordID(2))
		}
	}
}

// tiedEntries collide on every axis: a coarse integer grid with each fourth
// entry an exact duplicate of an earlier position.
func tiedEntries(n int) []data.Entry {
	out := make([]data.Entry, n)
	state := uint64(12345)
	next := func(mod uint64) uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return (state >> 33) % mod
	}
	for i := range out {
		pos := geo.Vec{float64(next(12)), float64(next(12)), float64(next(30))}
		if i%4 == 3 {
			pos = out[next(uint64(i))].Pos
		}
		out[i] = data.Entry{ID: data.ID(i), Pos: pos}
	}
	return out
}

// TestSTROrderMatchesReference sorts several lists in one concurrent call
// and checks each against the serial oracle, that inputs are left alone, and
// that trees packed from one result share nothing.
func TestSTROrderMatchesReference(t *testing.T) {
	lists := [][]data.Entry{
		genEntries(20_000, 1), tiedEntries(20_000), genEntries(1_000, 2),
		tiedEntries(777), genEntries(7, 3), genEntries(1, 4), nil,
	}
	for _, fanout := range []int{4, 8, 64} {
		before := make([][]data.Entry, len(lists))
		for i, l := range lists {
			before[i] = slices.Clone(l)
		}
		got := STROrder(fanout, lists...)
		for i, l := range lists {
			if !slices.Equal(l, before[i]) {
				t.Fatalf("fanout %d list %d: STROrder modified its input", fanout, i)
			}
			want := slices.Clone(l)
			referenceSTR(want, fanout)
			if !slices.Equal(got[i], want) {
				t.Errorf("fanout %d list %d (n=%d): order differs from the reference sort", fanout, i, len(l))
			}
		}

		// Two trees packed from one sorted slice own their leaves: updates
		// to one reach neither the other nor the slice (the engine packs its
		// RS-tree and LS-tree level 0 from a single sort).
		sorted := got[1]
		kept := slices.Clone(sorted)
		a, b := MustNew(Config{Fanout: fanout}), MustNew(Config{Fanout: fanout})
		a.Pack(sorted)
		b.Pack(sorted)
		want := leafIDs(b)
		for i, e := range lists[1][:500] {
			if !a.Delete(e) {
				t.Fatalf("fanout %d: delete %d failed", fanout, i)
			}
			a.InsertBatch([]data.Entry{{ID: data.ID(1_000_000 + i), Pos: e.Pos}})
		}
		if !slices.Equal(leafIDs(b), want) || !slices.Equal(sorted, kept) {
			t.Errorf("fanout %d: updating one tree disturbed its sibling or the shared sorted slice", fanout)
		}
	}
}

// leafIDs lists a tree's entry IDs in leaf order.
func leafIDs(t *Tree) []uint64 {
	var ids []uint64
	var walk func(n *Node)
	walk = func(n *Node) {
		for _, e := range n.entries {
			ids = append(ids, e.ID)
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	return ids
}

// TestMapChunks checks the chunking contract: the chunks tile [0, n) in
// order, there are at most GOMAXPROCS of them, and none is shorter than
// grain unless it is the only one.
func TestMapChunks(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	type span struct{ lo, hi int }
	for _, procs := range []int{1, 3, 8} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 255, 511, 512, 1000, 10_000} {
			for _, grain := range []int{1, 256} {
				spans := MapChunks(n, grain, func(lo, hi int) span { return span{lo, hi} })
				if len(spans) < 1 || len(spans) > procs {
					t.Fatalf("procs=%d n=%d grain=%d: %d chunks", procs, n, grain, len(spans))
				}
				if (procs == 1 || n < 2*grain) && len(spans) != 1 {
					t.Errorf("procs=%d n=%d grain=%d: want a single chunk, got %v", procs, n, grain, spans)
				}
				next := 0
				for _, s := range spans {
					if s.lo != next || s.hi < s.lo || (len(spans) > 1 && s.hi-s.lo < grain) {
						t.Fatalf("procs=%d n=%d grain=%d: bad chunks %v", procs, n, grain, spans)
					}
					next = s.hi
				}
				if next != n {
					t.Fatalf("procs=%d n=%d grain=%d: chunks end at %d", procs, n, grain, next)
				}
			}
		}
	}
}

// TestPackNoOneChildParents packs levels whose node count is 1 mod the
// fanout — leaf counts 9 and 17, or 72 leaves under 9 parents, at fanout
// 8; 65 and 129 leaves at fanout 64 — where grouping children greedily
// would leave the last parent one child, which Validate rejects.
func TestPackNoOneChildParents(t *testing.T) {
	for _, tc := range []struct{ fanout, leaves int }{
		{8, 9}, {8, 17}, {8, 72}, {8, 8*8*8 + 1}, {64, 65}, {64, 129},
	} {
		for _, n := range []int{tc.leaves * tc.fanout, tc.leaves*tc.fanout - tc.fanout + 1} {
			tree := MustNew(Config{Fanout: tc.fanout})
			tree.BulkLoad(genEntries(n, int64(n)))
			if err := tree.Validate(); err != nil {
				t.Errorf("fanout %d, %d entries: %v", tc.fanout, n, err)
			}
			if tree.Len() != n {
				t.Errorf("fanout %d, %d entries: Len = %d", tc.fanout, n, tree.Len())
			}
		}
	}
}

package rtree

import (
	"cmp"
	"fmt"
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
// that trees packed from copies of one result share nothing.
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

		// Two trees packed from one sorted order, each taking its own
		// copy over: updates to one reach neither the other nor the
		// other's list.
		sorted := got[1]
		kept := slices.Clone(sorted)
		a, b := MustNew(Config{Fanout: fanout}), MustNew(Config{Fanout: fanout})
		a.Pack(sorted)
		b.Pack(slices.Clone(sorted))
		for i, e := range lists[1][:500] {
			if !a.Delete(e) {
				t.Fatalf("fanout %d: delete %d failed", fanout, i)
			}
			a.InsertBatch([]data.Entry{{ID: data.ID(1_000_000 + i), Pos: e.Pos}})
		}
		if !slices.Equal(leafEntries(b), kept) {
			t.Errorf("fanout %d: updating one tree disturbed its sibling", fanout)
		}
	}
}

// leafEntries lists the tree's entries leaf by leaf, in tree order.
func leafEntries(t *Tree) []data.Entry {
	var out []data.Entry
	var walk func(n *Node)
	walk = func(n *Node) {
		out = append(out, n.entries...)
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	return out
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

// TestSTROrderDatasetMatchesReference sorts datasets straight from their
// columns and checks the order against referenceSTR over ds.Entries(), the
// bounds against ds.Bounds() and the ExtendPoint fold, and the latest time
// against a plain scan, bit for bit, at GOMAXPROCS 1 and 2: spread, tied
// and special-valued (±0, NaN of either sign, ±Inf) positions, at sizes 1, 63, 64 and
// 20 000, and at 70 000, where two Ps read the x pass in two chunks. A tree
// packed from the order over its bounds must be the tree BulkLoad builds
// from the entries: the same leaves, keys and MBRs.
func TestSTROrderDatasetMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	kinds := map[string]func(n int) []data.Entry{
		"spread":   func(n int) []data.Entry { return genEntries(n, int64(n)) },
		"tied":     tiedEntries,
		"specials": func(n int) []data.Entry { return specialEntries(n, int64(n)) },
		// A lone record keeps its NaN's sign bit in the bounds; two fold to
		// math.Min's NaN.
		"negative NaN": func(n int) []data.Entry {
			out := make([]data.Entry, n)
			for i := range out {
				nan := -math.NaN()
				out[i] = data.Entry{ID: data.ID(i), Pos: geo.Vec{nan, nan, nan}}
			}
			return out
		},
	}
	for name, kind := range kinds {
		for _, n := range []int{1, 63, 64, 20_000, 70_000} {
			pos := make([]geo.Vec, n)
			for i, e := range kind(n) {
				pos[i] = e.Pos
			}
			ds, err := data.FromColumns(name, pos, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			fold, latest := geo.EmptyRect(), math.NaN()
			for _, p := range pos {
				fold = fold.ExtendPoint(p)
				if !math.IsNaN(p[2]) && (math.IsNaN(latest) || p[2] > latest) {
					latest = p[2]
				}
			}
			for _, fanout := range []int{4, 8, 64} {
				want := ds.Entries()
				referenceSTR(want, fanout)
				for _, procs := range []int{1, 2} {
					runtime.GOMAXPROCS(procs)
					got := STROrderDataset(fanout, ds)
					at := fmt.Sprintf("%s n=%d fanout %d GOMAXPROCS %d", name, n, fanout, procs)
					if !sameEntries(got.Entries, want) {
						t.Fatalf("%s: order differs from the reference", at)
					}
					if !sameBounds(got.Bounds, ds.Bounds()) || !sameBounds(got.Bounds, fold) {
						t.Fatalf("%s: bounds %v, ds.Bounds() %v, ExtendPoint fold %v", at, got.Bounds, ds.Bounds(), fold)
					}
					if math.Float64bits(got.MaxT) != math.Float64bits(latest) && !(math.IsNaN(got.MaxT) && math.IsNaN(latest)) {
						t.Fatalf("%s: MaxT %v, want %v", at, got.MaxT, latest)
					}
				}
				if n > 20_000 {
					continue
				}
				packed := MustNew(Config{Fanout: fanout, Bounds: STROrderDataset(fanout, ds).Bounds})
				packed.Pack(STROrderDataset(fanout, ds).Entries)
				loaded := MustNew(Config{Fanout: fanout})
				loaded.BulkLoad(ds.Entries())
				if !sameTree(packed.Root(), loaded.Root()) {
					t.Fatalf("%s n=%d fanout %d: tree packed over the dataset order differs from BulkLoad's", name, n, fanout)
				}
			}
		}
	}
}

// sameBounds compares two rectangles bit for bit.
func sameBounds(a, b geo.Rect) bool {
	for d := 0; d < geo.Dims; d++ {
		if math.Float64bits(a.Min[d]) != math.Float64bits(b.Min[d]) || math.Float64bits(a.Max[d]) != math.Float64bits(b.Max[d]) {
			return false
		}
	}
	return true
}

// sameTree compares two subtrees' shapes, MBRs, leaf entries and key
// caches.
func sameTree(a, b *Node) bool {
	if a.leaf != b.leaf || len(a.children) != len(b.children) || !sameBounds(a.mbr, b.mbr) || a.lhv != b.lhv {
		return false
	}
	if a.leaf {
		return sameEntries(a.entries, b.entries) && slices.Equal(a.keys, b.keys)
	}
	for i := range a.children {
		if !sameTree(a.children[i], b.children[i]) {
			return false
		}
	}
	return true
}

package rtree

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"storm/internal/data"
	"storm/internal/geo"
)

// TestFloatImageOrder checks that floatImage orders every pair of a palette
// of edge values (signed zeros, infinities, subnormals, the extremes) as <
// and == order the floats themselves.
func TestFloatImageOrder(t *testing.T) {
	vals := []float64{math.Inf(-1), -math.MaxFloat64, -1, -math.SmallestNonzeroFloat64,
		math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, 1e-300, 0.5, 1, 2, math.MaxFloat64, math.Inf(1)}
	for _, a := range vals {
		for _, b := range vals {
			ia, ib := floatImage(a), floatImage(b)
			if (a < b) != (ia < ib) || (a == b) != (ia == ib) {
				t.Errorf("floatImage(%v) = %#x, floatImage(%v) = %#x: order differs from the floats'", a, ia, b, ib)
			}
		}
	}
}

// TestRadixSortStable compares radixSort with a stable comparison sort on
// keys with many ties and on keys that share all but their low bytes.
func TestRadixSortStable(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 17, 255, 256, 257, 1000, 5000} {
		for _, spread := range []uint64{1, 3, 1 << 12, math.MaxUint64} {
			x := make([]Keyed[uint64], n)
			for i := range x {
				k := r.Uint64()
				if spread != math.MaxUint64 {
					k = 0xABCD_0000_0000_0000 + k%spread
				}
				x[i] = Keyed[uint64]{Key: k, Idx: i}
			}
			want := slices.Clone(x)
			slices.SortStableFunc(want, cmpKeyed[uint64])
			radixSort(x, make([]Keyed[uint64], n))
			checkSamePermutation(t, fmt.Sprintf("spread %d", spread), "radix vs stable", x, want)
		}
	}
}

// TestSortKeyedIndexedMatchesSortKeyed gives SortKeyedIndexed every
// keyPatterns shape around and well above radixMin and demands SortKeyed's
// permutation; random 64-bit keys, distinct in practice, must take the radix
// path and all-equal keys the pinned one.
func TestSortKeyedIndexedMatchesSortKeyed(t *testing.T) {
	sortPatterns([]int{0, 1, radixMin - 1, radixMin, radixMin + 1, 5000, 100_000}, func(pattern string, _ []float64, ukeys []uint64) {
		if ukeys == nil {
			return
		}
		want := keyedOf(ukeys)
		SortKeyed(want)
		radix0, pinned0 := SortPaths()
		got := keyedOf(ukeys)
		SortKeyedIndexed(got)
		checkSamePermutation(t, "vs SortKeyed", pattern, got, want)
		radix, pinned := SortPaths()
		if len(ukeys) >= radixMin {
			if pattern == "random" && (radix != radix0+1 || pinned != pinned0) {
				t.Errorf("random n=%d: want the radix path", len(ukeys))
			}
			if pattern == "all-equal" && (radix != radix0 || pinned != pinned0+1) {
				t.Errorf("all-equal n=%d: want the pinned path", len(ukeys))
			}
		}
	})
}

// TestGroupEntries checks groupEntries against a full sort: every group
// must hold the entries the sorted order puts in it, and the grouping must
// count as unique exactly when no coordinate is NaN and no run of equal
// coordinates in the sorted order crosses a group boundary. Coordinates
// range from all equal through narrow bands (one MSD bucket) to the whole
// float line, signed zeros and infinities included.
func TestGroupEntries(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	specials := []float64{math.Inf(-1), math.Copysign(0, -1), 0, math.Inf(1)}
	values := map[string]func() float64{
		"equal":    func() float64 { return 7 },
		"two":      func() float64 { return float64(r.Intn(2)) },
		"few":      func() float64 { return float64(r.Intn(50)) },
		"band":     func() float64 { return 1e6 + r.Float64() },
		"wide":     func() float64 { return r.NormFloat64() * math.Pow(10, float64(r.Intn(40)-20)) },
		"specials": func() float64 { return specials[r.Intn(len(specials))] },
		"nan": func() float64 {
			if r.Intn(500) == 0 {
				return math.NaN()
			}
			return r.Float64()
		},
	}
	for name, value := range values {
		for _, n := range []int{1, 5, 64, 300, 3000} {
			for _, size := range []int{1, 7, 64, 1000} {
				src := make([]data.Entry, n)
				nan := false
				for i := range src {
					src[i] = data.Entry{ID: data.ID(i), Pos: geo.Vec{0, value(), 0}}
					nan = nan || math.IsNaN(src[i].Pos[1])
				}
				sorted := slices.Clone(src)
				slices.SortStableFunc(sorted, func(a, b data.Entry) int {
					return cmpKeyed(Keyed[float64]{Key: a.Pos[1]}, Keyed[float64]{Key: b.Pos[1]})
				})
				unique := !nan
				for cut := size; cut < n; cut += size {
					unique = unique && sorted[cut-1].Pos[1] != sorted[cut].Pos[1]
				}
				dst := make([]data.Entry, n)
				if got := groupEntries(dst, src, 1, size, 16, &strScratch{}); got != unique {
					t.Fatalf("%s n=%d size=%d: unique = %v, want %v", name, n, size, got, unique)
				}
				if !unique {
					continue
				}
				for lo := 0; lo < n; lo += size {
					got, want := ids(dst[lo:min(lo+size, n)]), ids(sorted[lo:min(lo+size, n)])
					slices.Sort(got)
					slices.Sort(want)
					if !slices.Equal(got, want) {
						t.Fatalf("%s n=%d size=%d: the group at %d holds other entries than the sorted order's", name, n, size, lo)
					}
				}
			}
		}
	}
}

// strGrid returns n entries whose STR order at fanout is known: the entry
// with ID p belongs at position p. Slab k holds x in (2k−1)·1e6 plus a
// scrambled offset (so slab 0 is negative, the rest positive), run j of a
// slab y in j·1e4 plus a reversed offset, and every run t = 0, 1, 2, ...,
// so t repeats across runs but never within one. The entries come back
// shuffled, with the layout's slab and run sizes.
func strGrid(n, fanout int, seed int64) (list []data.Entry, slabSize, runSize int) {
	s := newSTRSort(make([]data.Entry, n), fanout, math.MaxInt)
	slabSize, runSize = s.slabSize, s.runSize
	list = make([]data.Entry, n)
	for p := range list {
		q := p % slabSize
		j, r := q/runSize, q%runSize
		list[p] = data.Entry{ID: data.ID(p), Pos: geo.Vec{
			float64(2*(p/slabSize)-1)*1e6 + float64(q*7919%slabSize),
			float64(j)*1e4 + float64(runSize-1-r),
			float64(r),
		}}
	}
	rand.New(rand.NewSource(seed)).Shuffle(n, func(i, j int) { list[i], list[j] = list[j], list[i] })
	return list, slabSize, runSize
}

// byID returns a function that finds the entry with a given ID in list.
func byID(list []data.Entry) func(id int) *data.Entry {
	at := make(map[data.ID]int, len(list))
	for i, e := range list {
		at[e.ID] = i
	}
	return func(id int) *data.Entry { return &list[at[data.ID(id)]] }
}

// slabMin is the position (ID) of the entry with the smallest x in slab k
// of an strGrid layout: the one whose scrambled offset is 0.
func slabMin(k, slabSize int) int { return k * slabSize }

// slabMax is the position of the entry with the largest x in slab k.
func slabMax(k, slabSize, n int) int {
	best, at := -1, 0
	for q := 0; q < min(slabSize, n-k*slabSize); q++ {
		if off := q * 7919 % slabSize; off > best {
			best, at = off, k*slabSize+q
		}
	}
	return at
}

// ids lists the entry IDs of a sorted list.
func ids(list []data.Entry) []data.ID {
	out := make([]data.ID, len(list))
	for i, e := range list {
		out[i] = e.ID
	}
	return out
}

// checkRadixMatchesPinned sorts list with the radix path forced on every
// pass and at the default cutoff, at GOMAXPROCS 1 and 2, and fails unless
// both give the pinned path's order, positions bit for bit. It returns
// whether the forced run kept its radix order.
func checkRadixMatchesPinned(t *testing.T, name string, fanout int, list []data.Entry) (radix bool) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	want := strOrder(fanout, math.MaxInt, list)[0]
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, from := range []int{1, radixMin} {
			r0, _ := SortPaths()
			got := strOrder(fanout, from, list)[0]
			r1, _ := SortPaths()
			if from == 1 {
				radix = r1 > r0
			}
			for i := range want {
				if got[i].ID != want[i].ID || !sameBits(got[i].Pos, want[i].Pos) {
					t.Fatalf("%s (n=%d, fanout %d, GOMAXPROCS %d, radix from %d): position %d holds %d, the pinned path put %d there",
						name, len(list), fanout, procs, from, i, got[i].ID, want[i].ID)
				}
			}
		}
	}
	return radix
}

// sameBits reports whether two positions are the same bit for bit.
func sameBits(a, b geo.Vec) bool {
	for d := range a {
		if math.Float64bits(a[d]) != math.Float64bits(b[d]) {
			return false
		}
	}
	return true
}

// TestSTROrderRadixMatchesPinned runs hand-built lists of 0 to 3 slabs,
// each with one kind of tie or special value, through both STR paths and
// asserts which path the radix attempt ended on: ties strictly inside a
// slab (x), a run (y) or across runs (t), signed zeros within a slab and
// infinities keep the radix order; ties exactly at a slab or run boundary,
// shared t within a run, exact duplicates, signed zeros across a slab
// boundary and NaNs send the list back to the pinned path. Every list must
// come out in the pinned order either way.
func TestSTROrderRadixMatchesPinned(t *testing.T) {
	negZero, inf := math.Copysign(0, -1), math.Inf(1)
	type mutation struct {
		name   string
		slabs  int  // fewest slabs the mutation needs
		radix  bool // whether the radix order must stand
		mutate func(at func(int) *data.Entry, slabSize, runSize, n int)
	}
	mutations := []mutation{
		{"clean", 0, true, func(func(int) *data.Entry, int, int, int) {}},
		{"x tie at slab boundary", 2, false, func(at func(int) *data.Entry, slab, _, n int) {
			at(slabMin(1, slab)).Pos[0] = at(slabMax(0, slab, n)).Pos[0]
		}},
		{"x tie inside slab", 1, true, func(at func(int) *data.Entry, slab, _, n int) {
			at(slabMax(0, slab, n)).Pos[0] = at(slabMin(0, slab)).Pos[0]
		}},
		{"y tie at run boundary", 1, false, func(at func(int) *data.Entry, _, run, _ int) {
			at(2*run - 1).Pos[1] = at(0).Pos[1] // run 1's smallest y = run 0's largest
		}},
		{"y tie inside run", 1, true, func(at func(int) *data.Entry, _, run, _ int) {
			at(run - 1).Pos[1] = at(0).Pos[1]
		}},
		{"t tie inside run", 1, false, func(at func(int) *data.Entry, _, run, _ int) {
			at(run - 1).Pos[2] = at(0).Pos[2]
		}},
		{"exact duplicate", 1, false, func(at func(int) *data.Entry, _, run, _ int) {
			at(run - 1).Pos = at(run - 2).Pos
		}},
		{"signed zeros across slab boundary", 2, false, func(at func(int) *data.Entry, slab, _, n int) {
			at(slabMax(0, slab, n)).Pos[0] = negZero
			at(slabMin(1, slab)).Pos[0] = 0
		}},
		{"signed zeros inside slab", 2, true, func(at func(int) *data.Entry, slab, _, n int) {
			at(slabMin(1, slab)).Pos[0] = negZero
			at(slabMin(1, slab) + 1).Pos[0] = 0 // offset 7919 mod slab: above the minimum
			at(slabMin(1, slab) + 2).Pos[0] = negZero
		}},
		{"infinities", 1, true, func(at func(int) *data.Entry, slab, run, n int) {
			at(slabMin(0, slab)).Pos[0] = -inf
			at(slabMax((n-1)/slab, slab, n)).Pos[0] = inf
			at(run - 1).Pos[1] = -inf // run 0's smallest y
			at(0).Pos[2] = inf
		}},
		{"NaN t", 1, false, func(at func(int) *data.Entry, _, _, n int) { at(n - 1).Pos[2] = math.NaN() }},
		{"NaN x", 1, false, func(at func(int) *data.Entry, _, _, n int) { at(n / 2).Pos[0] = math.NaN() }},
	}
	for _, fanout := range []int{4, 64} {
		// 0 slabs; 1 slab of 3 runs; 2 slabs of 2 runs; 3 slabs of 3 runs;
		// 3 slabs, the last one short.
		for _, leaves := range []int{0, 9, 8, 27, 25} {
			n := leaves*fanout - min(leaves, 1)*3
			for _, m := range mutations {
				list, slab, run := strGrid(n, fanout, int64(leaves))
				slabs := (n + slab - 1) / slab
				if slabs < m.slabs || (m.slabs > 0 && n < 2*run) {
					continue
				}
				m.mutate(byID(list), slab, run, n)
				name := fmt.Sprintf("%s, %d slabs", m.name, slabs)
				radix := checkRadixMatchesPinned(t, name, fanout, list)
				if n > 0 && radix != m.radix {
					t.Errorf("%s (n=%d, fanout %d): radix order kept = %v, want %v", name, n, fanout, radix, m.radix)
				}
				if m.name == "clean" {
					got := STROrder(fanout, list)[0]
					for i, e := range got {
						if e.ID != data.ID(i) {
							t.Fatalf("clean grid (n=%d, fanout %d): position %d holds %d", n, fanout, i, e.ID)
						}
					}
				}
			}
		}
	}
	// Generated lists, one of them tie-heavy, and several lists in one call.
	lists := [][]data.Entry{genEntries(20_000, 1), tiedEntries(20_000), genEntries(1_500, 2), tiedEntries(1_100)}
	for _, fanout := range []int{8, 64} {
		for i, l := range lists {
			checkRadixMatchesPinned(t, fmt.Sprintf("list %d", i), fanout, l)
		}
		got, want := STROrder(fanout, lists...), strOrder(fanout, math.MaxInt, lists...)
		for i := range lists {
			if !slices.Equal(ids(got[i]), ids(want[i])) {
				t.Errorf("fanout %d: list %d of a concurrent call differs from the pinned order", fanout, i)
			}
		}
	}
}

// FuzzSTROrder builds a list from any bytes — coordinates from a palette of
// NaN, ±Inf, ±0 and small integers, or two bytes' worth of distinct-ish
// values — and demands the pinned order from the radix path, forced on
// every pass and at the default cutoff, at GOMAXPROCS 1 and 2.
func FuzzSTROrder(f *testing.F) {
	f.Add(uint8(3), []byte{0, 9, 1, 200, 0, 7, 2, 13, 0, 1, 0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14})
	f.Add(uint8(0), []byte{0, 3, 0, 3, 0, 4, 0, 4, 0, 5, 0, 6, 1, 1, 1, 1, 1, 1, 0, 0, 0, 1, 0, 2})
	seed := make([]byte, 6*300)
	rand.New(rand.NewSource(1)).Read(seed)
	f.Add(uint8(1), seed)
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	palette := []float64{nan, -inf, inf, negZero, 0, 1, 2, -1}
	f.Fuzz(func(t *testing.T, fan uint8, raw []byte) {
		fanout := 1 + int(fan%8)
		coord := func(b []byte) float64 {
			if v := int(b[0])<<8 | int(b[1]); v >= 256 {
				return float64(v) / 16
			}
			return palette[int(b[1])%len(palette)]
		}
		var list []data.Entry
		for i := 0; i+6 <= len(raw) && len(list) < 2*radixMin; i += 6 {
			list = append(list, data.Entry{ID: data.ID(len(list)), Pos: geo.Vec{coord(raw[i:]), coord(raw[i+2:]), coord(raw[i+4:])}})
		}
		checkRadixMatchesPinned(t, "fuzz", fanout, list)
	})
}

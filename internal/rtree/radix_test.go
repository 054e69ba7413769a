package rtree

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"storm/internal/data"
	"storm/internal/data/datatest"
	"storm/internal/geo"
)

// TestFloatImageOrder checks that floatImage orders every pair of a palette
// of edge values (signed zeros, infinities, subnormals, the extremes) as <
// and == order the floats themselves, and puts each NaN beyond the infinity
// of its sign.
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
	nan := math.NaN()
	if floatImage(nan) <= floatImage(math.Inf(1)) || floatImage(-nan) >= floatImage(math.Inf(-1)) {
		t.Errorf("NaN images %#x and %#x do not lie beyond the infinities", floatImage(nan), floatImage(-nan))
	}
}

// byKey orders Keyed values by key alone.
func byKey(a, b Keyed) int { return cmp.Compare(a.Key, b.Key) }

// TestRadixSortStable compares radixSort with a stable comparison sort on
// keys with many ties and on keys that share all but their low bytes.
func TestRadixSortStable(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 17, 255, 256, 257, 1000, 5000} {
		for _, spread := range []uint64{1, 3, 1 << 12, math.MaxUint64} {
			x := make([]Keyed, n)
			for i := range x {
				k := r.Uint64()
				if spread != math.MaxUint64 {
					k = 0xABCD_0000_0000_0000 + k%spread
				}
				x[i] = Keyed{Key: k, Idx: i}
			}
			want := slices.Clone(x)
			slices.SortStableFunc(want, byKey)
			radixSort(x, make([]Keyed, n))
			if !slices.Equal(x, want) {
				t.Fatalf("n=%d spread %d: radixSort differs from a stable sort", n, spread)
			}
		}
	}
}

// TestSortSizeSplit checks that both sides of the radixMin split give
// the (key, ID, position) order, on keys with long tied runs and on lists
// holding records twice: radix from the first key, radix never, and the
// default split must agree with a comparison sort over that comparator.
func TestSortSizeSplit(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 300, radixMin - 1, radixMin, 5000} {
		for _, spread := range []uint64{1, 7, 1 << 40} {
			entries := make([]data.Entry, n)
			x := make([]Keyed, n)
			for i := range x {
				entries[i].ID = data.ID(r.Intn(n + 1)) // repeats: one record held twice
				x[i] = Keyed{Key: r.Uint64() % spread, Idx: i}
			}
			want := slices.Clone(x)
			slices.SortFunc(want, func(a, b Keyed) int { return compareKeyed(a, b, entries) })
			for _, from := range []int{1, radixMin, math.MaxInt} {
				got := slices.Clone(x)
				sortKeys(got, entries, from, nil)
				if !slices.Equal(got, want) {
					t.Fatalf("n=%d spread %d radix from %d: order differs from (key, ID, position)", n, spread, from)
				}
			}
		}
	}
}

// TestGroupEntries checks groupEntries against a full sort: every group
// must hold the entries the (coordinate, ID) order puts in it. Coordinates
// range from all equal through narrow bands (one MSD bucket) to the whole
// float line, signed zeros, infinities and NaNs included.
func TestGroupEntries(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	specials := []float64{math.Inf(-1), math.Copysign(0, -1), 0, math.Inf(1), math.NaN(), -math.NaN()}
	values := map[string]func() float64{
		"equal":    func() float64 { return 7 },
		"two":      func() float64 { return float64(r.Intn(2)) },
		"few":      func() float64 { return float64(r.Intn(50)) },
		"band":     func() float64 { return 1e6 + r.Float64() },
		"wide":     func() float64 { return r.NormFloat64() * math.Pow(10, float64(r.Intn(40)-20)) },
		"specials": func() float64 { return specials[r.Intn(len(specials))] },
	}
	for name, value := range values {
		for _, n := range []int{1, 5, 64, 300, 3000} {
			for _, size := range []int{1, 7, 64, 1000} {
				src := make([]data.Entry, n)
				for i, id := range r.Perm(n) {
					src[i] = data.Entry{ID: data.ID(id), Pos: geo.Vec{0, value(), 0}}
				}
				sorted := slices.Clone(src)
				slices.SortFunc(sorted, byCoordID(1))
				dst := make([]data.Entry, n)
				groupEntries(dst, src, 1, size, 16, &strScratch{})
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

// TestGroupByKey checks GroupByKey the way TestGroupEntries checks
// groupEntries: every group holds the members the (key, ID) order gives it,
// on keys that tie throughout, that vary only in their low or their high
// bits, and that spread over all 64.
func TestGroupByKey(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	keyOf := map[string]func() uint64{
		"equal": func() uint64 { return 7 },
		"two":   func() uint64 { return uint64(r.Intn(2)) },
		"low":   func() uint64 { return 1<<40 | uint64(r.Intn(300)) },
		"high":  func() uint64 { return uint64(r.Intn(5)) << 61 },
		"wide":  func() uint64 { return r.Uint64() },
	}
	for name, key := range keyOf {
		for _, n := range []int{1, 5, 64, 300, 3000} {
			for _, size := range []int{1, 7, 64, 1000} {
				entries := make([]data.Entry, n)
				keys := make([]uint64, n)
				for i, id := range r.Perm(n) {
					entries[i] = data.Entry{ID: data.ID(id)}
					keys[i] = key()
				}
				order := make([]int, n)
				for i := range order {
					order[i] = i
				}
				slices.SortFunc(order, func(a, b int) int {
					if c := cmp.Compare(keys[a], keys[b]); c != 0 {
						return c
					}
					return cmp.Compare(entries[a].ID, entries[b].ID)
				})
				sorted := make([]data.Entry, n)
				for i, k := range order {
					sorted[i] = entries[k]
				}
				grouped := GroupByKey(entries, keys, size)
				for lo := 0; lo < n; lo += size {
					got, want := ids(grouped[lo:min(lo+size, n)]), ids(sorted[lo:min(lo+size, n)])
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

// ids lists the entry IDs of a sorted list.
func ids(list []data.Entry) []data.ID {
	out := make([]data.ID, len(list))
	for i, e := range list {
		out[i] = e.ID
	}
	return out
}

// sameEntries reports whether two lists hold the same entries in the same
// order, positions bit for bit (so NaNs compare and −0 differs from +0).
func sameEntries(a, b []data.Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			return false
		}
		for d := range a[i].Pos {
			if math.Float64bits(a[i].Pos[d]) != math.Float64bits(b[i].Pos[d]) {
				return false
			}
		}
	}
	return true
}

// specialEntries draws every coordinate from NaN (both signs), ±0, ±Inf and
// a few integers, so positions repeat exactly and every special value has
// many copies; each entry has its own ID.
func specialEntries(n int, seed int64) []data.Entry {
	r := rand.New(rand.NewSource(seed))
	palette := []float64{math.NaN(), -math.NaN(), math.Inf(-1), math.Inf(1), math.Copysign(0, -1), 0, 1, 2, -1}
	out := make([]data.Entry, n)
	for i := range out {
		if i%6 == 5 {
			out[i] = data.Entry{ID: data.ID(i), Pos: out[r.Intn(i)].Pos}
			continue
		}
		out[i] = data.Entry{ID: data.ID(i)}
		for d := range out[i].Pos {
			out[i].Pos[d] = palette[r.Intn(len(palette))]
		}
	}
	return out
}

// orderLists are the inputs of the order tests: tie-heavy and
// special-valued lists on both sides of radixMin and of sortBuf, and
// distinct positions.
func orderLists() map[string][]data.Entry {
	return map[string][]data.Entry{
		"tiedEntries":       tiedEntries(20_000),
		"tiedEntries short": tiedEntries(900),
		"tiedEntries tiny":  tiedEntries(200),
		"specials tiny":     specialEntries(50, 3),
		"tieHeavy":          datatest.TieHeavy(20_000).Entries(),
		"specials":          specialEntries(5_000, 1),
		"specials short":    specialEntries(300, 2),
		"distinct":          genEntries(3_000, 5),
	}
}

// hilbertPair is an entry with its Hilbert key, as the reference sorts them.
type hilbertPair struct {
	e   data.Entry
	key uint64
}

// referenceHilbert returns entries and keys sorted together by (key, ID)
// with slices.SortFunc: the order sortByKey and the partition must give.
func referenceHilbert(entries []data.Entry, keys []uint64) ([]data.Entry, []uint64) {
	pairs := make([]hilbertPair, len(entries))
	for i := range pairs {
		pairs[i] = hilbertPair{entries[i], keys[i]}
	}
	slices.SortFunc(pairs, func(a, b hilbertPair) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.e.ID, b.e.ID)
	})
	es, ks := make([]data.Entry, len(pairs)), make([]uint64, len(pairs))
	for i, p := range pairs {
		es[i], ks[i] = p.e, p.key
	}
	return es, ks
}

// TestBulkLoadOrdersIgnoreInputOrder checks that STROrder and sortByKey are
// functions of the entries alone: any shuffle of a list — tie-heavy,
// special-valued or plain, every entry with its own ID — gives the same
// output, on either side of the radix cutoff and at GOMAXPROCS 1 and 2, and
// that output is the reference's: referenceSTR, and a slices.SortFunc over
// (key, ID) for the Hilbert sort, under fine keys (the quantizer's) and
// coarse ones (a few distinct values, so ties run long).
func TestBulkLoadOrdersIgnoreInputOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	quant := NewQuantizer(geo.NewRect(geo.Vec{-2, -2, -2}, geo.Vec{40, 40, 100}))
	keyings := map[string]func(geo.Vec) uint64{
		"fine":   func(p geo.Vec) uint64 { return quant.Value3(p[0], p[1], p[2]) },
		"coarse": func(p geo.Vec) uint64 { return floatImage(p[0]) >> 61 },
	}
	for name, list := range orderLists() {
		wantSTR := map[int][]data.Entry{}
		for _, fanout := range []int{8, 64} {
			wantSTR[fanout] = slices.Clone(list)
			referenceSTR(wantSTR[fanout], fanout)
		}
		wantEs, wantKs := map[string][]data.Entry{}, map[string][]uint64{}
		for kname, key := range keyings {
			wantEs[kname], wantKs[kname] = referenceHilbert(list, keysOf(list, key))
		}
		for shuffle := int64(0); shuffle < 3; shuffle++ {
			in := slices.Clone(list)
			rand.New(rand.NewSource(shuffle)).Shuffle(len(in), func(i, j int) { in[i], in[j] = in[j], in[i] })
			for _, procs := range []int{1, 2} {
				runtime.GOMAXPROCS(procs)
				for fanout, want := range wantSTR {
					for _, from := range []int{1, radixMin, math.MaxInt} {
						if got := strOrder(fanout, from, in)[0]; !sameEntries(got, want) {
							t.Fatalf("%s, shuffle %d, GOMAXPROCS %d, fanout %d, radix from %d: STR order differs from the reference",
								name, shuffle, procs, fanout, from)
						}
					}
				}
			}
			for kname, key := range keyings {
				keys := keysOf(in, key)
				gotEs := slices.Clone(in)
				sortByKey(gotEs, keys)
				if !sameEntries(gotEs, wantEs[kname]) || !slices.Equal(keys, wantKs[kname]) {
					t.Fatalf("%s, shuffle %d, %s keys: Hilbert order differs from the reference", name, shuffle, kname)
				}
			}
		}
	}
}

// keysOf keys every entry of list.
func keysOf(list []data.Entry, key func(geo.Vec) uint64) []uint64 {
	keys := make([]uint64, len(list))
	for i, e := range list {
		keys[i] = key(e.Pos)
	}
	return keys
}

// FuzzSTROrder builds a list from any bytes — coordinates from a palette of
// NaN, ±Inf, ±0 and small integers, or two bytes' worth of distinct-ish
// values — and demands referenceSTR's order from STROrder, with the radix
// sorts taken from the first key and at the default cutoff, at GOMAXPROCS
// 1 and 2.
func FuzzSTROrder(f *testing.F) {
	f.Add(uint8(3), []byte{0, 9, 1, 200, 0, 7, 2, 13, 0, 1, 0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14})
	f.Add(uint8(0), []byte{0, 3, 0, 3, 0, 4, 0, 4, 0, 5, 0, 6, 1, 1, 1, 1, 1, 1, 0, 0, 0, 1, 0, 2})
	seed := make([]byte, 6*300)
	rand.New(rand.NewSource(1)).Read(seed)
	f.Add(uint8(1), seed)
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	palette := []float64{nan, -inf, inf, negZero, 0, 1, 2, -1}
	f.Fuzz(func(t *testing.T, fan uint8, raw []byte) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
		fanout := 1 + int(fan%8)
		coord := func(b []byte) float64 {
			if v := int(b[0])<<8 | int(b[1]); v >= 256 {
				return float64(v) / 16
			}
			return palette[int(b[1])%len(palette)]
		}
		var list []data.Entry
		for i := 0; i+6 <= len(raw) && len(list) < 2048; i += 6 {
			list = append(list, data.Entry{ID: data.ID(len(list)), Pos: geo.Vec{coord(raw[i:]), coord(raw[i+2:]), coord(raw[i+4:])}})
		}
		want := slices.Clone(list)
		referenceSTR(want, fanout)
		for _, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			for _, from := range []int{1, radixMin} {
				if got := strOrder(fanout, from, list)[0]; !sameEntries(got, want) {
					t.Fatalf("n=%d fanout %d GOMAXPROCS %d radix from %d: STR order differs from the reference",
						len(list), fanout, procs, from)
				}
			}
		}
	})
}

// BenchmarkSortKeyed times the two ways a bulk-load sort can run — the
// radix path and slices.SortFunc with compareKeyed — over the same keys:
// run-sized t passes (832 keys: a 13-leaf run at fanout 64, as a 125
// k-record shard has; 1 280: a 20-leaf run) and the shorter sorts down to a
// leaf split's. The size where radix overtakes the comparison sort sets
// radixMin.
func BenchmarkSortKeyed(b *testing.B) {
	for _, n := range []int{64, 128, 256, 512, 832, 1024, 1280} {
		r := rand.New(rand.NewSource(1))
		entries := make([]data.Entry, n)
		src := make([]Keyed, n)
		for i := range src {
			entries[i].ID = data.ID(i)
			src[i] = Keyed{Key: floatImage(r.Float64()), Idx: i}
		}
		x, tmp := make([]Keyed, n), make([]Keyed, n)
		for _, path := range []struct {
			name string
			from int
		}{{"sortfunc", math.MaxInt}, {"radix", 1}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, path.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(x, src)
					sortKeys(x, entries, path.from, tmp)
				}
			})
		}
	}
}

package rtree

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
)

// cmpKeyed is the comparator the bulk-load sorts passed to slices.SortFunc
// before SortKeyed: by key alone, equal (and NaN) keys comparing equal.
func cmpKeyed[K float64 | uint64](a, b Keyed[K]) int {
	switch {
	case a.Key < b.Key:
		return -1
	case a.Key > b.Key:
		return 1
	}
	return 0
}

// keyPatterns are the inputs of TestSortKeyedMatchesSortFunc: each returns
// n keys as float64, non-negative integers unless floatOnly, so the uint64
// run can convert them exactly.
var keyPatterns = []struct {
	name      string
	floatOnly bool
	keys      func(r *rand.Rand, n int) []float64
}{
	{"random", false, func(r *rand.Rand, n int) []float64 {
		return fill(n, func(int) float64 { return float64(r.Int63n(1 << 40)) })
	}},
	{"all-equal", false, func(_ *rand.Rand, n int) []float64 { return fill(n, func(int) float64 { return 7 }) }},
	{"few-distinct", false, func(r *rand.Rand, n int) []float64 { return fill(n, func(int) float64 { return float64(r.Intn(4)) }) }},
	{"sorted", false, func(_ *rand.Rand, n int) []float64 { return fill(n, func(i int) float64 { return float64(i) }) }},
	{"reversed", false, func(_ *rand.Rand, n int) []float64 { return fill(n, func(i int) float64 { return float64(n - i) }) }},
	{"sawtooth", false, func(_ *rand.Rand, n int) []float64 { return fill(n, func(i int) float64 { return float64(i % 17) }) }},
	{"organ-pipe", false, func(_ *rand.Rand, n int) []float64 {
		return fill(n, func(i int) float64 { return float64(min(i, n-i)) })
	}},
	{"nearly-sorted", false, func(r *rand.Rand, n int) []float64 {
		k := fill(n, func(i int) float64 { return float64(i) })
		for s := 0; s < 3 && n > 1; s++ {
			i, j := r.Intn(n), r.Intn(n)
			k[i], k[j] = k[j], k[i]
		}
		return k
	}},
	{"adversary", false, func(_ *rand.Rand, n int) []float64 { return adversaryKeys(n) }},
	{"signed-zeros", true, func(r *rand.Rand, n int) []float64 {
		zeros := []float64{0, math.Copysign(0, -1), 1, -1}
		return fill(n, func(int) float64 { return zeros[r.Intn(len(zeros))] })
	}},
	{"nan", true, func(r *rand.Rand, n int) []float64 {
		return fill(n, func(int) float64 {
			if r.Intn(4) == 0 {
				return math.NaN()
			}
			return float64(r.Intn(50))
		})
	}},
}

func fill(n int, f func(i int) float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = f(i)
	}
	return out
}

// adversaryKeys returns keys that steer a deterministic quicksort into
// unbalanced partitions — McIlroy's "A Killer Adversary for Quicksort", as
// in the stdlib's own sort tests: run slices.SortFunc once with a comparator
// that fixes values only when it must, then replay the values it fixed. A
// pdqsort fed these keys spends its bad-pivot budget and falls back to
// heapsort, so that branch is compared too.
func adversaryKeys(n int) []float64 {
	gas := n
	val := make([]int, n)
	for i := range val {
		val[i] = gas
	}
	solid, candidate := 0, 0
	freeze := func(i int) { val[i] = solid; solid++ }
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(x, y int) int {
		switch {
		case val[x] == gas && val[y] == gas:
			if x == candidate {
				freeze(x)
			} else {
				freeze(y)
			}
		case val[x] == gas:
			candidate = x
		case val[y] == gas:
			candidate = y
		}
		return val[x] - val[y]
	})
	return fill(n, func(i int) float64 { return float64(val[i]) })
}

// keyedOf pairs each key with its position.
func keyedOf[K float64 | uint64](keys []K) []Keyed[K] {
	out := make([]Keyed[K], len(keys))
	for i, k := range keys {
		out[i] = Keyed[K]{Key: k, Idx: i}
	}
	return out
}

// checkSamePermutation fails unless got and want hold the elements in the
// same order.
func checkSamePermutation[K float64 | uint64](t *testing.T, what, pattern string, got, want []Keyed[K]) {
	t.Helper()
	for i := range got {
		if got[i].Idx != want[i].Idx {
			t.Fatalf("%T %s n=%d %s: position %d holds element %d, the reference put %d there",
				got[i].Key, pattern, len(got), what, i, got[i].Idx, want[i].Idx)
		}
	}
}

// checkSortKeyed sorts keys with slices.SortFunc over the old comparator and
// with SortKeyed at each of procs (the current GOMAXPROCS when none are
// given) and demands the same permutation every time.
func checkSortKeyed[K float64 | uint64](t *testing.T, pattern string, keys []K, procs ...int) {
	t.Helper()
	want := keyedOf(keys)
	slices.SortFunc(want, cmpKeyed[K])
	if len(procs) == 0 {
		procs = []int{runtime.GOMAXPROCS(0)}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		got := keyedOf(keys)
		SortKeyed(got)
		checkSamePermutation(t, fmt.Sprintf("GOMAXPROCS=%d", p), pattern, got, want)
	}
}

// sortPatterns calls check on every keyPatterns shape at every size, as
// float64 keys and — unless the shape is float-only — as uint64 keys.
func sortPatterns(sizes []int, check func(pattern string, fkeys []float64, ukeys []uint64)) {
	for _, p := range keyPatterns {
		r := rand.New(rand.NewSource(1))
		for _, n := range sizes {
			keys := p.keys(r, n)
			if p.floatOnly {
				check(p.name, keys, nil)
				continue
			}
			ukeys := make([]uint64, n)
			for i, k := range keys {
				ukeys[i] = uint64(k) // non-negative integers: exact
				if p.name == "random" {
					ukeys[i] = r.Uint64()
				}
			}
			check(p.name, keys, ukeys)
		}
	}
}

// TestSortKeyedMatchesSortFunc pins SortKeyed to the permutation
// slices.SortFunc gave the bulk-load sorts, ties and NaNs included, for
// every size up to 2 000 and at 500 000, for both key types. The 500 000 key
// sorts cross forkGrain many times over, so they run at GOMAXPROCS 1, 2 and
// 8: the forked sides are scheduled inline-after-parent, on two Ps and
// oversubscribed, and must give one permutation.
//
// SortKeyed, not the stdlib, now defines STR and partition order, and the
// golden files rest on it. If a future Go changes its pdqsort and this test
// fails, the stdlib comparison is the part to drop: keep keysort.go and the
// golden files as they are.
func TestSortKeyedMatchesSortFunc(t *testing.T) {
	sizes := make([]int, 0, 2002)
	for n := 0; n <= 2000; n++ {
		sizes = append(sizes, n)
	}
	sizes = append(sizes, 500_000)
	sortPatterns(sizes, func(pattern string, fkeys []float64, ukeys []uint64) {
		var procs []int
		if len(fkeys) >= forkGrain {
			procs = []int{1, 2, 8}
		}
		checkSortKeyed(t, pattern, fkeys, procs...)
		if ukeys != nil {
			checkSortKeyed(t, pattern, ukeys, procs...)
		}
	})
}

// hilbertSorter is the sort.Interface the Hilbert sorts of InsertBatch,
// splitLeafEven and PackHilbert bulk loads passed to sort.Sort before they
// used SortKeyed: keys with their entries (here, positions) in tow.
type hilbertSorter []Keyed[uint64]

func (s hilbertSorter) Len() int           { return len(s) }
func (s hilbertSorter) Less(i, j int) bool { return s[i].Key < s[j].Key }
func (s hilbertSorter) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

// TestSortKeyedMatchesSortSort pins SortKeyed to the permutation sort.Sort
// gave the Hilbert sorts, so trees grown by InsertBatch and PackHilbert
// bulk loads keep their shape, ties included. Like the slices.SortFunc
// comparison above, it is the stdlib half to drop if a future Go changes
// sort.Sort.
func TestSortKeyedMatchesSortSort(t *testing.T) {
	sizes := make([]int, 0, 1004)
	for n := 0; n <= 1000; n++ {
		sizes = append(sizes, n)
	}
	sizes = append(sizes, 4096, 30_000, 100_000)
	sortPatterns(sizes, func(pattern string, _ []float64, ukeys []uint64) {
		if ukeys == nil {
			return
		}
		want := keyedOf(ukeys)
		sort.Sort(hilbertSorter(want))
		got := keyedOf(ukeys)
		SortKeyed(got)
		checkSamePermutation(t, "vs sort.Sort", pattern, got, want)
	})
}

// BenchmarkSortKeyed times the two sort shapes a bulk load runs: one
// dataset-sized x pass (500 k keys) and the run-sized t passes (1 280 keys,
// a 20-leaf run at fanout 64), plus two shorter sorts, each on SortKeyed
// (pdqsort) and on radixSort over the same keys' images. The sizes where
// radix overtakes pdqsort set radixMin.
func BenchmarkSortKeyed(b *testing.B) {
	for _, n := range []int{500_000, 1280, 1024, 512} {
		r := rand.New(rand.NewSource(1))
		src := make([]Keyed[float64], n)
		images := make([]Keyed[uint64], n)
		for i := range src {
			src[i] = Keyed[float64]{Key: r.Float64(), Idx: i}
			images[i] = Keyed[uint64]{Key: floatImage(src[i].Key), Idx: i}
		}
		x := make([]Keyed[float64], n)
		b.Run(fmt.Sprintf("n=%d/pdqsort", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(x, src)
				SortKeyed(x)
			}
		})
		y, tmp := make([]Keyed[uint64], n), make([]Keyed[uint64], n)
		b.Run(fmt.Sprintf("n=%d/radix", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(y, images)
				radixSort(y, tmp)
			}
		})
	}
}

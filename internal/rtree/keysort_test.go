package rtree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// checkSortKeyed sorts keys with SortKeyed and with slices.SortFunc over the
// old comparator and demands the same permutation.
func checkSortKeyed[K float64 | uint64](t *testing.T, pattern string, keys []K) {
	t.Helper()
	got := make([]Keyed[K], len(keys))
	for i, k := range keys {
		got[i] = Keyed[K]{Key: k, Idx: i}
	}
	want := slices.Clone(got)
	slices.SortFunc(want, cmpKeyed[K])
	SortKeyed(got)
	for i := range got {
		if got[i].Idx != want[i].Idx {
			t.Fatalf("%T %s n=%d: position %d holds element %d, slices.SortFunc put %d there",
				keys, pattern, len(keys), i, got[i].Idx, want[i].Idx)
		}
	}
}

// TestSortKeyedMatchesSortFunc pins SortKeyed to the permutation
// slices.SortFunc gave the bulk-load sorts, ties and NaNs included, for
// every size up to 2 000 and at 500 000, for both key types.
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
	for _, p := range keyPatterns {
		r := rand.New(rand.NewSource(1))
		for _, n := range sizes {
			keys := p.keys(r, n)
			checkSortKeyed(t, p.name, keys)
			if p.floatOnly {
				continue
			}
			ukeys := make([]uint64, n)
			for i, k := range keys {
				ukeys[i] = uint64(k) // non-negative integers: exact
				if p.name == "random" {
					ukeys[i] = r.Uint64()
				}
			}
			checkSortKeyed(t, p.name, ukeys)
		}
	}
}

// BenchmarkSortKeyed times the two sort shapes a bulk load runs: one
// dataset-sized x pass (500 k keys) and the run-sized t passes (1 280 keys,
// a 20-leaf run at fanout 64).
func BenchmarkSortKeyed(b *testing.B) {
	for _, n := range []int{500_000, 1280} {
		r := rand.New(rand.NewSource(1))
		src := make([]Keyed[float64], n)
		for i := range src {
			src[i] = Keyed[float64]{Key: r.Float64(), Idx: i}
		}
		x := make([]Keyed[float64], n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(x, src)
				SortKeyed(x)
			}
		})
	}
}

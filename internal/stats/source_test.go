package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// rngTestSeeds are the edge seeds of math/rand's seed reduction (mod 2³¹−1,
// negative remainders, the zero remap to 89482311) followed by pseudo-random
// seeds across the int64 range, 10 000 in all.
func rngTestSeeds() []int64 {
	const m = int32max
	seeds := []int64{
		0, 1, -1, 2, -2, 89482311, -89482311, 89482311 + m, 89482311 - m,
		m, -m, m - 1, -(m - 1), m + 1, -(m + 1),
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1,
		math.MaxInt32, math.MinInt32, math.MaxInt64 / m * m, math.MinInt64 / m * m,
	}
	for k := int64(2); k <= 1<<20; k *= 3 {
		seeds = append(seeds, k*m, -k*m, k*m+1, -k*m-1)
	}
	r := rand.New(rand.NewSource(20261015))
	for len(seeds) < 10_000 {
		seeds = append(seeds, int64(r.Uint64()))
	}
	return seeds
}

// TestRNGMatchesMathRand pins NewRNG and Reseed to math/rand: for every seed,
// the same raw Uint64 stream and the same derived draws as
// rand.New(rand.NewSource(seed)).
func TestRNGMatchesMathRand(t *testing.T) {
	const draws = 2000
	reused := NewRNG(12345)
	reused.Float64() // a reseeded RNG must not remember where it was
	for _, seed := range rngTestSeeds() {
		reused.Reseed(seed)
		for _, g := range []*RNG{NewRNG(seed), reused} {
			want := rand.New(rand.NewSource(seed))
			for i := 0; i < draws; i++ {
				if got, w := g.r.Uint64(), want.Uint64(); got != w {
					t.Fatalf("seed %d: Uint64 #%d = %#x, math/rand %#x", seed, i, got, w)
				}
			}
			for _, n := range []int{1, 2, 3, 1000, 1 << 30, math.MaxInt32, math.MaxInt32 + 1, math.MaxInt64} {
				if got, w := g.Intn(n), want.Intn(n); got != w {
					t.Fatalf("seed %d: Intn(%d) = %d, math/rand %d", seed, n, got, w)
				}
				if got, w := g.r.Int63n(int64(n)), want.Int63n(int64(n)); got != w {
					t.Fatalf("seed %d: Int63n(%d) = %d, math/rand %d", seed, n, got, w)
				}
			}
			if got, w := g.Int63(), want.Int63(); got != w {
				t.Fatalf("seed %d: Int63 = %d, math/rand %d", seed, got, w)
			}
			for i := 0; i < 8; i++ {
				if got, w := g.Float64(), want.Float64(); got != w {
					t.Fatalf("seed %d: Float64 = %v, math/rand %v", seed, got, w)
				}
				if got, w := g.NormFloat64(), want.NormFloat64(); got != w {
					t.Fatalf("seed %d: NormFloat64 = %v, math/rand %v", seed, got, w)
				}
				if got, w := g.ExpFloat64(), want.ExpFloat64(); got != w {
					t.Fatalf("seed %d: ExpFloat64 = %v, math/rand %v", seed, got, w)
				}
			}
			if got, w := g.Perm(37), want.Perm(37); !slices.Equal(got, w) {
				t.Fatalf("seed %d: Perm = %v, math/rand %v", seed, got, w)
			}
			got, w := make([]int, 50), make([]int, 50)
			for i := range got {
				got[i], w[i] = i, i
			}
			g.ShuffleInts(got)
			want.Shuffle(len(w), func(i, j int) { w[i], w[j] = w[j], w[i] })
			if !slices.Equal(got, w) {
				t.Fatalf("seed %d: Shuffle = %v, math/rand %v", seed, got, w)
			}
		}
	}
}

// The sinks keep the benchmarked constructions on the heap, as they are in
// use.
var (
	rngSink  *RNG
	randSink *rand.Rand
)

// BenchmarkNewRNG times one seeded RNG — the cost paid per RS-tree node
// buffer, per query and per shard stream open — against the math/rand
// construction it replaces, and against Reseed of a pooled one.
func BenchmarkNewRNG(b *testing.B) {
	b.Run("NewRNG", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rngSink = NewRNG(int64(i))
		}
	})
	b.Run("Reseed", func(b *testing.B) {
		g := NewRNG(0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.Reseed(int64(i))
		}
	})
	b.Run("rand.NewSource", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			randSink = rand.New(rand.NewSource(int64(i)))
		}
	})
}

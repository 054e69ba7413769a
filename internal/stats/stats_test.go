package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNormalQuantileKnownValues(t *testing.T) {
	cases := []struct {
		p    float64
		want float64
		tol  float64
	}{
		{0.5, 0, 1e-9},
		{0.975, 1.959964, 1e-5},
		{0.995, 2.575829, 1e-5},
		{0.84134, 0.99998, 1e-3},
		{0.025, -1.959964, 1e-5},
		{0.001, -3.090232, 1e-5},
	}
	for _, c := range cases {
		got := NormalQuantile(c.p)
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("NormalQuantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestNormalQuantileEdges(t *testing.T) {
	if !math.IsInf(NormalQuantile(0), -1) {
		t.Error("quantile at 0 should be -Inf")
	}
	if !math.IsInf(NormalQuantile(1), 1) {
		t.Error("quantile at 1 should be +Inf")
	}
	if !math.IsNaN(NormalQuantile(-0.1)) || !math.IsNaN(NormalQuantile(1.1)) {
		t.Error("out-of-range p should give NaN")
	}
}

// Property: NormalCDF(NormalQuantile(p)) == p.
func TestNormalQuantileInverse(t *testing.T) {
	f := func(raw float64) bool {
		p := math.Abs(math.Mod(raw, 1))
		if p < 1e-6 || p > 1-1e-6 {
			return true
		}
		got := NormalCDF(NormalQuantile(p))
		return math.Abs(got-p) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestZScore(t *testing.T) {
	if got := ZScore(0.95); math.Abs(got-1.959964) > 1e-4 {
		t.Errorf("ZScore(0.95) = %v", got)
	}
	if got := ZScore(0.99); math.Abs(got-2.575829) > 1e-4 {
		t.Errorf("ZScore(0.99) = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("ZScore(1.5) should panic")
		}
	}()
	ZScore(1.5)
}

func TestStudentTQuantile(t *testing.T) {
	// Reference values from standard t tables (two-sided 95%).
	cases := []struct {
		nu   int
		want float64
	}{
		{1, 12.706},
		{2, 4.303},
		{5, 2.571},
		{10, 2.228},
		{30, 2.042},
		{100, 1.984},
	}
	for _, c := range cases {
		got := StudentTQuantile(0.95, c.nu)
		if math.Abs(got-c.want) > 0.01 {
			t.Errorf("t(0.95, %d) = %v, want %v", c.nu, got, c.want)
		}
	}
	// Large nu converges to z.
	if got := StudentTQuantile(0.95, 500); math.Abs(got-1.95996) > 1e-3 {
		t.Errorf("t with large nu = %v, want ~1.96", got)
	}
}

func TestGeometric(t *testing.T) {
	g := NewRNG(42)
	const trials = 200000
	var sum float64
	counts := make(map[int]int)
	for i := 0; i < trials; i++ {
		v := g.Geometric(0.5)
		if v < 0 {
			t.Fatalf("negative geometric value %d", v)
		}
		sum += float64(v)
		counts[v]++
	}
	// Mean of Geometric(1/2) on {0,1,...} is 1.
	mean := sum / trials
	if math.Abs(mean-1) > 0.02 {
		t.Errorf("geometric mean = %v, want ~1", mean)
	}
	// P(0) should be about 1/2.
	p0 := float64(counts[0]) / trials
	if math.Abs(p0-0.5) > 0.01 {
		t.Errorf("P(X=0) = %v, want ~0.5", p0)
	}
	if g.Geometric(1) != 0 {
		t.Error("Geometric(1) must be 0")
	}
}

func TestGeometricPanics(t *testing.T) {
	g := NewRNG(1)
	for _, p := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Geometric(%v) should panic", p)
				}
			}()
			g.Geometric(p)
		}()
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed should give same stream")
		}
	}
}

// TestRNGOffsetSeedsIndependent draws the first Intn(q) of NewRNG(s) and of
// NewRNG(s+d) over consecutive base seeds s: the pair must be uniform over
// its q² cells, so streams whose seeds sit a fixed offset apart (as the
// engine's, the cluster's and statcheck's seed sequences do) are
// independent. The 90 000 offset is one a lagged-Fibonacci source tied.
func TestRNGOffsetSeedsIndependent(t *testing.T) {
	const bases, alpha = 20_000, 1e-3
	for _, q := range []int{4, 16} {
		for _, d := range []int64{1, 64, 90_000, 1_000_003} {
			counts := make([]int, q*q)
			for s := int64(1); s <= bases; s++ {
				counts[NewRNG(s).Intn(q)*q+NewRNG(s+d).Intn(q)]++
			}
			expected := make([]float64, q*q)
			for i := range expected {
				expected[i] = float64(bases) / float64(q*q)
			}
			stat, crit := ChiSquareStat(counts, expected), ChiSquareQuantile(1-alpha, q*q-1)
			if stat > crit {
				t.Errorf("Intn(%d) of seeds s and s+%d: joint chi-square %.1f > %.1f (df %d)", q, d, stat, crit, q*q-1)
			}
		}
	}
}

// rngSink keeps the benchmarked RNGs on the heap, as they are in use.
var rngSink *RNG

// BenchmarkNewRNG times one seeded RNG — the cost paid per RS-tree node
// buffer, per query and per shard stream open — and Reseed of a live one.
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
}

func TestUniformRange(t *testing.T) {
	g := NewRNG(3)
	for i := 0; i < 1000; i++ {
		v := g.Uniform(-5, 5)
		if v < -5 || v >= 5 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}

func TestAliasDistribution(t *testing.T) {
	weights := []float64{1, 2, 3, 4}
	a, err := NewAlias(weights)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != 4 {
		t.Fatalf("Len = %d", a.Len())
	}
	g := NewRNG(11)
	const trials = 400000
	counts := make([]int, 4)
	for i := 0; i < trials; i++ {
		counts[a.Draw(g)]++
	}
	for i, w := range weights {
		want := w / 10 * trials
		got := float64(counts[i])
		if math.Abs(got-want)/want > 0.02 {
			t.Errorf("category %d: got %v draws, want ~%v", i, got, want)
		}
	}
}

func TestAliasErrors(t *testing.T) {
	if _, err := NewAlias(nil); err == nil {
		t.Error("empty weights should error")
	}
	if _, err := NewAlias([]float64{0, 0}); err == nil {
		t.Error("all-zero weights should error")
	}
	if _, err := NewAlias([]float64{1, -1}); err == nil {
		t.Error("negative weight should error")
	}
}

func TestAliasZeroWeightNeverDrawn(t *testing.T) {
	a, err := NewAlias([]float64{0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	g := NewRNG(5)
	for i := 0; i < 10000; i++ {
		if got := a.Draw(g); got != 1 {
			t.Fatalf("drew zero-weight category %d", got)
		}
	}
}

func TestChiSquareQuantile(t *testing.T) {
	// Reference values: chi2(0.95, k).
	cases := []struct {
		k    int
		want float64
	}{
		{5, 11.070},
		{10, 18.307},
		{50, 67.505},
		{100, 124.342},
	}
	for _, c := range cases {
		got := ChiSquareQuantile(0.95, c.k)
		if math.Abs(got-c.want)/c.want > 0.01 {
			t.Errorf("chi2(0.95, %d) = %v, want %v", c.k, got, c.want)
		}
	}
}

func TestChiSquareStat(t *testing.T) {
	obs := []int{10, 20, 30}
	exp := []float64{20, 20, 20}
	got := ChiSquareStat(obs, exp)
	want := 100.0/20 + 0 + 100.0/20
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("ChiSquareStat = %v, want %v", got, want)
	}
}

func TestDistributionalHelpers(t *testing.T) {
	g := NewRNG(22)
	var expSum, normSum float64
	const n = 100000
	for i := 0; i < n; i++ {
		expSum += g.ExpFloat64()
		normSum += g.NormFloat64()
	}
	if m := expSum / n; math.Abs(m-1) > 0.02 {
		t.Errorf("exp mean = %v, want ~1", m)
	}
	if m := normSum / n; math.Abs(m) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", m)
	}
	if g.Int63() < 0 {
		t.Error("Int63 must be non-negative")
	}
	perm := g.Perm(10)
	seen := map[int]bool{}
	for _, v := range perm {
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Errorf("Perm not a permutation: %v", perm)
	}
}

func TestBernoulliRates(t *testing.T) {
	g := NewRNG(23)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if g.Bernoulli(0.3) {
			hits++
		}
	}
	if rate := float64(hits) / n; math.Abs(rate-0.3) > 0.01 {
		t.Errorf("bernoulli rate = %v", rate)
	}
}

func TestChiSquarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched lengths should panic")
		}
	}()
	ChiSquareStat([]int{1}, []float64{1, 2})
}

func TestChiSquareZeroExpectedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero expected should panic")
		}
	}()
	ChiSquareStat([]int{1}, []float64{0})
}

func TestChiSquareQuantilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("k=0 should panic")
		}
	}()
	ChiSquareQuantile(0.95, 0)
}

func TestStudentTPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nu=0 should panic")
		}
	}()
	StudentTQuantile(0.95, 0)
}

func TestShuffleIntsPermutes(t *testing.T) {
	g := NewRNG(9)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	orig := append([]int(nil), xs...)
	g.ShuffleInts(xs)
	seen := make(map[int]bool)
	for _, v := range xs {
		seen[v] = true
	}
	for _, v := range orig {
		if !seen[v] {
			t.Fatalf("shuffle lost element %d", v)
		}
	}
}

// bisectStudentT200 is StudentTQuantile's solve as it was before the early
// exit and the memo: all 200 rounds, nothing remembered.
func bisectStudentT200(confidence float64, nu int) float64 {
	target := 0.5 + confidence/2
	lo, hi := 0.0, 1e3
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if studentTCDF(mid, float64(nu)) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

func TestStudentTQuantileBitIdenticalToFullBisection(t *testing.T) {
	for _, conf := range []float64{0.80, 0.90, 0.95, 0.99, 0.999} {
		for nu := 1; nu <= tMaxNu; nu++ {
			want := math.Float64bits(bisectStudentT200(conf, nu))
			// Twice: the first call solves (or bypasses), the second reads
			// the memo when the level has a row.
			for pass := 0; pass < 2; pass++ {
				if got := math.Float64bits(StudentTQuantile(conf, nu)); got != want {
					t.Fatalf("pass %d: t(%v, %d) = %x, want %x", pass, conf, nu, got, want)
				}
			}
		}
	}
}

func TestStudentTMemoStaysFixedUnderDistinctConfidences(t *testing.T) {
	held := StudentTQuantile(0.95, 7)
	for i := 0; i < 10000; i++ {
		conf := 0.5 + 0.49*float64(i)/10000
		nu := 1 + i%tMaxNu
		if got, want := StudentTQuantile(conf, nu), bisectStudentT200(conf, nu); got != want {
			t.Fatalf("t(%v, %d) = %v, want %v", conf, nu, got, want)
		}
	}
	rows := 0
	for i := range tMemo {
		if tMemo[i].conf.Load() != 0 {
			rows++
		}
	}
	if rows != len(tMemo) {
		t.Errorf("memo holds %d levels after 10000 distinct ones, want all %d rows taken and no more", rows, len(tMemo))
	}
	if got := StudentTQuantile(0.95, 7); got != held {
		t.Errorf("t(0.95, 7) = %v after the flood, was %v", got, held)
	}
	// Levels that are not confidences never take a row.
	for _, conf := range []float64{0, 1, -0.5, 1.5, math.NaN()} {
		if tMemoCell(conf, 3) != nil {
			t.Errorf("confidence %v was given a memo row", conf)
		}
	}
}

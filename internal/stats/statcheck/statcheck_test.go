package statcheck

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"storm/internal/stats"
)

// recordTB captures failures from the checks under test. The embedded
// testing.TB satisfies the interface's unexported method; every method
// the harness calls is overridden. Fatalf panics with a sentinel (real
// Fatalf never returns), which callers recover via expectFatal.
type recordTB struct {
	testing.TB
	failed bool
	msg    string
}

type fatalSentinel struct{ msg string }

func (r *recordTB) Helper()                         {}
func (r *recordTB) Logf(format string, args ...any) {}
func (r *recordTB) Errorf(format string, args ...any) {
	r.failed = true
	r.msg = format
}
func (r *recordTB) Fatalf(format string, args ...any) {
	panic(fatalSentinel{msg: format})
}

// expectFatal runs fn and reports whether it aborted via Fatalf.
func expectFatal(fn func()) (fatal bool) {
	defer func() {
		if rec := recover(); rec != nil {
			if _, ok := rec.(fatalSentinel); ok {
				fatal = true
				return
			}
			panic(rec)
		}
	}()
	fn()
	return false
}

func TestSeedsDistinct(t *testing.T) {
	seeds := Seeds(42, 500)
	seen := make(map[int64]bool, len(seeds))
	for _, s := range seeds {
		if seen[s] {
			t.Fatalf("duplicate seed %d", s)
		}
		seen[s] = true
	}
	if other := Seeds(42, 500); other[100] != seeds[100] {
		t.Fatalf("Seeds not deterministic: %d vs %d", other[100], seeds[100])
	}
}

func TestIntervalCovers(t *testing.T) {
	iv := IntervalAround(10, 2)
	for _, tc := range []struct {
		truth float64
		want  bool
	}{{10, true}, {8, true}, {12, true}, {7.9, false}, {12.1, false}} {
		if got := iv.Covers(tc.truth); got != tc.want {
			t.Errorf("Covers(%v) = %v, want %v", tc.truth, got, tc.want)
		}
	}
	inf := Interval{Low: math.Inf(-1), High: math.Inf(1)}
	if !inf.Covers(1e300) {
		t.Error("infinite interval should cover everything")
	}
}

// nominalIntervals simulates n runs whose intervals cover truth with
// probability p each — the null model of a correctly calibrated CI.
func nominalIntervals(n int, p float64, truth float64, seed int64) []Interval {
	rng := stats.NewRNG(seed)
	out := make([]Interval, n)
	for i := range out {
		if rng.Float64() < p {
			out[i] = IntervalAround(truth, 1)
		} else {
			out[i] = IntervalAround(truth+3, 1) // miss
		}
	}
	return out
}

func TestCoverageAcceptsNominalRate(t *testing.T) {
	// True coverage exactly at nominal: must pass (up to the alpha budget;
	// the seed is fixed, so this is a one-time draw).
	ivs := nominalIntervals(400, 0.95, 100, 1)
	rec := &recordTB{}
	Coverage(rec, "nominal", 100, ivs, 0.95, 0.02, DefaultAlpha)
	if rec.failed {
		t.Fatalf("Coverage rejected a correctly calibrated CI: %s", rec.msg)
	}
}

func TestCoverageRejectsGrossUndercoverage(t *testing.T) {
	ivs := nominalIntervals(400, 0.70, 100, 2)
	rec := &recordTB{}
	Coverage(rec, "undercovering", 100, ivs, 0.95, 0.02, DefaultAlpha)
	if !rec.failed {
		t.Fatal("Coverage accepted a CI covering only ~70% at nominal 95%")
	}
}

func TestCoverageGuards(t *testing.T) {
	if !expectFatal(func() {
		Coverage(&recordTB{}, "empty", 0, nil, 0.95, 0.02, DefaultAlpha)
	}) {
		t.Error("Coverage should refuse an empty interval set")
	}
	if !expectFatal(func() {
		Coverage(&recordTB{}, "no-rate", 0, make([]Interval, 10), 0.5, 0.5, DefaultAlpha)
	}) {
		t.Error("Coverage should refuse nominal − slack ≤ 0")
	}
}

func TestUniformAcceptsUniformCounts(t *testing.T) {
	rng := stats.NewRNG(3)
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		counts[rng.Intn(10)]++
	}
	rec := &recordTB{}
	Uniform(rec, "uniform", counts, DefaultAlpha)
	if rec.failed {
		t.Fatalf("Uniform rejected uniform counts: %s", rec.msg)
	}
}

func TestUniformRejectsSkewedCounts(t *testing.T) {
	rng := stats.NewRNG(4)
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		// Category 0 drawn twice as often as each other category.
		r := rng.Intn(11)
		if r == 10 {
			r = 0
		}
		counts[r]++
	}
	rec := &recordTB{}
	Uniform(rec, "skewed", counts, DefaultAlpha)
	if !rec.failed {
		t.Fatal("Uniform accepted a 2x-skewed category")
	}
}

func TestGoodnessOfFitValidityGuard(t *testing.T) {
	if !expectFatal(func() {
		GoodnessOfFit(&recordTB{}, "sparse", []int{1, 2, 3}, []float64{2, 2, 2}, DefaultAlpha)
	}) {
		t.Error("GoodnessOfFit should refuse expected counts below 5")
	}
	if !expectFatal(func() {
		Uniform(&recordTB{}, "one-category", []int{10}, DefaultAlpha)
	}) {
		t.Error("Uniform should refuse a single category")
	}
}

func TestMeanWithinAcceptsUnbiased(t *testing.T) {
	rng := stats.NewRNG(5)
	vals := make([]float64, 300)
	for i := range vals {
		vals[i] = 50 + rng.NormFloat64()
	}
	rec := &recordTB{}
	MeanWithin(rec, "unbiased", 50, vals, 0, DefaultAlpha)
	if rec.failed {
		t.Fatalf("MeanWithin rejected an unbiased estimator: %s", rec.msg)
	}
}

func TestMeanWithinRejectsBiased(t *testing.T) {
	rng := stats.NewRNG(6)
	vals := make([]float64, 300)
	for i := range vals {
		vals[i] = 51 + rng.NormFloat64() // bias of 1 ≈ 17 standard errors at n=300
	}
	rec := &recordTB{}
	MeanWithin(rec, "biased", 50, vals, 0, DefaultAlpha)
	if !rec.failed {
		t.Fatal("MeanWithin accepted a clearly biased estimator")
	}
}

func TestMeanWithinGuard(t *testing.T) {
	if !expectFatal(func() {
		MeanWithin(&recordTB{}, "few", 0, make([]float64, 5), 0, DefaultAlpha)
	}) {
		t.Error("MeanWithin should refuse fewer than 30 runs")
	}
}

// TestMessagesNameTheCheck pins that failure messages carry the caller's
// check name, since one statistical suite runs many named checks.
func TestMessagesNameTheCheck(t *testing.T) {
	ivs := nominalIntervals(400, 0.5, 100, 7)
	rec := &recordTB{}
	Coverage(rec, "my-check", 100, ivs, 0.95, 0.02, DefaultAlpha)
	if !rec.failed || !strings.Contains(rec.msg, "%s") && !strings.Contains(rec.msg, "my-check") {
		// rec.msg stores the format string; the name is its first verb.
		if !strings.HasPrefix(rec.msg, "%s") {
			t.Errorf("failure message should lead with the check name, got format %q", rec.msg)
		}
	}
}

// TestSeedsCalibrated checks the harness itself: one Intn(k) per seeded
// trial over Seeds must look like independent uniform draws, or every
// suite's alpha is fiction. Over replicates, the goodness-of-fit
// chi-square of the trials' draws must have its nominal law: mean k−1, and
// the share of replicates past the 90th percentile near 10%.
func TestSeedsCalibrated(t *testing.T) {
	const reps, trials, tail = 200, 4000, 0.1
	for _, k := range []int{4, 16, 64} {
		crit := stats.ChiSquareQuantile(1-tail, k-1)
		chi := make([]float64, reps)
		exceed := 0
		for r := range chi {
			counts := make([]int, k)
			for _, seed := range Seeds(int64(r), trials) {
				counts[stats.NewRNG(seed).Intn(k)]++
			}
			expected := make([]float64, k)
			for i := range expected {
				expected[i] = float64(trials) / float64(k)
			}
			chi[r] = stats.ChiSquareStat(counts, expected)
			if chi[r] > crit {
				exceed++
			}
		}
		name := fmt.Sprintf("chi-square of Intn(%d) over Seeds", k)
		MeanWithin(t, name, float64(k-1), chi, 0, DefaultAlpha)
		want, sd := reps*tail, math.Sqrt(reps*tail*(1-tail))
		if z := stats.NormalQuantile(1 - DefaultAlpha/2); math.Abs(float64(exceed)-want) > z*sd {
			t.Errorf("%s: %d of %d replicates past the %.0f%% quantile %.2f, want %.0f ± %.1f",
				name, exceed, reps, 100*(1-tail), crit, want, z*sd)
		} else {
			t.Logf("%s: %d of %d replicates past the %.0f%% quantile", name, exceed, reps, 100*(1-tail))
		}
	}
}

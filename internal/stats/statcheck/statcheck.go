// Package statcheck is a reusable statistical correctness harness for the
// sampling and estimation layers: chi-square uniformity checks,
// CI-coverage-rate checks, and unbiasedness checks, each with an explicit,
// documented false-positive budget.
//
// # Why a harness
//
// STORM's correctness claims are statistical — "the sample stream is
// uniform", "the 95% interval covers the truth 95% of the time", "the
// estimator is unbiased across the down→up transition" — so their tests
// must be statistical too. A naive assertion ("coverage ≥ 95% in 100
// runs") is either flaky (the true coverage IS ~95%, so ~half of all runs
// fall below it) or vacuous (a threshold low enough to never flake
// detects nothing). Every check here instead frames the assertion as a
// hypothesis test at significance alpha: the test statistic's
// distribution under the null ("the code is correct") is known, the
// rejection threshold is derived from alpha, and alpha IS the documented
// false-positive budget — with seeded RNGs the draw is made exactly once,
// so a passing seed set passes forever and the budget is spent only when
// a seed or the code changes.
//
// # False-positive budgets
//
// DefaultAlpha (1e-3) bounds each check's probability of failing on
// correct code to 0.1% per (code change, seed set) pair. Under
// continuous-integration reruns of fixed seeds the realized flake rate is
// zero: the randomness is in the seeds, not the scheduler. Callers pass a
// different alpha to trade sensitivity against budget; tightening alpha
// (say 1e-4) widens the acceptance region and weakens detection of real
// bias, so the default is deliberately not microscopic.
package statcheck

import (
	"math"
	"testing"

	"storm/internal/stats"
)

// DefaultAlpha is the per-check false-positive budget used by this
// repository's statistical suites: a check on correct code fails with
// probability at most 1e-3 per seed-set/code revision.
const DefaultAlpha = 1e-3

// Seeds derives n distinct deterministic seeds from base — the fixed seed
// sets the statistical suites run under. Distinctness is all that matters:
// stats.NewRNG keys its generator through SplitMix64, so distinct seeds give
// independent runs at any spacing, and reusing a seed silently halves the
// effective sample size of a coverage or uniformity check.
func Seeds(base int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = base + int64(i)*1_000_003
	}
	return out
}

// Interval is one confidence interval produced by a run under test.
type Interval struct {
	Low, High float64
}

// IntervalAround builds the symmetric interval value ± halfWidth.
func IntervalAround(value, halfWidth float64) Interval {
	return Interval{Low: value - halfWidth, High: value + halfWidth}
}

// Covers reports whether the interval contains truth. Infinite bounds
// count as covering (an honest "don't know yet" interval is not a miss).
func (iv Interval) Covers(truth float64) bool {
	return iv.Low <= truth && truth <= iv.High
}

// Coverage checks a CI coverage rate: of the intervals produced by
// len(intervals) independent seeded runs, at least nominal−slack should
// cover truth. nominal is the intervals' confidence level (e.g. 0.95);
// slack absorbs known, documented approximation error (t-distribution
// asymptotics, mid-stream population transitions) — the acceptance line
// is p0 = nominal − slack. The check rejects only when the observed
// coverage count falls more than z_alpha binomial standard deviations
// below n·p0, so on code whose true coverage is ≥ p0 it fails with
// probability at most alpha (one-sided normal approximation; n ≥ 100
// keeps the approximation honest). Failing the check means the intervals
// are materially under-covering — too narrow or biased — not that one
// unlucky run missed.
func Coverage(t testing.TB, name string, truth float64, intervals []Interval, nominal, slack, alpha float64) {
	t.Helper()
	n := len(intervals)
	if n == 0 {
		t.Fatalf("%s: no intervals to check", name)
	}
	covered := 0
	for _, iv := range intervals {
		if iv.Covers(truth) {
			covered++
		}
	}
	p0 := nominal - slack
	if p0 <= 0 || p0 >= 1 {
		t.Fatalf("%s: nominal %.3f − slack %.3f leaves no testable rate", name, nominal, slack)
	}
	z := stats.NormalQuantile(1 - alpha)
	threshold := float64(n)*p0 - z*math.Sqrt(float64(n)*p0*(1-p0))
	rate := float64(covered) / float64(n)
	if float64(covered) < threshold {
		t.Errorf("%s: CI covered truth %.6g in %d/%d runs (%.1f%%); need ≥ %.1f runs for nominal %.0f%% − slack %.1f%% at alpha %.0e",
			name, truth, covered, n, 100*rate, threshold, 100*nominal, 100*slack, alpha)
		return
	}
	t.Logf("%s: coverage %d/%d (%.1f%%) ≥ threshold %.1f (nominal %.0f%%, slack %.1f%%, alpha %.0e)",
		name, covered, n, 100*rate, threshold, 100*nominal, 100*slack, alpha)
}

// Uniform checks that observed category counts are consistent with a
// uniform distribution over the categories, by a chi-square
// goodness-of-fit test at significance alpha. The classical validity
// rule of thumb wants expected counts ≥ 5 per category; the check fails
// fast when the draw count is too small for the category count rather
// than silently testing nothing.
func Uniform(t testing.TB, name string, observed []int, alpha float64) {
	t.Helper()
	k := len(observed)
	if k < 2 {
		t.Fatalf("%s: need ≥ 2 categories, got %d", name, k)
	}
	total := 0
	for _, c := range observed {
		total += c
	}
	expected := make([]float64, k)
	for i := range expected {
		expected[i] = float64(total) / float64(k)
	}
	GoodnessOfFit(t, name, observed, expected, alpha)
}

// GoodnessOfFit checks observed counts against arbitrary expected counts
// by a chi-square test at significance alpha: the statistic exceeds the
// (1−alpha) chi-square quantile with probability alpha when the code
// draws from the expected distribution, so alpha is the check's
// false-positive budget.
func GoodnessOfFit(t testing.TB, name string, observed []int, expected []float64, alpha float64) {
	t.Helper()
	if len(observed) != len(expected) {
		t.Fatalf("%s: %d observed vs %d expected categories", name, len(observed), len(expected))
	}
	for i, e := range expected {
		if e < 5 {
			t.Fatalf("%s: expected count %.2f in category %d below 5; draw more samples or merge categories (chi-square validity)", name, e, i)
		}
	}
	stat := stats.ChiSquareStat(observed, expected)
	crit := stats.ChiSquareQuantile(1-alpha, len(observed)-1)
	if stat > crit {
		t.Errorf("%s: chi-square %.2f > critical %.2f (df=%d, alpha=%.0e): counts inconsistent with the expected distribution",
			name, stat, crit, len(observed)-1, alpha)
		return
	}
	t.Logf("%s: chi-square %.2f ≤ critical %.2f (df=%d, alpha=%.0e)", name, stat, crit, len(observed)-1, alpha)
}

// MeanWithin checks unbiasedness: the mean of values (one estimate per
// independent seeded run) should equal truth up to sampling noise. The
// acceptance region is truth ± (z_alpha·SE + slack), where SE is the
// values' estimated standard error — a two-sided z-test at significance
// alpha, widened by slack for known, documented approximation error
// (pass 0 when claiming exact unbiasedness). Requires enough runs for
// the CLT normal approximation (n ≥ 30).
func MeanWithin(t testing.TB, name string, truth float64, values []float64, slack, alpha float64) {
	t.Helper()
	n := len(values)
	if n < 30 {
		t.Fatalf("%s: need ≥ 30 runs for the normal approximation, got %d", name, n)
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	mean := sum / float64(n)
	var ss float64
	for _, v := range values {
		d := v - mean
		ss += d * d
	}
	se := math.Sqrt(ss / float64(n-1) / float64(n))
	z := stats.NormalQuantile(1 - alpha/2)
	tol := z*se + slack
	if diff := math.Abs(mean - truth); diff > tol {
		t.Errorf("%s: mean of %d runs = %.6g, truth = %.6g, |diff| %.6g > tolerance %.6g (z=%.2f·SE=%.6g + slack %.6g, alpha=%.0e): estimator biased",
			name, n, mean, truth, diff, tol, z, se, slack, alpha)
		return
	}
	t.Logf("%s: mean %.6g within %.6g of truth %.6g over %d runs (alpha=%.0e)", name, mean, tol, truth, n, alpha)
}

// Package estimator implements STORM's online estimators: unbiased
// aggregate estimates computed incrementally from spatial online samples,
// with confidence intervals that tighten as samples arrive (the "feature
// module" of the paper's architecture).
//
// The statistical machinery is the standard online-aggregation toolkit the
// paper builds on (Hellerstein et al., Haas): the sample mean is an
// unbiased estimator of the population mean, its variance shrinks as 1/k
// (times a finite-population correction for without-replacement sampling),
// and the central limit theorem yields confidence intervals. SUM and COUNT
// scale the mean by the known population size q = |P ∩ Q|, which STORM
// obtains exactly from R-tree subtree counts.
package estimator

import (
	"fmt"
	"math"

	"storm/internal/stats"
)

// Welford accumulates a running mean and variance using Welford's
// numerically stable online algorithm. The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean (0 before any observation).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the population variance of the observations.
func (w *Welford) Variance() float64 {
	if w.n == 0 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// SampleVariance returns the unbiased (n-1) sample variance.
func (w *Welford) SampleVariance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Kind identifies the aggregate an Estimator targets.
type Kind int

// Supported aggregate kinds.
const (
	Avg Kind = iota
	Sum
	Count
	Min // exact over the records sampled so far; no CI
	Max // exact over the records sampled so far; no CI
	// Variance estimates the population variance; its CI uses the
	// normal approximation SE(s²) ≈ s²·√(2/(k-1)), adequate for the
	// moderately-tailed attributes online aggregation targets.
	Variance
	// Stddev is the square root of Variance (delta-method CI).
	Stddev
	// Median and Quant are order statistics served by the Quantile
	// estimator (New rejects them; the engine routes them there).
	Median
	Quant
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Avg:
		return "AVG"
	case Sum:
		return "SUM"
	case Count:
		return "COUNT"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	case Variance:
		return "VARIANCE"
	case Stddev:
		return "STDDEV"
	case Median:
		return "MEDIAN"
	case Quant:
		return "QUANTILE"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Estimate is a point-in-time snapshot of an online estimator.
type Estimate struct {
	Kind Kind
	// Value is the current unbiased point estimate.
	Value float64
	// HalfWidth is the half-width of the confidence interval around
	// Value at the estimator's confidence level; +Inf before two samples
	// have arrived, 0 once the estimate is exact.
	HalfWidth float64
	// Confidence is the configured confidence level, e.g. 0.95.
	Confidence float64
	// Samples is the number of samples consumed.
	Samples int
	// Population is q = |P ∩ Q| when known, else -1.
	Population int
	// Exact reports that the estimate is no longer an estimate: the
	// sample has exhausted the population.
	Exact bool
}

// RelativeErrorBound returns HalfWidth / |Value|, the guaranteed relative
// error at the confidence level, or +Inf when the value is zero.
func (e Estimate) RelativeErrorBound() float64 {
	if e.Value == 0 {
		if e.HalfWidth == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return e.HalfWidth / math.Abs(e.Value)
}

// String formats the estimate the way STORM's query interface reports it.
func (e Estimate) String() string {
	if e.Exact {
		return fmt.Sprintf("%s = %.6g (exact, %d records)", e.Kind, e.Value, e.Samples)
	}
	return fmt.Sprintf("%s ≈ %.6g ± %.4g (%.0f%% confidence, %d samples)",
		e.Kind, e.Value, e.HalfWidth, e.Confidence*100, e.Samples)
}

// Estimator is an online aggregate estimator fed one sampled attribute
// value at a time.
type Estimator struct {
	kind       Kind
	confidence float64
	population int // q, or -1 when unknown
	withoutRep bool
	w          Welford
	min, max   float64
}

// New returns an estimator for the given aggregate.
//
// population is q = |P ∩ Q| when known (required for Sum and Count, used
// for the finite-population correction otherwise); pass -1 when unknown.
// withoutReplacement must reflect how the feeding sampler operates so the
// finite-population correction is applied correctly.
func New(kind Kind, confidence float64, population int, withoutReplacement bool) (*Estimator, error) {
	if confidence <= 0 || confidence >= 1 {
		return nil, fmt.Errorf("estimator: confidence %v outside (0, 1)", confidence)
	}
	if (kind == Sum || kind == Count) && population < 0 {
		return nil, fmt.Errorf("estimator: %v requires a known population size", kind)
	}
	if kind == Median || kind == Quant {
		return nil, fmt.Errorf("estimator: %v is served by the Quantile estimator", kind)
	}
	return &Estimator{
		kind:       kind,
		confidence: confidence,
		population: population,
		withoutRep: withoutReplacement,
		min:        math.Inf(1),
		max:        math.Inf(-1),
	}, nil
}

// MustNew is New for arguments known to be valid.
func MustNew(kind Kind, confidence float64, population int, withoutReplacement bool) *Estimator {
	e, err := New(kind, confidence, population, withoutReplacement)
	if err != nil {
		panic(err)
	}
	return e
}

// SetPopulation re-targets the estimator at a population of size n (pass
// -1 for unknown). The distributed coordinator calls this when shards are
// lost mid-query: the sample stream then covers only the surviving
// population, and shrinking the effective N keeps the point estimate,
// SUM/COUNT scaling, and finite-population correction honest over the
// survivors instead of silently biasing toward a population that can no
// longer be sampled (graceful degradation; see DESIGN.md §4.3).
func (e *Estimator) SetPopulation(n int) {
	if n < 0 {
		n = -1
	}
	e.population = n
}

// Population returns the estimator's current effective population size
// (q = |P ∩ Q| over the reachable shards), or -1 when unknown.
func (e *Estimator) Population() int { return e.population }

// Add feeds one sampled attribute value. NaN values (records missing the
// attribute) are skipped entirely, mirroring SQL NULL semantics: they
// contribute to neither the aggregate nor the sample count.
func (e *Estimator) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	e.w.Add(x)
	if x < e.min {
		e.min = x
	}
	if x > e.max {
		e.max = x
	}
}

// Samples returns the number of non-NaN samples consumed.
func (e *Estimator) Samples() int { return e.w.N() }

// Snapshot returns the current estimate.
func (e *Estimator) Snapshot() Estimate {
	k := e.w.N()
	out := Estimate{
		Kind:       e.kind,
		Confidence: e.confidence,
		Samples:    k,
		Population: e.population,
	}
	exhausted := e.withoutRep && e.population >= 0 && k >= e.population

	switch e.kind {
	case Min:
		out.Value = e.min
		out.HalfWidth = math.Inf(1)
		out.Exact = exhausted
		if k == 0 {
			out.Value = math.NaN()
		}
		return out
	case Max:
		out.Value = e.max
		out.HalfWidth = math.Inf(1)
		out.Exact = exhausted
		if k == 0 {
			out.Value = math.NaN()
		}
		return out
	case Count:
		// With exact range counting available, COUNT is trivially the
		// population; the estimator form exists for API symmetry and
		// for sources without counts.
		out.Value = float64(e.population)
		out.Exact = true
		return out
	}

	mean := e.w.Mean()
	variance := e.w.SampleVariance()

	if e.kind == Variance || e.kind == Stddev {
		// Population variance estimated by the unbiased sample
		// variance. The paper's example reports "a standard deviation
		// of 25 kWh" alongside the mean, so both are first-class.
		out.Value = variance
		if e.kind == Stddev {
			out.Value = math.Sqrt(variance)
		}
		if exhausted {
			out.Exact = true
			return out
		}
		if k < 2 {
			out.HalfWidth = math.Inf(1)
			return out
		}
		z := stats.ZScore(e.confidence)
		seVar := variance * math.Sqrt(2/float64(k-1))
		if e.kind == Variance {
			out.HalfWidth = z * seVar
		} else if variance > 0 {
			// Delta method: SE(s) ≈ SE(s²) / (2s).
			out.HalfWidth = z * seVar / (2 * math.Sqrt(variance))
		}
		return out
	}

	scale := 1.0
	if e.kind == Sum {
		scale = float64(e.population)
	}
	out.Value = mean * scale

	if exhausted {
		out.Exact = true
		out.HalfWidth = 0
		return out
	}
	if k < 2 {
		out.HalfWidth = math.Inf(1)
		return out
	}

	se := math.Sqrt(variance / float64(k))
	if e.withoutRep && e.population > 1 {
		// Finite-population correction for sampling without
		// replacement from a population of size q.
		fpc := float64(e.population-k) / float64(e.population-1)
		if fpc < 0 {
			fpc = 0
		}
		se *= math.Sqrt(fpc)
	}
	crit := stats.StudentTQuantile(e.confidence, k-1)
	out.HalfWidth = crit * se * scale
	return out
}

// Need inverts the estimate's confidence interval at the current variance:
// it returns how many more samples the interval needs before its half-width
// reaches the target — relErr relative to the estimate or halfWidth
// absolute, whichever is looser, as the engine's stopping rule reads them.
// AVG, SUM and COUNT account for the finite-population correction of
// without-replacement sampling; VARIANCE and STDDEV shrink as
// 1/√(2(k−1)). The need is unbounded (math.MaxInt) when there is no target
// or the interval cannot reach it (MIN, MAX, a zero estimate against a
// relative target), and unknown (ok false) before two samples.
func (e *Estimator) Need(relErr, halfWidth float64) (n int, ok bool) {
	k := e.w.N()
	if k < 2 {
		return 0, false
	}
	snap := e.Snapshot()
	if snap.Exact {
		return 0, true
	}
	target := halfWidth
	if relErr > 0 {
		target = math.Max(target, relErr*math.Abs(snap.Value))
	}
	if !(target > 0) || math.IsInf(snap.HalfWidth, 0) {
		return math.MaxInt, true
	}
	r := (snap.HalfWidth / target) * (snap.HalfWidth / target)
	var total float64
	switch e.kind {
	case Variance, Stddev:
		total = 1 + float64(k-1)*r
	default:
		total = float64(k) * r
		if e.withoutRep && e.population > 1 {
			n := float64(e.population)
			total = n * total / (total + n - float64(k))
		}
	}
	if !(total < math.MaxInt/2) {
		return math.MaxInt, true
	}
	return max(0, int(math.Ceil(total))-k), true
}

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

// M2 returns the sum of squared deviations from the mean.
func (w *Welford) M2() float64 { return w.m2 }

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

// FromMoments returns the accumulator of n observations with the given
// mean and sum of squared deviations m2.
func FromMoments(n int, mean, m2 float64) Welford {
	if n <= 0 {
		return Welford{}
	}
	return Welford{n: n, mean: mean, m2: m2}
}

// Merge folds o's observations into w by Chan, Golub and LeVeque's
// pairwise update, so two disjoint sets summed apart and merged hold the
// moments a single pass over both would, up to rounding.
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	d := o.mean - w.mean
	w.mean += d * float64(o.n) / float64(n)
	w.m2 += o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	w.n = n
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
	// w holds the present (non-NaN) values, seen every record consumed:
	// SUM and exactness count the records missing the attribute too.
	w        Welford
	seen     int
	min, max float64
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

// Add feeds one sampled attribute value. A NaN (a record missing the
// attribute) is a record without a value, as SQL's NULL: AVG, VARIANCE,
// STDDEV, MIN and MAX range over the present values only, SUM adds it as
// 0, and it counts toward the records the estimate has seen.
func (e *Estimator) Add(x float64) {
	e.seen++
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

// AddMoments feeds the records of an exact pass at once: records of them,
// whose present values have the moments w. MIN and MAX are not moments;
// their estimators must be fed by Add.
func (e *Estimator) AddMoments(records int, w Welford) {
	e.seen += records
	e.w.Merge(w)
}

// Samples returns the number of non-NaN samples consumed.
func (e *Estimator) Samples() int { return e.w.N() }

// Moments returns the moments of the present values consumed.
func (e *Estimator) Moments() Welford { return e.w }

// Snapshot returns the current estimate.
func (e *Estimator) Snapshot() Estimate {
	k := e.w.N()
	out := Estimate{
		Kind:       e.kind,
		Confidence: e.confidence,
		Samples:    e.seen,
		Population: e.population,
	}
	exhausted := e.withoutRep && e.population >= 0 && e.seen >= e.population

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

	w := e.w
	scale := 1.0
	if e.kind == Sum {
		// SUM estimates q times the mean per record seen, a missing value
		// counting as 0: its mean and variance are over every record.
		w.Merge(Welford{n: e.seen - k})
		mean, variance, k = w.Mean(), w.SampleVariance(), w.N()
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
		// replacement from a population of size q, of which the
		// estimate has seen the fraction seen/q.
		fpc := float64(e.population-e.seen) / float64(e.population-1)
		if fpc < 0 {
			fpc = 0
		}
		se *= math.Sqrt(fpc)
	}
	crit := stats.StudentTQuantile(e.confidence, k-1)
	out.HalfWidth = crit * se * scale
	return out
}

// Need is how many samples an estimate of kind needs before its interval
// at confidence z (a normal quantile) narrows to the relative half-width
// relErr, over values of coefficient of variation cv: (z·cv/ε)² for AVG and
// SUM, whose relative half-width is z·cv/√k; 1 + 2(z/ε)² for VARIANCE,
// whose is z·√(2/(k−1)); and 1 + (z/ε)²/2 for STDDEV, half that by the
// delta method. It ignores the finite-population correction, so a
// without-replacement stream may need fewer. The need is unbounded
// (math.MaxInt) without a target or for a kind without a CLT interval.
func Need(kind Kind, z, cv, relErr float64) int {
	var k float64
	switch e := z / relErr; kind {
	case Avg, Sum:
		k = (e * cv) * (e * cv)
	case Variance:
		k = 1 + 2*e*e
	case Stddev:
		k = 1 + e*e/2
	default:
		return math.MaxInt
	}
	if !(relErr > 0) || !(k < math.MaxInt/2) {
		return math.MaxInt
	}
	return int(math.Ceil(k))
}

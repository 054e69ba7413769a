// Package stats provides the statistical substrate for STORM's online
// estimators and samplers: seeded random number generation, distribution
// quantiles for confidence intervals, shuffles, and weighted sampling via
// the alias method.
package stats

import (
	"math"
	"math/rand/v2"
	"sync/atomic"
)

// RNG is the random source used across STORM: math/rand/v2's PCG, keyed by
// a seed so every sampler and generator is deterministic, which keeps the
// statistical tests and benchmark figures reproducible. Both PCG state
// words come from SplitMix64 steps of the seed (MixSeed), so distinct seeds
// give independent streams whatever their spacing. An RNG is used through
// its pointer and never copied: r draws from pcg in place.
type RNG struct {
	pcg rand.PCG
	r   rand.Rand
}

// NewRNG returns an RNG seeded with the given seed.
func NewRNG(seed int64) *RNG {
	g := &RNG{}
	g.Reseed(seed)
	g.r = *rand.New(&g.pcg)
	return g
}

// MixSeed is one SplitMix64 step: a bijection of int64 that scatters
// neighbouring seeds across the whole range. NewRNG keys PCG with it, so
// seeds a fixed offset apart no longer correlate; a second stream that must
// be independent of a first, but follow from the same seed, is seeded with
// MixSeed of the first's seed (equal seeds give the same stream).
func MixSeed(seed int64) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E9B5
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return int64(z ^ z>>31)
}

// Reseed restarts g as NewRNG(seed) would, without allocating.
func (g *RNG) Reseed(seed int64) {
	hi := MixSeed(seed)
	g.pcg.Seed(uint64(hi), uint64(MixSeed(hi)))
}

// Float64 returns a uniform value in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (g *RNG) Intn(n int) int { return g.r.IntN(n) }

// Int63 returns a non-negative uniform 63-bit integer.
func (g *RNG) Int63() int64 { return g.r.Int64() }

// NormFloat64 returns a standard normal variate.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// ExpFloat64 returns an exponential variate with rate 1.
func (g *RNG) ExpFloat64() float64 { return g.r.ExpFloat64() }

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Uniform returns a uniform value in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// Bernoulli returns true with probability p.
func (g *RNG) Bernoulli(p float64) bool { return g.r.Float64() < p }

// Geometric returns the number of failures before the first success in a
// Bernoulli(p) sequence, i.e. a Geometric(p) variate on {0, 1, 2, ...}.
// Used by the LS-tree to pick the highest level a new record reaches.
func (g *RNG) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("stats: Geometric requires 0 < p <= 1")
	}
	if p == 1 {
		return 0
	}
	// Inverse transform: floor(log(U) / log(1-p)).
	u := g.r.Float64()
	for u == 0 {
		u = g.r.Float64()
	}
	return int(math.Floor(math.Log(u) / math.Log(1-p)))
}

// Shuffle performs a Fisher–Yates shuffle driven by swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// ShuffleInts shuffles xs in place.
func (g *RNG) ShuffleInts(xs []int) {
	g.r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

// NormalQuantile returns the standard normal quantile Phi^{-1}(p) for
// p in (0, 1) using Acklam's rational approximation (relative error below
// 1.15e-9), which is more than enough precision for confidence intervals.
func NormalQuantile(p float64) float64 {
	if math.IsNaN(p) || p <= 0 || p >= 1 {
		switch {
		case p == 0:
			return math.Inf(-1)
		case p == 1:
			return math.Inf(1)
		default:
			return math.NaN()
		}
	}

	// Coefficients for Acklam's approximation.
	a := [6]float64{
		-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00,
	}
	b := [5]float64{
		-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01,
	}
	c := [6]float64{
		-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00,
	}
	d := [4]float64{
		7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00,
	}

	const plow = 0.02425
	const phigh = 1 - plow

	var x float64
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= phigh:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}

	// One step of Halley's method against the erfc-based CDF to polish.
	e := NormalCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x = x - u/(1+x*u/2)
	return x
}

// NormalCDF returns the standard normal CDF Phi(x).
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// ZScore returns the two-sided critical value z such that a standard normal
// variate lands in [-z, z] with the given confidence (e.g. 0.95 -> 1.96).
func ZScore(confidence float64) float64 {
	if confidence <= 0 || confidence >= 1 {
		panic("stats: confidence must be in (0, 1)")
	}
	return NormalQuantile(0.5 + confidence/2)
}

// tMaxNu is the largest ν whose critical value is solved from the t
// distribution; above it the normal quantile stands in.
const tMaxNu = 200

// tMemo holds the critical values already solved, one row per confidence
// level. A query asks for one level at every report point and a deployment
// uses a handful of levels, so the table is a fixed array: a level that
// arrives when every row belongs to another is solved each time it is asked
// for and never displaces one.
var tMemo [8]tMemoRow

type tMemoRow struct {
	// conf is the row's confidence level as float64 bits; 0 marks a free
	// row (0 is not a level the table stores).
	conf atomic.Uint64
	// crit is the critical value for ν = index+1 as float64 bits; 0 marks
	// one not solved yet.
	crit [tMaxNu]atomic.Uint64
}

// tMemoCell returns the table cell for (confidence, nu), claiming a free row
// for a level seen for the first time. It returns nil for a confidence
// outside (0, 1) and when the table is full of other levels.
func tMemoCell(confidence float64, nu int) *atomic.Uint64 {
	if !(confidence > 0 && confidence < 1) {
		return nil
	}
	key := math.Float64bits(confidence)
	for i := range tMemo {
		row := &tMemo[i]
		have := row.conf.Load()
		if have == 0 {
			if row.conf.CompareAndSwap(0, key) {
				return &row.crit[nu-1]
			}
			have = row.conf.Load()
		}
		if have == key {
			return &row.crit[nu-1]
		}
	}
	return nil
}

// StudentTQuantile returns the two-sided critical value of Student's t
// distribution with nu degrees of freedom at the given confidence level.
// Online aggregation uses t-based intervals while the sample is small and
// converges to z-based intervals as nu grows.
func StudentTQuantile(confidence float64, nu int) float64 {
	if nu <= 0 {
		panic("stats: degrees of freedom must be positive")
	}
	if nu > tMaxNu {
		return ZScore(confidence)
	}
	cell := tMemoCell(confidence, nu)
	if cell == nil {
		return solveStudentT(confidence, float64(nu))
	}
	if bits := cell.Load(); bits != 0 {
		return math.Float64frombits(bits)
	}
	t := solveStudentT(confidence, float64(nu))
	cell.Store(math.Float64bits(t))
	return t
}

// solveStudentT solves F(t) = 0.5 + confidence/2 by bisection on the CDF,
// which is evaluated through the regularized incomplete beta function. An
// iteration that moves neither bound is a fixed point of the remaining
// ones — float64 runs out of midpoints after about 64 halvings of [0, 1e3]
// — so stopping there returns what all 200 rounds would.
func solveStudentT(confidence, nu float64) float64 {
	target := 0.5 + confidence/2
	lo, hi := 0.0, 1e3
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if studentTCDF(mid, nu) < target {
			if mid == lo {
				break
			}
			lo = mid
		} else {
			if mid == hi {
				break
			}
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// studentTCDF returns P(T <= t) for Student's t with nu degrees of freedom.
func studentTCDF(t, nu float64) float64 {
	if t == 0 {
		return 0.5
	}
	x := nu / (nu + t*t)
	ib := regIncBeta(nu/2, 0.5, x)
	if t > 0 {
		return 1 - ib/2
	}
	return ib / 2
}

// regIncBeta computes the regularized incomplete beta function I_x(a, b)
// using the continued-fraction expansion (Numerical Recipes betacf).
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lbeta := lgamma(a+b) - lgamma(a) - lgamma(b)
	front := math.Exp(math.Log(x)*a+math.Log(1-x)*b+lbeta) / a
	if x < (a+1)/(a+b+2) {
		return front * betacf(a, b, x)
	}
	// Symmetry relation.
	lbetaSym := math.Exp(math.Log(1-x)*b+math.Log(x)*a+lbeta) / b
	return 1 - lbetaSym*betacf(b, a, 1-x)
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// betacf evaluates the continued fraction for the incomplete beta function.
func betacf(a, b, x float64) float64 {
	const maxIter = 300
	const eps = 3e-14
	const fpmin = 1e-300

	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := float64(2 * m)
		aa := float64(m) * (b - float64(m)) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + float64(m)) * (qab + float64(m)) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

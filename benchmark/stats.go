package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 < p < 1) of sorted by the
// nearest-rank rule. Failed operations enter as +Inf, so they sort last and
// pull every percentile they reach to +Inf.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// tailPerMille are the tail percentiles a timing may be reported at, in
// thousandths so that "ten samples beyond it" is exact integer arithmetic.
var tailPerMille = []int{900, 950, 990, 999}

// beyond is how many of n samples lie beyond the p-quantile.
func beyond(n int, p float64) int { return n * (1000 - int(math.Round(p*1000))) / 1000 }

// tailPercentile returns the highest percentile of tailPerMille that has at
// least ten samples beyond it among n, and false when none has (n < 100).
func tailPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, pm := range tailPerMille {
		if p := float64(pm) / 1000; beyond(n, p) >= 10 {
			best, ok = p, true
		}
	}
	return best, ok
}

// timing summarises one latency sample set: the median, the tail percentile
// the sample count supports, and the count.
type timing struct {
	N      int
	P50    float64
	TailP  float64 // 0 when N is too small for any tail percentile
	Tail   float64
	sorted []float64
}

func summarize(samples []float64) timing {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	t := timing{N: len(s), P50: percentile(s, 0.5), sorted: s}
	if p, ok := tailPercentile(len(s)); ok {
		t.TailP, t.Tail = p, percentile(s, p)
	}
	return t
}

// at returns the p-quantile, or NaN when fewer than ten samples lie beyond it.
func (t timing) at(p float64) float64 {
	if beyond(t.N, p) < 10 {
		return math.NaN()
	}
	return percentile(t.sorted, p)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with quartiles as Python's statistics.quantiles(v,
// n=4) gives them (exclusive method). Fewer than four values give 0.
func quartileSpread(v []float64) float64 {
	if len(v) < 4 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return math.Abs((q(3) - q(1)) / m)
}

package main

import (
	"math"
	"sort"

	"storm/internal/data"
)

// Ground truth the benchmark computes itself: brute force over the dataset
// it regenerates from the same internal/gen seed stormd was started with,
// and running sums over the ingest feed for windowed statements.

// aggTruth holds what AVG, SUM, STDDEV and COUNT over one record set need.
type aggTruth struct {
	N          int
	Sum, SumSq float64
}

func (a *aggTruth) add(x float64) {
	a.N++
	a.Sum += x
	a.SumSq += x * x
}

func (a aggTruth) avg() float64 { return a.Sum / float64(a.N) }

// stddev is the square root of the unbiased (n-1) variance, the definition
// package estimator reports and converges to on exhaustion.
func (a aggTruth) stddev() float64 {
	if a.N < 2 {
		return 0
	}
	v := (a.SumSq - a.Sum*a.Sum/float64(a.N)) / float64(a.N-1)
	return math.Sqrt(math.Max(v, 0))
}

func (a aggTruth) value(agg string) float64 {
	switch agg {
	case "AVG":
		return a.avg()
	case "SUM":
		return a.Sum
	case "STDDEV":
		return a.stddev()
	default: // COUNT
		return float64(a.N)
	}
}

// regionTruth is the truth of one pool region under each predicate kind.
type regionTruth [3]aggTruth

// regionBase scans the dataset once and returns each region's unfiltered
// aggregate, which setThresholds turns into predicates.
func regionBase(ds *data.Dataset, pool []region) []aggTruth {
	out := make([]aggTruth, len(pool))
	scan(ds, pool, func(ri int, alt float64) { out[ri].add(alt) })
	return out
}

// regionTruths scans the dataset again with the thresholds set.
func regionTruths(ds *data.Dataset, pool []region) []regionTruth {
	out := make([]regionTruth, len(pool))
	scan(ds, pool, func(ri int, alt float64) {
		r, t := pool[ri], &out[ri]
		t[predNone].add(alt)
		if alt > r.Above {
			t[predAbove].add(alt)
		}
		if alt >= r.Lo && alt <= r.Hi {
			t[predBetween].add(alt)
		}
	})
	return out
}

// scan calls visit for every (region, record) pair where the closed
// rectangle contains the record.
func scan(ds *data.Dataset, pool []region, visit func(ri int, alt float64)) {
	alts, err := ds.NumericColumn("altitude")
	if err != nil {
		panic(err) // gen.OSM always has the column
	}
	for id := 0; id < ds.Len(); id++ {
		p := ds.Pos(data.ID(id))
		for ri := range pool {
			r := &pool[ri]
			if p[0] >= r.MinX && p[0] <= r.MaxX && p[1] >= r.MinY && p[1] <= r.MaxY {
				visit(ri, alts[id])
			}
		}
	}
}

// window returns the truth over the feed records whose event time lies in
// the closed interval [lo, hi].
func (f *feed) window(lo, hi float64) aggTruth {
	a := sort.SearchFloat64s(f.Times, lo)
	b := sort.Search(len(f.Times), func(i int) bool { return f.Times[i] > hi })
	if b <= a {
		return aggTruth{}
	}
	return aggTruth{N: b - a, Sum: f.CumSum[b] - f.CumSum[a], SumSq: f.CumSq[b] - f.CumSq[a]}
}

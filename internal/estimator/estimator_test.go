package estimator

import (
	"math"
	"testing"

	"storm/internal/stats"
)

func TestWelfordAgainstDirect(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	if w.N() != len(xs) {
		t.Fatalf("N = %d", w.N())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Errorf("mean = %v, want 5", w.Mean())
	}
	if math.Abs(w.Variance()-4) > 1e-12 {
		t.Errorf("variance = %v, want 4", w.Variance())
	}
	if math.Abs(w.SampleVariance()-32.0/7) > 1e-12 {
		t.Errorf("sample variance = %v, want %v", w.SampleVariance(), 32.0/7)
	}
}

func TestAvgEstimatorConverges(t *testing.T) {
	rng := stats.NewRNG(1)
	pop := make([]float64, 10000)
	var trueSum float64
	for i := range pop {
		pop[i] = rng.NormFloat64()*10 + 100
		trueSum += pop[i]
	}
	trueMean := trueSum / float64(len(pop))

	est := MustNew(Avg, 0.95, len(pop), true)
	perm := rng.Perm(len(pop))
	var lastHW float64 = math.Inf(1)
	for i, idx := range perm {
		est.Add(pop[idx])
		if i == 99 || i == 999 {
			snap := est.Snapshot()
			if math.Abs(snap.Value-trueMean) > 4*10/math.Sqrt(float64(i+1)) {
				t.Errorf("k=%d: estimate %v too far from %v", i+1, snap.Value, trueMean)
			}
			if snap.HalfWidth >= lastHW {
				t.Errorf("k=%d: CI should shrink (%v -> %v)", i+1, lastHW, snap.HalfWidth)
			}
			lastHW = snap.HalfWidth
			if snap.Exact {
				t.Error("should not be exact before exhaustion")
			}
		}
	}
	final := est.Snapshot()
	if !final.Exact {
		t.Error("exhausted sample should be exact")
	}
	if math.Abs(final.Value-trueMean) > 1e-9 {
		t.Errorf("exhausted estimate %v != true %v", final.Value, trueMean)
	}
	if final.HalfWidth != 0 {
		t.Errorf("exact estimate should have zero half-width, got %v", final.HalfWidth)
	}
}

func TestSumEstimator(t *testing.T) {
	pop := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	est := MustNew(Sum, 0.95, len(pop), true)
	for _, x := range pop {
		est.Add(x)
	}
	snap := est.Snapshot()
	if !snap.Exact || snap.Value != 55 {
		t.Errorf("sum = %v exact=%v, want 55 exact", snap.Value, snap.Exact)
	}
}

func TestSumRequiresPopulation(t *testing.T) {
	if _, err := New(Sum, 0.95, -1, true); err == nil {
		t.Error("SUM without population should error")
	}
	if _, err := New(Count, 0.95, -1, true); err == nil {
		t.Error("COUNT without population should error")
	}
}

func TestCountIsExact(t *testing.T) {
	est := MustNew(Count, 0.95, 1234, true)
	snap := est.Snapshot()
	if !snap.Exact || snap.Value != 1234 {
		t.Errorf("count snapshot = %+v", snap)
	}
}

func TestMinMax(t *testing.T) {
	min := MustNew(Min, 0.95, 3, true)
	max := MustNew(Max, 0.95, 3, true)
	for _, x := range []float64{5, -2, 7} {
		min.Add(x)
		max.Add(x)
	}
	if got := min.Snapshot(); got.Value != -2 || !got.Exact {
		t.Errorf("min = %+v", got)
	}
	if got := max.Snapshot(); got.Value != 7 || !got.Exact {
		t.Errorf("max = %+v", got)
	}
}

func TestNaNValuesSkipped(t *testing.T) {
	est := MustNew(Avg, 0.95, 10, true)
	est.Add(math.NaN())
	est.Add(4)
	est.Add(math.NaN())
	est.Add(6)
	if est.Samples() != 2 {
		t.Errorf("samples = %d, want 2 (NaNs skipped)", est.Samples())
	}
	if got := est.Snapshot().Value; got != 5 {
		t.Errorf("value = %v", got)
	}
}

func TestConfidenceValidation(t *testing.T) {
	for _, c := range []float64{0, 1, -0.5, 1.5} {
		if _, err := New(Avg, c, 10, true); err == nil {
			t.Errorf("confidence %v should be rejected", c)
		}
	}
}

func TestEarlySnapshots(t *testing.T) {
	est := MustNew(Avg, 0.95, 100, true)
	snap := est.Snapshot()
	if snap.Samples != 0 || !math.IsInf(snap.HalfWidth, 1) {
		t.Errorf("zero-sample snapshot = %+v", snap)
	}
	est.Add(5)
	snap = est.Snapshot()
	if !math.IsInf(snap.HalfWidth, 1) {
		t.Error("one-sample CI should be infinite")
	}
	if snap.Value != 5 {
		t.Errorf("one-sample value = %v", snap.Value)
	}
}

// TestCICoverage draws many independent samples of a population and checks
// the 95% CI covers the true mean close to 95% of the time.
func TestCICoverage(t *testing.T) {
	rng := stats.NewRNG(7)
	pop := make([]float64, 2000)
	var trueSum float64
	for i := range pop {
		pop[i] = rng.ExpFloat64() * 50 // skewed population
		trueSum += pop[i]
	}
	trueMean := trueSum / float64(len(pop))

	const trials = 2000
	const k = 100
	covered := 0
	for trial := 0; trial < trials; trial++ {
		est := MustNew(Avg, 0.95, len(pop), true)
		// Without-replacement sample of size k.
		perm := rng.Perm(len(pop))
		for _, idx := range perm[:k] {
			est.Add(pop[idx])
		}
		snap := est.Snapshot()
		if math.Abs(snap.Value-trueMean) <= snap.HalfWidth {
			covered++
		}
	}
	rate := float64(covered) / trials
	if rate < 0.92 || rate > 0.985 {
		t.Errorf("CI coverage = %v, want ≈0.95", rate)
	}
}

func TestFinitePopulationCorrectionShrinksCI(t *testing.T) {
	// Identical samples, one estimator knows it has seen half the
	// population without replacement, the other samples with replacement.
	rng := stats.NewRNG(3)
	wor := MustNew(Avg, 0.95, 200, true)
	wr := MustNew(Avg, 0.95, 200, false)
	for i := 0; i < 100; i++ {
		x := rng.NormFloat64()
		wor.Add(x)
		wr.Add(x)
	}
	if wor.Snapshot().HalfWidth >= wr.Snapshot().HalfWidth {
		t.Error("without-replacement CI should be tighter (FPC)")
	}
}

func TestEstimateString(t *testing.T) {
	est := MustNew(Avg, 0.95, 100, true)
	est.Add(1)
	est.Add(3)
	s := est.Snapshot().String()
	if s == "" {
		t.Error("empty string")
	}
	if got := est.Snapshot().RelativeErrorBound(); got <= 0 {
		t.Errorf("relative error bound = %v", got)
	}
}

func TestGroupBy(t *testing.T) {
	g := NewGroupBy(Avg, 0.95)
	g.Add("a", 1)
	g.Add("a", 3)
	g.Add("b", 10)
	if g.Groups() != 2 {
		t.Fatalf("groups = %d", g.Groups())
	}
	snaps := g.Snapshot()
	if len(snaps) != 2 || snaps[0].Key != "a" || snaps[1].Key != "b" {
		t.Fatalf("snapshot keys wrong: %+v", snaps)
	}
	if snaps[0].Value != 2 || snaps[1].Value != 10 {
		t.Errorf("group means = %v, %v", snaps[0].Value, snaps[1].Value)
	}
}

func TestQuantile(t *testing.T) {
	q, err := NewQuantile(0.5, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(5)
	for i := 0; i < 2000; i++ {
		q.Add(rng.NormFloat64())
	}
	snap := q.Snapshot()
	if math.Abs(snap.Value) > 0.1 {
		t.Errorf("median of N(0,1) sample = %v", snap.Value)
	}
	if snap.Lo > snap.Value || snap.Hi < snap.Value {
		t.Errorf("bounds [%v, %v] do not bracket %v", snap.Lo, snap.Hi, snap.Value)
	}
}

func TestQuantileValidation(t *testing.T) {
	if _, err := NewQuantile(0, 0.95); err == nil {
		t.Error("p=0 should be rejected")
	}
	if _, err := NewQuantile(0.5, 1); err == nil {
		t.Error("confidence=1 should be rejected")
	}
}

func TestQuantileEmpty(t *testing.T) {
	q, _ := NewQuantile(0.5, 0.95)
	snap := q.Snapshot()
	if !math.IsNaN(snap.Value) {
		t.Error("empty quantile should be NaN")
	}
}

func TestVarianceEstimator(t *testing.T) {
	rng := stats.NewRNG(11)
	pop := make([]float64, 5000)
	for i := range pop {
		pop[i] = rng.NormFloat64() * 10 // true variance 100, stddev 10
	}
	ve := MustNew(Variance, 0.95, len(pop), true)
	se := MustNew(Stddev, 0.95, len(pop), true)
	for _, x := range pop[:1000] {
		ve.Add(x)
		se.Add(x)
	}
	vs := ve.Snapshot()
	if math.Abs(vs.Value-100) > 15 {
		t.Errorf("variance estimate = %v, want ~100", vs.Value)
	}
	if vs.HalfWidth <= 0 || math.IsInf(vs.HalfWidth, 1) {
		t.Errorf("variance CI = %v", vs.HalfWidth)
	}
	ss := se.Snapshot()
	if math.Abs(ss.Value-10) > 1 {
		t.Errorf("stddev estimate = %v, want ~10", ss.Value)
	}
	if math.Abs(ss.Value*ss.Value-vs.Value) > 1e-9 {
		t.Errorf("stddev² (%v) != variance (%v)", ss.Value*ss.Value, vs.Value)
	}
	// Exhaustion marks exact.
	for _, x := range pop[1000:] {
		ve.Add(x)
	}
	if !ve.Snapshot().Exact {
		t.Error("exhausted variance should be exact")
	}
}

func TestVarianceCIShrinks(t *testing.T) {
	rng := stats.NewRNG(13)
	e := MustNew(Variance, 0.95, 1<<20, true)
	for i := 0; i < 50; i++ {
		e.Add(rng.NormFloat64())
	}
	hw50 := e.Snapshot().HalfWidth
	for i := 0; i < 5000; i++ {
		e.Add(rng.NormFloat64())
	}
	if hw := e.Snapshot().HalfWidth; hw >= hw50 {
		t.Errorf("variance CI did not shrink: %v -> %v", hw50, hw)
	}
}

func TestMedianKindRejectedByNew(t *testing.T) {
	if _, err := New(Median, 0.95, 10, true); err == nil {
		t.Error("Median kind should be rejected by New")
	}
	if _, err := New(Quant, 0.95, 10, true); err == nil {
		t.Error("Quant kind should be rejected by New")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		Avg: "AVG", Sum: "SUM", Count: "COUNT", Min: "MIN", Max: "MAX",
		Variance: "VARIANCE", Stddev: "STDDEV", Median: "MEDIAN", Quant: "QUANTILE",
	} {
		if k.String() != want {
			t.Errorf("Kind %d = %q", int(k), k.String())
		}
	}
}

// TestNeedInvertsTheInterval: the need Need prices at the values' CV is
// what the interval takes — half of it leaves the estimate short of the
// target, all of it reaches it (within the sample's own CV and rounding).
func TestNeedInvertsTheInterval(t *testing.T) {
	x := func(i int) float64 { return 100 + float64((i*37)%50) }
	var pop Welford
	for i := 0; i < 50; i++ {
		pop.Add(x(i))
	}
	cv := math.Sqrt(pop.SampleVariance()) / pop.Mean()
	z := stats.ZScore(0.95)
	for _, c := range []struct {
		kind Kind
		rel  float64
	}{
		{Avg, 0.005},
		{Sum, 0.005},
		{Stddev, 0.05},
		{Variance, 0.1},
	} {
		n := Need(c.kind, z, cv, c.rel)
		if n < 202 || n > 1e6 {
			t.Fatalf("%v rel %v: Need = %d, want past the Student-t cut-over", c.kind, c.rel, n)
		}
		rel := func(k int) float64 {
			e := MustNew(c.kind, 0.95, 1<<40, false)
			for i := 0; i < k; i++ {
				e.Add(x(i))
			}
			return e.Snapshot().RelativeErrorBound()
		}
		if got := rel(n / 2); got <= c.rel {
			t.Errorf("%v rel %v: half the need (%d) already reaches the target: %v", c.kind, c.rel, n/2, got)
		}
		if got := rel(n); got > c.rel*1.02 {
			t.Errorf("%v rel %v: the need (%d) falls short: %v", c.kind, c.rel, n, got)
		}
	}
}

func TestNeedEdges(t *testing.T) {
	z := stats.ZScore(0.95)
	for _, c := range []struct {
		kind        Kind
		cv, rel     float64
		want        int
		description string
	}{
		{Avg, 1, 0, math.MaxInt, "no target"},
		{Avg, 1, -0.01, math.MaxInt, "negative target"},
		{Min, 1, 0.01, math.MaxInt, "MIN"},
		{Median, 1, 0.01, math.MaxInt, "MEDIAN"},
		{Avg, 0, 0.01, 0, "constant values"},
		{Avg, 1e300, 0.01, math.MaxInt, "overflowing need"},
		{Avg, 1, 0.05, 1537, "the dashboard tile at the cold CV"},
	} {
		if got := Need(c.kind, z, c.cv, c.rel); got != c.want {
			t.Errorf("%s: Need = %d, want %d", c.description, got, c.want)
		}
	}
}

// TestWelfordMerge: two halves accumulated apart and merged hold the
// moments of one pass over both, whatever the split.
func TestWelfordMerge(t *testing.T) {
	xs := []float64{1e6 + 3, 1e6 - 7, 1e6 + 0.5, 1e6, 1e6 + 11, 1e6 - 2, 1e6 + 4}
	var all Welford
	for _, x := range xs {
		all.Add(x)
	}
	for cut := 0; cut <= len(xs); cut++ {
		var a, b Welford
		for _, x := range xs[:cut] {
			a.Add(x)
		}
		for _, x := range xs[cut:] {
			b.Add(x)
		}
		a.Merge(b)
		if a.N() != all.N() || math.Abs(a.Mean()-all.Mean()) > 1e-9 || math.Abs(a.SampleVariance()-all.SampleVariance()) > 1e-6 {
			t.Errorf("cut %d: merged (%d, %v, %v), one pass (%d, %v, %v)", cut, a.N(), a.Mean(), a.SampleVariance(), all.N(), all.Mean(), all.SampleVariance())
		}
	}
	if w := FromMoments(0, 5, 5); w.N() != 0 || w.Mean() != 0 {
		t.Errorf("FromMoments of no observations = %+v", w)
	}
}

// TestSumCountsMissingValuesAsZero is the SUM rule over records missing the
// attribute: the sum of the present values once every record is seen,
// exact at the population whatever the kind, and the mean family's other
// kinds over the present values only.
func TestSumCountsMissingValuesAsZero(t *testing.T) {
	vals := []float64{4, math.NaN(), 6, math.NaN(), 10}
	for _, kind := range []Kind{Sum, Avg, Variance, Max} {
		e := MustNew(kind, 0.95, len(vals), true)
		for _, v := range vals[:3] {
			e.Add(v)
		}
		if s := e.Snapshot(); s.Exact || s.Samples != 3 {
			t.Errorf("%v after 3 of 5: exact %v, samples %d", kind, s.Exact, s.Samples)
		}
		if kind == Sum {
			// q × (Σ present ÷ records seen) = 5 × 10/3.
			if s := e.Snapshot(); math.Abs(s.Value-50.0/3) > 1e-12 {
				t.Errorf("SUM after 3 of 5 = %v, want 50/3", s.Value)
			}
		}
		for _, v := range vals[3:] {
			e.Add(v)
		}
		s := e.Snapshot()
		want := map[Kind]float64{Sum: 20, Avg: 20.0 / 3, Variance: 28.0 / 3, Max: 10}[kind]
		if !s.Exact || s.Samples != 5 || math.Abs(s.Value-want) > 1e-12 {
			t.Errorf("%v drained: %v exact %v over %d samples; want %v exact over 5", kind, s.Value, s.Exact, s.Samples, want)
		}
	}
	var w Welford
	w.Add(4)
	w.Add(6)
	w.Add(10)
	e := MustNew(Sum, 0.95, 5, true)
	e.AddMoments(5, w)
	if s := e.Snapshot(); !s.Exact || s.Value != 20 || s.Samples != 5 {
		t.Errorf("SUM from moments = %+v, want exact 20 over 5", s)
	}
}

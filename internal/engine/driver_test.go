package engine

import (
	"context"
	"math"
	"testing"
	"time"

	"storm/internal/distr"
	"storm/internal/distr/distrtest"
	"storm/internal/estimator"
	"storm/internal/gen"
	"storm/internal/geo"
	"storm/internal/pred"
)

var above90 = []pred.Term{{Attr: "value", Lo: 90, Hi: math.Inf(1), LoOpen: true}}

// TestMultiAggregateHonorsWhereAndLast: a joint estimate runs under the
// same planner and window as the single-aggregate stream — at equal seed
// it folds the very same samples, over the qualifying population.
func TestMultiAggregateHonorsWhereAndLast(t *testing.T) {
	_, h := buildHandle(t, 20000, false)
	ctx := context.Background()
	for _, last := range []time.Duration{0, 30 * time.Second} {
		want := windowTruth(h, testRange, 1000*time.Second, above90)
		if last > 0 {
			want = windowTruth(h, testRange, last, above90)
		}
		opts := Options{Kind: estimator.Avg, Attr: "value", Where: above90, Last: last, Seed: 77, MaxSamples: 600}
		single, err := h.Estimate(ctx, testRange, opts)
		if err != nil {
			t.Fatal(err)
		}
		multi, err := h.EstimateMulti(ctx, testRange, []AggSpec{{Kind: estimator.Avg, Attr: "value"}, {Kind: estimator.Stddev, Attr: "value"}}, opts)
		if err != nil {
			t.Fatal(err)
		}
		avg := multi.Estimates[0]
		if single.Population != want || avg.Population != want || multi.Estimates[1].Population != want {
			t.Errorf("LAST %v: populations single=%d multi=%d/%d, want qualifying count %d",
				last, single.Population, avg.Population, multi.Estimates[1].Population, want)
		}
		if avg.Value != single.Value || avg.HalfWidth != single.HalfWidth || avg.Samples != single.Samples {
			t.Errorf("LAST %v: multi AVG %v±%v (n=%d) != single AVG %v±%v (n=%d) at equal seed",
				last, avg.Value, avg.HalfWidth, avg.Samples, single.Value, single.HalfWidth, single.Samples)
		}
		if avg.Value < 90 {
			t.Errorf("LAST %v: multi AVG %v ignores WHERE value > 90", last, avg.Value)
		}
		if multi.Windowed != (last > 0) {
			t.Errorf("LAST %v: multi snapshot Windowed = %v", last, multi.Windowed)
		}
	}
}

// stationsHandle registers the MesoWest-like fixture: numeric "temp",
// string "station".
func stationsHandle(t *testing.T) (*Handle, geo.Range) {
	t.Helper()
	h, err := New(Config{Seed: 21}).Register(gen.Stations(gen.StationsConfig{Stations: 10, ReadingsPerStation: 200, Seed: 21}), IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return h, geo.Range{MinX: -130, MinY: 20, MaxX: -60, MaxY: 55, MinT: 0, MaxT: 1e9}
}

// TestGroupByAndAnalyticsHonorWhereAndLast: GROUP BY, KDE and TERMS run
// to exhaustion under a predicate and a window see exactly the qualifying
// records — no more (the predicate applies) and no fewer (uniform over
// all of them).
func TestGroupByAndAnalyticsHonorWhereAndLast(t *testing.T) {
	h, all := stationsHandle(t)
	ctx := context.Background()
	warm := []pred.Term{{Attr: "temp", Lo: 12, Hi: math.Inf(1), LoOpen: true}}
	last := 100 * time.Hour
	want := windowTruth(h, all, last, warm)
	if want == 0 || want >= windowTruth(h, all, last, nil) || want >= windowTruth(h, all, 1e6*time.Hour, warm) {
		t.Fatalf("degenerate fixture: %d qualifying records", want)
	}
	opts := Options{Where: warm, Last: last, Seed: 5}

	groups, err := h.GroupByOnline(ctx, all, "temp", "station", opts)
	if err != nil {
		t.Fatal(err)
	}
	var lastGroups GroupsSnapshot
	for s := range groups {
		lastGroups = s
	}
	if lastGroups.Population != want || lastGroups.Samples != want || !lastGroups.Windowed {
		t.Errorf("GROUP BY: population %d, samples %d, windowed %v; want %d qualifying records",
			lastGroups.Population, lastGroups.Samples, lastGroups.Windowed, want)
	}
	for _, g := range lastGroups.Groups {
		if g.Value <= 12 {
			t.Errorf("group %s mean %v ignores WHERE temp > 12", g.Key, g.Value)
		}
	}

	kde, err := h.KDEOnline(ctx, all, KDEOptions{Nx: 4, Ny: 4}, opts)
	if err != nil {
		t.Fatal(err)
	}
	var lastKDE KDESnapshot
	for s := range kde {
		lastKDE = s
	}
	if lastKDE.Map.Samples != want {
		t.Errorf("KDE folded %d records, want the %d qualifying ones", lastKDE.Map.Samples, want)
	}

	terms, err := h.TermsOnline(ctx, all, "station", 5, opts)
	if err != nil {
		t.Fatal(err)
	}
	var lastTerms TermsSnapshot
	for s := range terms {
		lastTerms = s
	}
	if lastTerms.Terms.Samples != want {
		t.Errorf("TERMS folded %d records, want the %d qualifying ones", lastTerms.Terms.Samples, want)
	}

	// A predicate on a column the dataset does not have fails the same way
	// for every shape: a terminal snapshot carrying the error.
	bad, err := h.KDEOnline(ctx, all, KDEOptions{Nx: 4, Ny: 4}, Options{Where: []pred.Term{{Attr: "nope", Lo: 0, Hi: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	for s := range bad {
		lastKDE = s
	}
	if !lastKDE.Done || lastKDE.Err() == nil {
		t.Errorf("unknown WHERE column: final snapshot %+v carries no error", lastKDE.Progress)
	}
}

// TestMultiAggregateReportsDegradation: a joint estimate over a sharded
// dataset that loses shards mid-stream says so, and sizes its estimates
// against the surviving population instead of silently sampling survivors
// under the full one.
func TestMultiAggregateReportsDegradation(t *testing.T) {
	e := New(Config{Seed: 42, Fanout: 32})
	h, err := e.Register(distrtest.Dataset(8000), IndexOptions{
		Shards: 8,
		Faults: &distr.FaultPlan{Shards: map[int]distr.ShardFaultPlan{
			2: {Crash: true, CrashAfterFetches: 1},
			5: {Crash: true, CrashAfterFetches: 1},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	healthyPop := h.Cluster().Count(testRange.Rect())
	snap, err := h.EstimateMulti(context.Background(), testRange,
		[]AggSpec{{Kind: estimator.Avg, Attr: "value"}, {Kind: estimator.Median, Attr: "value"}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Done || !snap.Degraded || snap.ShardsLost != 2 {
		t.Fatalf("multi snapshot status = done %v, degraded %v, lost %d; want a finished run that lost 2 shards",
			snap.Done, snap.Degraded, snap.ShardsLost)
	}
	for _, est := range snap.Estimates {
		if est.Population >= healthyPop || est.Population != snap.Samples || !est.Exact {
			t.Errorf("%v: population %d (healthy %d), samples %d, exact %v; want exact over the survivors",
				est.Kind, est.Population, healthyPop, snap.Samples, est.Exact)
		}
	}
	if got := e.Obs().Counter("storm.engine.queries.degraded").Value(); got != 1 {
		t.Errorf("storm.engine.queries.degraded = %d, want 1", got)
	}
}

// TestTargetedStreamStopsNearItsLastDraw: a targeted stream sizes its pulls
// from the estimator's predicted need, so when a report meets the target it
// has drawn at most one report interval past it — whatever the target
// kind, without dropping a doubled batch's tail.
func TestTargetedStreamStopsNearItsLastDraw(t *testing.T) {
	e, h := buildHandle(t, 50000, false)
	drawn := e.Obs().Counter("storm.engine.samples.drawn")
	for _, opts := range []Options{
		{Kind: estimator.Avg, TargetRelError: 0.01},
		{Kind: estimator.Sum, TargetRelError: 0.005},
		{Kind: estimator.Stddev, TargetRelError: 0.03},
		{Kind: estimator.Avg, TargetHalfWidth: 0.5},
	} {
		opts.Attr, opts.Method, opts.Seed = "value", MethodRSTree, 3
		before := drawn.Value()
		snap, err := h.Estimate(context.Background(), testRange, opts)
		if err != nil {
			t.Fatal(err)
		}
		got := int(drawn.Value() - before)
		if snap.Exact || snap.Samples < 4*minPullBatch || got < snap.Samples || got-snap.Samples > 64 {
			t.Errorf("%v: drew %d, folded %d of %d; want a sampled stop within one report interval",
				opts.Kind, got, snap.Samples, snap.Population)
		}
	}
}

// TestNeedPull: a pull ends at the first report point at or past the
// predicted need, at least minPullBatch long and at most maxPullBatch.
func TestNeedPull(t *testing.T) {
	for _, c := range []struct{ need, samples, want int }{
		{need: 100, samples: 64, want: 64},            // to 128
		{need: 128, samples: 64, want: 64},            // exactly a report point
		{need: 10, samples: 64, want: 64},             // met by the prediction: the next point
		{need: 125, samples: 120, want: minPullBatch}, // 128 is 8 away
		{need: 130, samples: 120, want: 72},           // past 128: to 192
		{need: 5000, samples: 64, want: maxPullBatch}, // far off
		{need: math.MaxInt, samples: 64, want: maxPullBatch},
	} {
		if got := needPull(c.need, c.samples, 64); got != c.want {
			t.Errorf("needPull(%d, %d, 64) = %d, want %d", c.need, c.samples, got, c.want)
		}
	}
}

package engine

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"storm/internal/data"
	"storm/internal/estimator"
	"storm/internal/gen"
	"storm/internal/geo"
	"storm/internal/sampling"
	"storm/internal/stats/statcheck"
)

func buildHandle(t testing.TB, n int, lstree bool) (*Engine, *Handle) {
	t.Helper()
	e := New(Config{Seed: 42, Fanout: 32})
	ds := gen.Uniform(n, 7, geo.Range{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100, MinT: 0, MaxT: 100})
	h, err := e.Register(ds, IndexOptions{LSTree: lstree})
	if err != nil {
		t.Fatal(err)
	}
	return e, h
}

var testRange = geo.Range{MinX: 20, MinY: 20, MaxX: 60, MaxY: 60, MinT: 0, MaxT: 100}

func trueMean(h *Handle, q geo.Range, attr string) (float64, int) {
	col, _ := h.Data().NumericColumn(attr)
	rect := q.Rect()
	var sum float64
	var cnt int
	for i := 0; i < h.Data().Len(); i++ {
		if rect.Contains(h.Data().Pos(uint64(i))) {
			sum += col[i]
			cnt++
		}
	}
	return sum / float64(cnt), cnt
}

func TestRegisterValidation(t *testing.T) {
	e := New(Config{Seed: 1})
	ds := gen.Uniform(100, 1, geo.SpatialRange(0, 0, 1, 1))
	if _, err := e.Register(ds, IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Register(ds, IndexOptions{}); err == nil {
		t.Error("duplicate registration should fail")
	}
	if _, err := e.Dataset("uniform"); err != nil {
		t.Error("registered dataset not found")
	}
	if _, err := e.Dataset("nope"); err == nil {
		t.Error("unknown dataset should error")
	}
	if len(e.Datasets()) != 1 {
		t.Errorf("datasets = %v", e.Datasets())
	}
}

func TestEstimateConvergesToExact(t *testing.T) {
	_, h := buildHandle(t, 20000, true)
	want, cnt := trueMean(h, testRange, "value")
	if cnt == 0 {
		t.Fatal("degenerate fixture")
	}
	// Run the stream to exhaustion: the estimate must be exact.
	snap, err := h.Estimate(context.Background(), testRange, Options{
		Kind: estimator.Avg, Attr: "value", Method: MethodRSTree,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Done || !snap.Exact {
		t.Fatalf("exhausted query should be exact: %+v", snap)
	}
	if math.Abs(snap.Value-want) > 1e-9 {
		t.Errorf("exact value %v != truth %v", snap.Value, want)
	}
	if snap.Samples != cnt {
		t.Errorf("samples %d != population %d", snap.Samples, cnt)
	}
}

func TestEstimateTargetRelError(t *testing.T) {
	_, h := buildHandle(t, 50000, false)
	want, cnt := trueMean(h, testRange, "value")
	snap, err := h.Estimate(context.Background(), testRange, Options{
		Kind: estimator.Avg, Attr: "value", TargetRelError: 0.01, Method: MethodRSTree,
	})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Samples >= cnt {
		t.Errorf("target-bounded query used the whole population (%d)", snap.Samples)
	}
	if snap.RelativeErrorBound() > 0.011 && !snap.Exact {
		t.Errorf("terminated with rel error bound %v > target", snap.RelativeErrorBound())
	}
	// The CI must actually cover the truth here (no strict guarantee,
	// but with 95% confidence a failure at this seed means a bug).
	if math.Abs(snap.Value-want) > 2*snap.HalfWidth+1e-9 {
		t.Errorf("estimate %v ± %v far from truth %v", snap.Value, snap.HalfWidth, want)
	}
}

func TestEstimateOnlineStreamsImprovingSnapshots(t *testing.T) {
	_, h := buildHandle(t, 30000, false)
	ch, err := h.EstimateOnline(context.Background(), testRange, Options{
		Kind: estimator.Avg, Attr: "value", MaxSamples: 2000, ReportEvery: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	var snaps []Snapshot
	for s := range ch {
		snaps = append(snaps, s)
	}
	if len(snaps) < 10 {
		t.Fatalf("snapshots = %d", len(snaps))
	}
	if !snaps[len(snaps)-1].Done {
		t.Error("last snapshot must be Done")
	}
	// Half-widths shrink overall (compare first reported vs last).
	first := snaps[0]
	last := snaps[len(snaps)-1]
	if last.HalfWidth >= first.HalfWidth {
		t.Errorf("CI did not shrink: %v -> %v", first.HalfWidth, last.HalfWidth)
	}
	if last.Samples != 2000 {
		t.Errorf("final samples = %d", last.Samples)
	}
}

func TestEstimateCancellation(t *testing.T) {
	_, h := buildHandle(t, 30000, false)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch, err := h.EstimateOnline(ctx, testRange, Options{
		Kind: estimator.Avg, Attr: "value", ReportEvery: 50, Method: MethodRSTree,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for s := range ch {
		n++
		if n == 3 {
			cancel()
		}
		if s.Done {
			break
		}
	}
	// Channel closes promptly after cancellation; a second query can run.
	snap, err := h.Estimate(context.Background(), testRange, Options{
		Kind: estimator.Avg, Attr: "value", MaxSamples: 100,
	})
	if err != nil || !snap.Done {
		t.Fatalf("query after cancel: %+v, %v", snap, err)
	}
}

func TestCountQueryIsExactAndImmediate(t *testing.T) {
	_, h := buildHandle(t, 10000, false)
	_, cnt := trueMean(h, testRange, "value")
	snap, err := h.Estimate(context.Background(), testRange, Options{Kind: estimator.Count})
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Exact || int(snap.Value) != cnt {
		t.Errorf("count = %+v, want %d", snap, cnt)
	}
}

func TestSumQuery(t *testing.T) {
	_, h := buildHandle(t, 20000, false)
	col, _ := h.Data().NumericColumn("value")
	rect := testRange.Rect()
	var want float64
	for i := 0; i < h.Data().Len(); i++ {
		if rect.Contains(h.Data().Pos(uint64(i))) {
			want += col[i]
		}
	}
	snap, err := h.Estimate(context.Background(), testRange, Options{
		Kind: estimator.Sum, Attr: "value", MaxSamples: 3000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(snap.Value-want)/want > 0.05 {
		t.Errorf("sum estimate %v vs truth %v", snap.Value, want)
	}
}

func TestEmptyRangeQueries(t *testing.T) {
	_, h := buildHandle(t, 1000, false)
	empty := geo.Range{MinX: -10, MinY: -10, MaxX: -5, MaxY: -5, MinT: 0, MaxT: 1}
	snap, err := h.Estimate(context.Background(), empty, Options{Kind: estimator.Avg, Attr: "value"})
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Done || snap.Samples != 0 {
		t.Errorf("empty range snapshot = %+v", snap)
	}
}

func TestInvalidOptions(t *testing.T) {
	_, h := buildHandle(t, 100, false)
	if _, err := h.EstimateOnline(context.Background(), testRange, Options{Kind: estimator.Avg}); err == nil {
		t.Error("missing attr should error")
	}
	if _, err := h.EstimateOnline(context.Background(), testRange, Options{Kind: estimator.Avg, Attr: "nope"}); err == nil {
		t.Error("unknown attr should error")
	}
	bad := geo.Range{MinX: 5, MaxX: 1}
	if _, err := h.EstimateOnline(context.Background(), bad, Options{Kind: estimator.Count}); err == nil {
		t.Error("invalid range should error")
	}
}

func TestMethodSelection(t *testing.T) {
	_, h := buildHandle(t, 20000, true)
	for _, m := range []Method{MethodRSTree, MethodLSTree, MethodRandomPath, MethodQueryFirst, MethodSampleFirst} {
		snap, err := h.Estimate(context.Background(), testRange, Options{
			Kind: estimator.Avg, Attr: "value", MaxSamples: 500, Method: m,
		})
		if err != nil {
			t.Fatalf("method %v: %v", m, err)
		}
		if snap.Samples != 500 {
			t.Errorf("method %v: samples = %d", m, snap.Samples)
		}
	}
	// A handle registered without the LS-tree builds it on the first
	// LS-tree query and samples.
	_, h2 := buildHandle(t, 1000, false)
	if h2.HasLSTree() {
		t.Fatal("LS-tree built at Register without IndexOptions.LSTree")
	}
	got, err := h2.Sample(testRange, 10, MethodLSTree, sampling.WithoutReplacement, 1)
	if err != nil || len(got) != 10 {
		t.Fatalf("LS-tree sampling on a lazy handle: %d samples, err %v", len(got), err)
	}
	if !h2.HasLSTree() {
		t.Error("first LS-tree query did not build the LS-tree")
	}
}

func TestOptimizerChoices(t *testing.T) {
	_, h := buildHandle(t, 20000, false)
	choose := func(q geo.Range) Method {
		res, err := h.resolve(q.Rect(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res.method
	}
	// Tiny result → QueryFirst.
	tiny := geo.Range{MinX: 50, MinY: 50, MaxX: 50.5, MaxY: 50.5, MinT: 0, MaxT: 100}
	if m := choose(tiny); m != MethodQueryFirst {
		t.Errorf("tiny query chose %v", m)
	}
	// Whole-data query → SampleFirst.
	all := geo.Range{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100, MinT: 0, MaxT: 100}
	if m := choose(all); m != MethodSampleFirst {
		t.Errorf("whole-data query chose %v", m)
	}
	// Selective-but-not-tiny → RS-tree.
	if m := choose(testRange); m != MethodRSTree {
		t.Errorf("selective query chose %v", m)
	}
}

func TestSampleAPI(t *testing.T) {
	_, h := buildHandle(t, 5000, false)
	got, err := h.Sample(testRange, 100, Auto, sampling.WithoutReplacement, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("samples = %d", len(got))
	}
	rect := testRange.Rect()
	seen := make(map[data.ID]bool)
	for _, e := range got {
		if !rect.Contains(e.Pos) {
			t.Fatal("sample outside range")
		}
		if seen[e.ID] {
			t.Fatal("duplicate sample")
		}
		seen[e.ID] = true
	}
}

// TestSampleWithReplacementLSTreePairs: an LS-tree Handle.Sample in
// with-replacement mode is the adapter over the LS-tree's stream, and its
// first two draws are iid uniform — every ordered pair of the range's
// records, a repeat included, equally likely. The LS-tree fixes its level
// coins at build, so every trial registers afresh under its own seed.
func TestSampleWithReplacementLSTreePairs(t *testing.T) {
	space := geo.Range{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100, MinT: 0, MaxT: 100}
	ds := gen.Uniform(20, 3, space)
	q := geo.Range{MinX: 0, MinY: 0, MaxX: 50, MaxY: 50, MinT: 0, MaxT: 100}
	in := map[data.ID]int{}
	for i := 0; i < ds.Len(); i++ {
		if q.Rect().Contains(ds.Pos(data.ID(i))) {
			in[data.ID(i)] = len(in)
		}
	}
	n := len(in)
	if n < 4 || n > 7 {
		t.Fatalf("fixture holds %d matches, want 4–7", n)
	}
	const trials = 8000
	obs := make([]int, n*n)
	for trial := 0; trial < trials; trial++ {
		e := New(Config{Seed: int64(trial) + 1, Fanout: 4, NoMetrics: true})
		h, err := e.Register(ds, IndexOptions{LSTree: true})
		if err != nil {
			t.Fatal(err)
		}
		got, err := h.Sample(q, 2, MethodLSTree, sampling.WithReplacement, int64(trial)+1)
		if err != nil || len(got) != 2 {
			t.Fatalf("trial %d: %d samples, err %v", trial, len(got), err)
		}
		a, okA := in[got[0].ID]
		b, okB := in[got[1].ID]
		if !okA || !okB {
			t.Fatalf("trial %d: a draw outside the range", trial)
		}
		obs[a*n+b]++
	}
	statcheck.Uniform(t, "ls-tree pairs", obs, statcheck.DefaultAlpha)
}

func TestInsertDeleteThroughHandle(t *testing.T) {
	_, h := buildHandle(t, 2000, true)
	before := h.Count(testRange)
	id := h.Insert(data.Row{
		Pos: geo.Vec{40, 40, 50},
		Num: map[string]float64{"value": 12345},
	})
	if h.Count(testRange) != before+1 {
		t.Error("insert not visible to count")
	}
	// The inserted record is sampleable.
	found := false
	for trial := 0; trial < 20 && !found; trial++ {
		samples, err := h.Sample(geo.Range{MinX: 39.9, MinY: 39.9, MaxX: 40.1, MaxY: 40.1, MinT: 0, MaxT: 100},
			1000, Auto, sampling.WithoutReplacement, int64(trial+1))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range samples {
			if e.ID == id {
				found = true
			}
		}
	}
	if !found {
		t.Error("inserted record never sampled")
	}
	if !h.Delete(id) {
		t.Fatal("delete failed")
	}
	if h.Count(testRange) != before {
		t.Error("delete not visible to count")
	}
	if h.Delete(id) {
		t.Error("double delete should fail")
	}
	if h.Delete(data.ID(999999)) {
		t.Error("deleting unknown id should fail")
	}
}

func TestTimeBudget(t *testing.T) {
	_, h := buildHandle(t, 50000, false)
	start := time.Now()
	snap, err := h.Estimate(context.Background(), testRange, Options{
		Kind: estimator.Avg, Attr: "value", TimeBudget: 30 * time.Millisecond,
		Method: MethodRandomPath, // slow enough not to exhaust instantly
	})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed > 500*time.Millisecond {
		t.Errorf("budgeted query ran %v", elapsed)
	}
	if !snap.Done {
		t.Error("budgeted query must finish Done")
	}
}

func TestKDEOnline(t *testing.T) {
	e := New(Config{Seed: 5})
	ds, _ := gen.Tweets(gen.TweetsConfig{N: 20000, Users: 100, Seed: 11})
	h, err := e.Register(ds, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q := geo.Range{MinX: -125, MinY: 24, MaxX: -66, MaxY: 50, MinT: 0, MaxT: 30 * 86400}
	ch, err := h.KDEOnline(context.Background(), q, KDEOptions{Nx: 16, Ny: 16},
		Options{MaxSamples: 1000, ReportEvery: 200})
	if err != nil {
		t.Fatal(err)
	}
	var last KDESnapshot
	n := 0
	for s := range ch {
		last = s
		n++
	}
	if n < 5 || !last.Done {
		t.Fatalf("kde snapshots = %d, done = %v", n, last.Done)
	}
	if last.Map.Samples != 1000 {
		t.Errorf("samples = %d", last.Map.Samples)
	}
	if last.Map.MaxDensity() <= 0 {
		t.Error("density map empty")
	}
}

func TestTermsOnline(t *testing.T) {
	e := New(Config{Seed: 6})
	ds, _ := gen.Tweets(gen.TweetsConfig{N: 30000, Users: 200, Seed: 13, Snowstorm: true})
	h, err := e.Register(ds, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	atlanta := geo.Range{MinX: -85.4, MinY: 32.7, MaxX: -83.4, MaxY: 34.7,
		MinT: 10 * 86400, MaxT: 13 * 86400}
	ch, err := h.TermsOnline(context.Background(), atlanta, "text", 10,
		Options{MaxSamples: 500})
	if err != nil {
		t.Fatal(err)
	}
	var last TermsSnapshot
	for s := range ch {
		last = s
	}
	if !last.Done || last.Terms == nil {
		t.Fatal("no final terms snapshot")
	}
	// Snowstorm vocabulary must dominate the Atlanta window.
	snowVocab := map[string]bool{"snow": true, "ice": true, "outage": true,
		"shit": true, "hell": true, "why": true, "stuck": true, "cold": true,
		"power": true, "roads": true, "closed": true, "storm": true,
		"frozen": true, "cancelled": true}
	hits := 0
	for _, term := range last.Terms.Top {
		if snowVocab[term.Text] {
			hits++
		}
	}
	if hits < len(last.Terms.Top)*7/10 {
		t.Errorf("only %d/%d top terms are snowstorm vocabulary: %v", hits, len(last.Terms.Top), last.Terms.Top)
	}
	if last.Terms.Sentiment >= 0 {
		t.Errorf("sentiment %v should be negative during the storm", last.Terms.Sentiment)
	}
	if _, err := h.TermsOnline(context.Background(), atlanta, "nope", 10, Options{}); err == nil {
		t.Error("unknown text column should error")
	}
}

func TestTrajectoryOnline(t *testing.T) {
	e := New(Config{Seed: 7})
	ds, truth := gen.Tweets(gen.TweetsConfig{N: 20000, Users: 20, Seed: 17})
	h, err := e.Register(ds, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Pick the most active user.
	var user string
	best := 0
	for u, path := range truth {
		if len(path) > best {
			user, best = u, len(path)
		}
	}
	q := geo.Range{MinX: -130, MinY: 20, MaxX: -60, MaxY: 55, MinT: 0, MaxT: 30 * 86400}
	ch, err := h.TrajectoryOnline(context.Background(), q, "user", user, 0,
		Options{MaxSamples: best / 2, ReportEvery: 50})
	if err != nil {
		t.Fatal(err)
	}
	var last TrajectorySnapshot
	for s := range ch {
		last = s
	}
	if !last.Done || last.Path.Samples == 0 {
		t.Fatalf("trajectory empty: %+v", last)
	}
	// All reconstructed points belong to the user's true path.
	truthSet := make(map[geo.Vec]bool, len(truth[user]))
	for _, p := range truth[user] {
		truthSet[p] = true
	}
	for _, p := range last.Path.Points() {
		if !truthSet[p] {
			t.Fatalf("reconstructed point %v not on the user's true path", p)
		}
	}
}

func TestClusterOnline(t *testing.T) {
	_, h := buildHandle(t, 10000, false)
	ch, err := h.ClusterOnline(context.Background(), testRange, 3,
		Options{MaxSamples: 600})
	if err != nil {
		t.Fatal(err)
	}
	var last ClusterSnapshot
	for s := range ch {
		last = s
	}
	if !last.Done || len(last.Clustering.Clusters) != 3 {
		t.Fatalf("clustering = %+v", last.Clustering)
	}
	if _, err := h.ClusterOnline(context.Background(), testRange, 0, Options{}); err == nil {
		t.Error("k=0 should error")
	}
}

func TestMedianQuery(t *testing.T) {
	_, h := buildHandle(t, 20000, false)
	// Collect exact median of the matching values.
	col, _ := h.Data().NumericColumn("value")
	rect := testRange.Rect()
	var vals []float64
	for i := 0; i < h.Data().Len(); i++ {
		if rect.Contains(h.Data().Pos(uint64(i))) {
			vals = append(vals, col[i])
		}
	}
	sort.Float64s(vals)
	trueMedian := vals[len(vals)/2]

	snap, err := h.Estimate(context.Background(), testRange, Options{
		Kind: estimator.Median, Attr: "value", MaxSamples: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Done || snap.Kind != estimator.Median {
		t.Fatalf("snapshot = %+v", snap)
	}
	// Values are N(100, 20): the median estimate should be within ~1.5.
	if math.Abs(snap.Value-trueMedian) > 1.5 {
		t.Errorf("median %v vs truth %v", snap.Value, trueMedian)
	}
	if snap.HalfWidth <= 0 || math.IsInf(snap.HalfWidth, 1) {
		t.Errorf("median CI = %v", snap.HalfWidth)
	}
}

func TestQuantileQuery(t *testing.T) {
	_, h := buildHandle(t, 20000, false)
	snap, err := h.Estimate(context.Background(), testRange, Options{
		Kind: estimator.Quant, QuantileP: 0.9, Attr: "value", MaxSamples: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	// P90 of N(100, 20) ≈ 100 + 1.28×20 ≈ 125.6.
	if math.Abs(snap.Value-125.6) > 3 {
		t.Errorf("p90 = %v, want ~125.6", snap.Value)
	}
	// Exhaustion makes it exact.
	exact, err := h.Estimate(context.Background(), testRange, Options{
		Kind: estimator.Median, Attr: "value",
	})
	if err != nil || !exact.Exact {
		t.Errorf("exhausted median: %+v, %v", exact, err)
	}
	// Validation.
	if _, err := h.EstimateOnline(context.Background(), testRange, Options{
		Kind: estimator.Quant, Attr: "value", QuantileP: 1.5,
	}); err == nil {
		t.Error("p out of range should error")
	}
}

func TestVarianceQuery(t *testing.T) {
	_, h := buildHandle(t, 20000, false)
	snap, err := h.Estimate(context.Background(), testRange, Options{
		Kind: estimator.Stddev, Attr: "value", MaxSamples: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(snap.Value-20) > 2 {
		t.Errorf("stddev = %v, want ~20", snap.Value)
	}
}

func TestGroupByOnline(t *testing.T) {
	e := New(Config{Seed: 21})
	ds := gen.Stations(gen.StationsConfig{Stations: 10, ReadingsPerStation: 200, Seed: 21})
	h, err := e.Register(ds, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	all := geo.Range{MinX: -130, MinY: 20, MaxX: -60, MaxY: 55, MinT: 0, MaxT: 1e9}
	ch, err := h.GroupByOnline(context.Background(), all, "temp", "station", Options{MaxSamples: 1500})
	if err != nil {
		t.Fatal(err)
	}
	var last GroupsSnapshot
	for s := range ch {
		last = s
	}
	if !last.Done || len(last.Groups) != 10 {
		t.Fatalf("groups = %d (done=%v)", len(last.Groups), last.Done)
	}
	// Every group's estimate should be near its station's true mean.
	temps, _ := ds.NumericColumn("temp")
	stations, _ := ds.StringColumn("station")
	sums := map[string]float64{}
	counts := map[string]int{}
	for i := range temps {
		sums[stations[i]] += temps[i]
		counts[stations[i]]++
	}
	for _, g := range last.Groups {
		truth := sums[g.Key] / float64(counts[g.Key])
		if math.Abs(g.Value-truth) > 2 {
			t.Errorf("group %s: estimate %v vs truth %v", g.Key, g.Value, truth)
		}
	}
	// Non-AVG group-by is rejected.
	if _, err := h.GroupByOnline(context.Background(), all, "temp", "station", Options{Kind: estimator.Sum}); err == nil {
		t.Error("SUM group-by should be rejected")
	}
	if _, err := h.GroupByOnline(context.Background(), all, "nope", "station", Options{}); err == nil {
		t.Error("unknown attr should error")
	}
	if _, err := h.GroupByOnline(context.Background(), all, "temp", "nope", Options{}); err == nil {
		t.Error("unknown group column should error")
	}
}

func TestEstimateMulti(t *testing.T) {
	_, h := buildHandle(t, 20000, false)
	specs := []AggSpec{
		{Kind: estimator.Avg, Attr: "value"},
		{Kind: estimator.Stddev, Attr: "value"},
		{Kind: estimator.Median, Attr: "value"},
		{Kind: estimator.Quant, Attr: "value", QuantileP: 0.9},
	}
	snap, err := h.EstimateMulti(context.Background(), testRange, specs, Options{MaxSamples: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Done || len(snap.Estimates) != 4 || snap.Samples != 2000 {
		t.Fatalf("snapshot = %+v", snap)
	}
	avg, std, med, p90 := snap.Estimates[0], snap.Estimates[1], snap.Estimates[2], snap.Estimates[3]
	// gen.Uniform values are N(100, 20).
	if math.Abs(avg.Value-100) > 2 {
		t.Errorf("avg = %v", avg.Value)
	}
	if math.Abs(std.Value-20) > 2 {
		t.Errorf("stddev = %v", std.Value)
	}
	if !(med.Value < p90.Value) {
		t.Errorf("median %v not below p90 %v", med.Value, p90.Value)
	}
	// All share one sample stream.
	for i, e := range snap.Estimates {
		if e.Samples != 2000 {
			t.Errorf("estimate %d samples = %d", i, e.Samples)
		}
	}
	// Validation.
	if _, err := h.EstimateMultiOnline(context.Background(), testRange, nil, Options{}); err == nil {
		t.Error("empty specs should error")
	}
	if _, err := h.EstimateMultiOnline(context.Background(), testRange,
		[]AggSpec{{Kind: estimator.Count}}, Options{}); err == nil {
		t.Error("COUNT spec should error")
	}
	if _, err := h.EstimateMultiOnline(context.Background(), testRange,
		[]AggSpec{{Kind: estimator.Avg, Attr: "nope"}}, Options{}); err == nil {
		t.Error("unknown attr should error")
	}
}

func TestEstimateMultiExhaustsToExact(t *testing.T) {
	_, h := buildHandle(t, 3000, false)
	specs := []AggSpec{
		{Kind: estimator.Avg, Attr: "value"},
		{Kind: estimator.Median, Attr: "value"},
	}
	snap, err := h.EstimateMulti(context.Background(), testRange, specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range snap.Estimates {
		if !e.Exact {
			t.Errorf("estimate %d not exact after exhaustion: %+v", i, e)
		}
	}
}

func TestExplain(t *testing.T) {
	_, h := buildHandle(t, 20000, false)
	plan, err := h.Explain(testRange)
	if err != nil {
		t.Fatal(err)
	}
	if plan.N != 20000 || plan.Matching == 0 || plan.Method != MethodRSTree {
		t.Errorf("plan = %+v", plan)
	}
	if plan.Selectivity <= 0 || plan.Selectivity >= 1 {
		t.Errorf("selectivity = %v", plan.Selectivity)
	}
	if plan.CanonicalSize < 1 || plan.TreeHeight < 1 {
		t.Errorf("plan structure: %+v", plan)
	}
	if _, err := h.Explain(geo.Range{MinX: 5, MaxX: 1}); err == nil {
		t.Error("invalid range should error")
	}
}

func TestSessionAnalytics(t *testing.T) {
	e := New(Config{Seed: 51})
	ds, _ := gen.Tweets(gen.TweetsConfig{N: 15000, Users: 30, Seed: 51, Snowstorm: true})
	h, err := e.Register(ds, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(h)
	usa := geo.Range{MinX: -125, MinY: 24, MaxX: -66, MaxY: 50, MinT: 0, MaxT: 30 * 86400}

	kdeCh, err := s.KDEOnline(context.Background(), usa, KDEOptions{Nx: 8, Ny: 8},
		Options{MaxSamples: 20000, ReportEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	<-kdeCh // one refinement arrived; KDE is mid-flight

	// Starting terms analysis cancels the KDE.
	termsCh, err := s.TermsOnline(context.Background(), usa, "text", 5,
		Options{MaxSamples: 300})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for open := true; open; {
		select {
		case _, ok := <-kdeCh:
			open = ok
		case <-deadline:
			t.Fatal("cancelled KDE stream never closed")
		}
	}
	var last TermsSnapshot
	for snap := range termsCh {
		last = snap
	}
	if !last.Done || last.Terms.Samples != 300 {
		t.Fatalf("terms after session switch: %+v", last)
	}
}

func TestDeleteRange(t *testing.T) {
	_, h := buildHandle(t, 5000, true)
	probe := geo.Range{MinX: 20, MinY: 20, MaxX: 40, MaxY: 40, MinT: 0, MaxT: 100}
	before := h.Count(probe)
	if before == 0 {
		t.Fatal("degenerate fixture")
	}
	n, err := h.DeleteRange(probe)
	if err != nil {
		t.Fatal(err)
	}
	if n != before {
		t.Errorf("deleted %d, want %d", n, before)
	}
	if got := h.Count(probe); got != 0 {
		t.Errorf("count after delete = %d", got)
	}
	// Other regions untouched.
	if h.Len() != 5000-before {
		t.Errorf("len = %d", h.Len())
	}
	// Deleted records never sampled.
	got, err := h.Sample(geo.Range{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100, MinT: 0, MaxT: 100},
		2000, Auto, sampling.WithoutReplacement, 3)
	if err != nil {
		t.Fatal(err)
	}
	rect := probe.Rect()
	for _, e := range got {
		if rect.Contains(e.Pos) {
			t.Fatalf("sampled deleted record %d", e.ID)
		}
	}
	if _, err := h.DeleteRange(geo.Range{MinX: 5, MaxX: 1}); err == nil {
		t.Error("invalid range should error")
	}
}

// TestConcurrentQueriesAcrossHandles runs online queries on two datasets in
// parallel; handle-level locking must keep them isolated and deadlock-free.
func TestConcurrentQueriesAcrossHandles(t *testing.T) {
	e := New(Config{Seed: 33})
	var handles []*Handle
	for i := 0; i < 3; i++ {
		ds := gen.Uniform(10000, int64(40+i), geo.Range{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100, MinT: 0, MaxT: 100})
		// Distinct names: rename through a fresh dataset.
		renamed := data.NewDataset(fmt.Sprintf("u%d", i))
		renamed.AddNumericColumn("value")
		col, _ := ds.NumericColumn("value")
		for j := 0; j < ds.Len(); j++ {
			id := renamed.AppendFast(ds.Pos(uint64(j)))
			renamed.SetNumeric("value", id, col[j])
		}
		h, err := e.Register(renamed, IndexOptions{})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 30)
	for round := 0; round < 10; round++ {
		for _, h := range handles {
			wg.Add(1)
			go func(h *Handle) {
				defer wg.Done()
				snap, err := h.Estimate(context.Background(), testRange, Options{
					Kind: estimator.Avg, Attr: "value", MaxSamples: 200,
				})
				if err != nil {
					errs <- err
					return
				}
				if !snap.Done || snap.Samples != 200 {
					errs <- fmt.Errorf("bad snapshot %+v", snap)
				}
			}(h)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestSessionCancelsPreviousQuery(t *testing.T) {
	_, h := buildHandle(t, 50000, false)
	s := NewSession(h)
	ch1, err := s.EstimateOnline(context.Background(), testRange, Options{
		Kind: estimator.Avg, Attr: "value", ReportEvery: 10, Method: MethodRSTree,
	})
	if err != nil {
		t.Fatal(err)
	}
	<-ch1 // first snapshot arrived; query is mid-flight
	ch2, err := s.EstimateOnline(context.Background(), testRange, Options{
		Kind: estimator.Avg, Attr: "value", MaxSamples: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The first stream must terminate (cancelled), the second completes.
	deadline := time.After(5 * time.Second)
	for open := true; open; {
		select {
		case _, ok := <-ch1:
			open = ok
		case <-deadline:
			t.Fatal("cancelled query stream never closed")
		}
	}
	var last Snapshot
	for s := range ch2 {
		last = s
	}
	if !last.Done || last.Samples != 100 {
		t.Fatalf("second query: %+v", last)
	}
	s.Stop() // idempotent
	s.Stop()
}

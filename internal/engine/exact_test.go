package engine

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"storm/internal/data"
	"storm/internal/estimator"
	"storm/internal/geo"
	"storm/internal/pred"
	"storm/internal/sampling"
)

// zoomRange is a zoom-shaped region of buildHandle's data: a few fully
// covered leaf-parent subtrees inside a frontier of partial leaves.
var zoomRange = geo.Range{MinX: 30, MinY: 30, MaxX: 55, MaxY: 55, MinT: 0, MaxT: 100}

// counters reads the engine counters the exact plan moves.
func counters(e *Engine) (drawn, plans, records uint64) {
	r := e.Obs()
	return r.Counter("storm.engine.samples.drawn").Value(),
		r.Counter("storm.engine.exact.plans").Value(),
		r.Counter("storm.engine.exact.records").Value()
}

// closeTo is the benchmark's test of an exact answer against brute force:
// equal up to the rounding of summing in another order.
func closeTo(got, want float64) bool {
	return math.Abs(got-want) <= 1e-7*math.Max(1, math.Abs(want))
}

// bruteForce returns the records of h inside q that pass where, and the
// moments of their present values of attr, by a scan of the whole store.
func bruteForce(h *Handle, q geo.Range, attr string, where []pred.Term) (records int, w estimator.Welford) {
	col, _ := h.Data().NumericColumn(attr)
	var match func(data.ID) bool
	if len(where) > 0 {
		c, err := pred.Normalize(where).Compile(h.Data())
		if err != nil {
			panic(err)
		}
		match = c.Match
	}
	rect := q.Rect()
	for i := 0; i < h.Data().Len(); i++ {
		id := data.ID(i)
		if _, gone := h.deleted[id]; gone || !rect.Contains(h.Data().Pos(id)) || (match != nil && !match(id)) {
			continue
		}
		records++
		if v := col[i]; !math.IsNaN(v) {
			w.Add(v)
		}
	}
	return records, w
}

// want is the exact answer of kind over those records: SUM adds the
// present values, the others range over them.
func want(kind estimator.Kind, w estimator.Welford) float64 {
	switch kind {
	case estimator.Sum:
		return w.Mean() * float64(w.N())
	case estimator.Variance:
		return w.SampleVariance()
	case estimator.Stddev:
		return math.Sqrt(w.SampleVariance())
	}
	return w.Mean()
}

// TestExactFinishZoomShaped: under Auto, tight-error AVG, SUM and STDDEV
// over a zoom-shaped region are answered by the exact plan — one exact
// snapshot over the whole population, equal to brute force — without
// drawing a sample.
func TestExactFinishZoomShaped(t *testing.T) {
	e, h := buildHandle(t, 50000, false)
	pop, w := bruteForce(h, zoomRange, "value", nil)
	targets := map[estimator.Kind]float64{estimator.Avg: 0.001, estimator.Sum: 0.001, estimator.Stddev: 0.015}
	for _, kind := range []estimator.Kind{estimator.Avg, estimator.Sum, estimator.Stddev} {
		ch, err := h.EstimateOnline(context.Background(), zoomRange, Options{Kind: kind, Attr: "value", TargetRelError: targets[kind], Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		var snaps []Snapshot
		for s := range ch {
			snaps = append(snaps, s)
		}
		s := snaps[len(snaps)-1]
		if len(snaps) != 1 || s.Method != "exact" || !s.Exact || s.HalfWidth != 0 || s.Samples != pop || s.Population != pop {
			t.Fatalf("%v: %d snapshots, final %s exact=%v ±%v samples %d population %d; want one exact over %d",
				kind, len(snaps), s.Method, s.Exact, s.HalfWidth, s.Samples, s.Population, pop)
		}
		if !closeTo(s.Value, want(kind, w)) {
			t.Errorf("exact %v = %v, brute force %v", kind, s.Value, want(kind, w))
		}
	}
	if drawn, plans, records := counters(e); drawn != 0 || plans != 3 || records != 3*uint64(pop) {
		t.Errorf("samples.drawn %d, exact.plans %d, exact.records %d; want 0, 3, %d", drawn, plans, records, 3*pop)
	}
}

// TestExactFinishNeverForCappedOrWithReplacement: every shape outside the
// exact plan keeps its stream — SAMPLES n, with replacement, an explicit
// method, MEDIAN, an absolute half-width target — and an explicit stream
// that drains its population is exact by exhaustion, not by the plan.
func TestExactFinishNeverForCappedOrWithReplacement(t *testing.T) {
	e, h := buildHandle(t, 50000, false)
	ctx := context.Background()
	pop, _ := bruteForce(h, zoomRange, "value", nil)
	for _, o := range []Options{
		{Kind: estimator.Avg, MaxSamples: 10 * pop},
		{Kind: estimator.Avg, Mode: sampling.WithReplacement, TargetRelError: 0.01},
		{Kind: estimator.Avg, Method: MethodRSTree},
		{Kind: estimator.Sum, Method: MethodQueryFirst},
		{Kind: estimator.Median, TargetHalfWidth: 1},
		{Kind: estimator.Avg, TargetHalfWidth: 0.01},
	} {
		o.Attr, o.Seed = "value", 3
		s, err := h.Estimate(ctx, zoomRange, o)
		if err != nil {
			t.Fatal(err)
		}
		if s.Method == "exact" || s.Samples == 0 {
			t.Errorf("%+v: answered by %s after %d samples; want a stream", o, s.Method, s.Samples)
		}
		if o.Method != Auto && (!s.Exact || s.Samples != pop) {
			t.Errorf("%+v: drained stream exact=%v over %d samples; want exact over %d", o, s.Exact, s.Samples, pop)
		}
	}
	if _, plans, _ := counters(e); plans != 0 {
		t.Errorf("exact.plans = %d, want 0", plans)
	}
}

// TestExactFinishContract: a contract the exact plan answers is met and
// exact, its plan predicts so, and the profile learns the region's exact
// CV but no sampling rate. With that warm CV, a loose target over a large
// region goes back to sampling, as does the same contract under USING
// RSTREE.
func TestExactFinishContract(t *testing.T) {
	_, h := buildHandle(t, 50000, false)
	ctx := context.Background()
	avg := Options{Kind: estimator.Avg, Attr: "value", Seed: 5}
	tight := Contract{RelError: 0.001, Deadline: 5 * time.Second}
	res, err := h.EstimateContract(ctx, zoomRange, avg, tight)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != ContractMet || !res.Exact || res.Method != "exact" || !res.Plan.Exact {
		t.Fatalf("contract %v, exact=%v by %s, plan exact=%v; want met and exact by the plan", res.Status, res.Exact, res.Method, res.Plan.Exact)
	}
	_, w := bruteForce(h, zoomRange, "value", nil)
	rate, cv, queries := h.prof.snapshot("value")
	if wantCV := math.Sqrt(w.SampleVariance()) / w.Mean(); queries != 1 || rate != 0 || !closeTo(cv, wantCV) {
		t.Errorf("profile after an exact answer: rate %v, cv %v over %d queries; want 0, %v, 1", rate, cv, queries, wantCV)
	}

	// A 10% target over testRange: priced at the cold CV of 1 its need
	// (385) covers the population at the plan's ratio, priced at the warm
	// CV of 0.2 (16) it does not.
	loose := Options{Kind: estimator.Avg, Attr: "value", TargetRelError: 0.10, Seed: 6}
	_, cold := buildHandle(t, 50000, false)
	if s, err := cold.Estimate(ctx, testRange, loose); err != nil || s.Method != "exact" {
		t.Fatalf("loose target on a cold profile: %s, %v; want the exact plan", s.Method, err)
	}
	s, err := h.Estimate(ctx, testRange, loose)
	if err != nil {
		t.Fatal(err)
	}
	if s.Method == "exact" || s.Exact || s.RelativeErrorBound() > 0.10 {
		t.Errorf("loose target on a warm profile: %s, exact=%v, rel %v; want a sampled answer inside 10%%", s.Method, s.Exact, s.RelativeErrorBound())
	}
	if _, _, queries := h.prof.snapshot("value"); queries != 2 {
		t.Errorf("profile queries = %d after a sampled answer, want 2", queries)
	}
	avg.Method = MethodRSTree
	if res, err = h.EstimateContract(ctx, zoomRange, avg, Contract{RelError: 0.05}); err != nil || res.Method == "exact" || res.Plan.Exact {
		t.Errorf("USING RSTREE contract: %s, plan exact=%v, %v; want a stream", res.Method, res.Plan.Exact, err)
	}
}

// TestExactPlanMatchesBruteForce checks the exact plan against a scan of
// the whole store over a pool of zoom-shaped regions, with and without
// predicates, over values with NaN holes, and after insert/delete churn
// left some node summaries stale.
func TestExactPlanMatchesBruteForce(t *testing.T) {
	_, h := buildHandle(t, 30000, false)
	ctx := context.Background()
	var regions []geo.Range
	for i := 0; i < 12; i++ {
		x, y, half := 10+float64(i*7%70), 15+float64(i*11%65), []float64{3, 8, 15}[i%3]
		regions = append(regions, geo.Range{MinX: x - half, MinY: y - half, MaxX: x + half, MaxY: y + half, MinT: 0, MaxT: 100})
	}
	regions = append(regions, geo.Range{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100, MinT: 10, MaxT: 60})
	wheres := [][]pred.Term{nil,
		{{Attr: "value", Lo: 100, Hi: math.Inf(1), LoOpen: true}},
		{{Attr: "value", Lo: 80, Hi: 110}, {Attr: "value", Lo: 90, Hi: math.Inf(1)}},
	}
	check := func(stage string) {
		t.Helper()
		for ri, q := range regions {
			for wi, where := range wheres {
				records, w := bruteForce(h, q, "value", where)
				if records == 0 {
					continue
				}
				for _, kind := range []estimator.Kind{estimator.Avg, estimator.Sum, estimator.Variance} {
					s, err := h.Estimate(ctx, q, Options{Kind: kind, Attr: "value", Where: where})
					if err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("%s region %d where %d %v", stage, ri, wi, kind)
					if s.Method != "exact" || !s.Exact || s.Samples != records || s.Population != records {
						t.Fatalf("%s: %s exact=%v samples %d population %d; want exact over %d", name, s.Method, s.Exact, s.Samples, s.Population, records)
					}
					if !closeTo(s.Value, want(kind, w)) {
						t.Errorf("%s = %v, brute force %v", name, s.Value, want(kind, w))
					}
				}
			}
		}
	}
	check("built")

	// Records without the attribute, some inside the regions, and churn:
	// deletes and inserts move node versions, so the next pass recomputes
	// the digests and leaf values it reads.
	rows := make([]data.Row, 0, 900)
	for i := 0; i < 900; i++ {
		r := data.Row{Pos: geo.Vec{float64(i%97) + 0.5, float64(i*31%89) + 0.25, float64(i % 100)}}
		if i%3 != 0 {
			r.Num = map[string]float64{"value": 60 + float64(i%83)}
		}
		rows = append(rows, r)
	}
	h.InsertBatch(rows[:450])
	if _, err := h.DeleteRange(geo.Range{MinX: 20, MinY: 20, MaxX: 24, MaxY: 70, MinT: 0, MaxT: 100}); err != nil {
		t.Fatal(err)
	}
	for id := data.ID(0); id < 3000; id += 7 {
		h.Delete(id)
	}
	h.InsertBatch(rows[450:])
	check("churned")
}

// TestSumOverMissingValues is the SUM rule's regression: 500 records
// without the attribute inside the region. A full drain under Auto (the
// exact plan), the RS-tree and QueryFirst must each answer the sum of the
// present values, exactly.
func TestSumOverMissingValues(t *testing.T) {
	_, h := buildHandle(t, 5000, false)
	rows := make([]data.Row, 500)
	for i := range rows {
		rows[i] = data.Row{Pos: geo.Vec{21 + float64(i%38), 21 + float64(i*7%38), float64(i % 100)}}
	}
	h.InsertBatch(rows)
	records, w := bruteForce(h, testRange, "value", nil)
	if w.N() != records-500 {
		t.Fatalf("fixture: %d records, %d with a value", records, w.N())
	}
	for _, m := range []Method{Auto, MethodRSTree, MethodQueryFirst} {
		s, err := h.Estimate(context.Background(), testRange, Options{Kind: estimator.Sum, Attr: "value", Method: m, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		if !s.Exact || s.Samples != records || !closeTo(s.Value, want(estimator.Sum, w)) {
			t.Errorf("%v: SUM %v exact=%v over %d samples; want exact %v over %d", m, s.Value, s.Exact, s.Samples, want(estimator.Sum, w), records)
		}
	}
}

// TestExactPlanFitsTheDeadline: a time budget prices the exact pass at
// exactRecordCost per record, since the pass does not stop at a deadline.
// Over the whole dataset, whose pass cannot fit 1 ms, a deadline-only
// contract and an untargeted estimate WITHIN 1 ms keep sampling, and a
// 0.01% contract WITHIN 1 ms is planned as the infeasible stream it is.
// Over a zoom-shaped region, whose pass fits, the same shapes are exact.
func TestExactPlanFitsTheDeadline(t *testing.T) {
	e, h := buildHandle(t, 50000, false)
	ctx := context.Background()
	all := geo.Range{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100, MinT: 0, MaxT: 100}
	const budget = time.Millisecond
	if big, small := h.Count(all), h.Count(zoomRange); time.Duration(big)*exactRecordCost <= budget || time.Duration(small)*exactRecordCost > budget/2 {
		t.Fatalf("fixture: passes of %d and %d records do not straddle %v", big, small, budget)
	}
	avg := Options{Kind: estimator.Avg, Attr: "value", Seed: 7}
	within := avg
	within.TimeBudget = budget
	deadlineOnly := Contract{Deadline: budget}
	tight := Contract{RelError: 0.0001, Deadline: budget}

	res, err := h.EstimateContract(ctx, all, avg, deadlineOnly)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Exact || res.Method == "exact" {
		t.Errorf("deadline-only contract over %d records: plan exact=%v, answered by %s; want a stream", res.Plan.Qualifying, res.Plan.Exact, res.Method)
	}
	if s, err := h.Estimate(ctx, all, within); err != nil || s.Method == "exact" {
		t.Errorf("untargeted estimate WITHIN %v: %s, %v; want a stream", budget, s.Method, err)
	}
	if plan, err := h.ExplainContract(all, avg, tight); err != nil || plan.Exact || plan.Feasible {
		t.Errorf("%v over everything: exact=%v feasible=%v, %v; want an infeasible stream", tight, plan.Exact, plan.Feasible, err)
	}
	if _, plans, _ := counters(e); plans != 0 {
		t.Fatalf("exact.plans = %d over passes that cannot fit, want 0", plans)
	}

	if res, err = h.EstimateContract(ctx, zoomRange, avg, deadlineOnly); err != nil || !res.Plan.Exact || res.Method != "exact" || !res.Exact {
		t.Errorf("deadline-only contract over a zoom region: plan exact=%v, %s exact=%v, %v; want the exact plan", res.Plan.Exact, res.Method, res.Exact, err)
	}
	if s, err := h.Estimate(ctx, zoomRange, within); err != nil || s.Method != "exact" {
		t.Errorf("untargeted estimate WITHIN %v over a zoom region: %s, %v; want the exact plan", budget, s.Method, err)
	}
	if plan, err := h.ExplainContract(zoomRange, avg, tight); err != nil || !plan.Exact || !plan.Feasible {
		t.Errorf("%v over a zoom region: exact=%v feasible=%v, %v; want a feasible exact plan", tight, plan.Exact, plan.Feasible, err)
	}
}

// TestExactPlanStopsWhenCancelled: the exact pass checks its context, so a
// cancelled request folds nothing and is not counted as an exact plan.
func TestExactPlanStopsWhenCancelled(t *testing.T) {
	e, h := buildHandle(t, 50000, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	all := geo.Range{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100, MinT: 0, MaxT: 100}
	ch, err := h.EstimateOnline(ctx, all, Options{Kind: estimator.Avg, Attr: "value", Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	for s := range ch {
		if s.Exact || s.Samples != 0 {
			t.Errorf("cancelled pass answered exact=%v over %d records; want nothing folded", s.Exact, s.Samples)
		}
	}
	if _, plans, records := counters(e); plans != 0 || records != 0 {
		t.Errorf("exact.plans %d, exact.records %d after a cancelled pass; want 0, 0", plans, records)
	}
}

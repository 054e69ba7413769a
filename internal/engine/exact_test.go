package engine

import (
	"context"
	"math"
	"testing"
	"time"

	"storm/internal/estimator"
	"storm/internal/geo"
	"storm/internal/sampling"
)

// zoomRange is a zoom-shaped region of buildHandle's data: its frontier is
// boundary leaf-parent parts, all of them materialized after a few hundred
// draws.
var zoomRange = geo.Range{MinX: 30, MinY: 30, MaxX: 55, MaxY: 55, MinT: 0, MaxT: 100}

// counters reads the engine counters an exact finish moves.
func counters(e *Engine) (drawn, finishes, records uint64) {
	r := e.Obs()
	return r.Counter("storm.engine.samples.drawn").Value(),
		r.Counter("storm.engine.exact.finishes").Value(),
		r.Counter("storm.engine.exact.records").Value()
}

// TestExactFinishZoomShaped: a tight-error AVG over boundary leaf-parent
// parts ends exact once its stream is held, equal to brute force, after
// drawing under a quarter of its records; the rest is folded.
func TestExactFinishZoomShaped(t *testing.T) {
	e, h := buildHandle(t, 50000, false)
	want, pop := trueMean(h, zoomRange, "value")
	s, err := h.Estimate(context.Background(), zoomRange, Options{
		Kind: estimator.Avg, Attr: "value", TargetRelError: 0.001, Method: MethodRSTree, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	drawn, finishes, records := counters(e)
	if !s.Exact || s.HalfWidth != 0 || s.Samples != pop || s.Population != pop {
		t.Fatalf("final snapshot exact=%v ±%v samples %d population %d; want exact over %d", s.Exact, s.HalfWidth, s.Samples, s.Population, pop)
	}
	if math.Abs(s.Value-want) > 1e-7*math.Max(1, math.Abs(want)) {
		t.Errorf("exact AVG %v, brute force %v", s.Value, want)
	}
	if drawn >= uint64(pop/4) {
		t.Errorf("drew %d of %d records; want under a quarter", drawn, pop)
	}
	if finishes != 1 || drawn+records != uint64(pop) {
		t.Errorf("exact.finishes %d, exact.records %d after %d draws; want 1 and the %d left", finishes, records, drawn, uint64(pop)-drawn)
	}

	// Without a target the need is unbounded: the stream finishes at the
	// same held pull, not later.
	e2, h2 := buildHandle(t, 50000, false)
	s2, err := h2.Estimate(context.Background(), zoomRange, Options{Kind: estimator.Avg, Attr: "value", Method: MethodRSTree, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	drawn2, finishes2, _ := counters(e2)
	if !s2.Exact || finishes2 != 1 || drawn2 != drawn {
		t.Errorf("untargeted: exact=%v finishes %d after %d draws; want exact, 1, after %d", s2.Exact, finishes2, drawn2, drawn)
	}
}

// TestExactFinishNeverForCappedOrWithReplacement: a MaxSamples cap and
// with-replacement sampling keep their sampled streams; a capped query
// that drains its population is exact by exhaustion, not by a finish.
func TestExactFinishNeverForCappedOrWithReplacement(t *testing.T) {
	e, h := buildHandle(t, 50000, false)
	ctx := context.Background()
	_, pop := trueMean(h, zoomRange, "value")
	s, err := h.Estimate(ctx, zoomRange, Options{Kind: estimator.Avg, Attr: "value", Method: MethodRSTree, Seed: 3, MaxSamples: 10 * pop})
	if err != nil {
		t.Fatal(err)
	}
	if drawn, finishes, _ := counters(e); !s.Exact || finishes != 0 || drawn != uint64(pop) {
		t.Errorf("capped: exact=%v, finishes %d, %d draws; want exact by drawing all %d", s.Exact, finishes, drawn, pop)
	}
	s, err = h.Estimate(ctx, zoomRange, Options{Kind: estimator.Avg, Attr: "value", Method: MethodRSTree, Seed: 4,
		Mode: sampling.WithReplacement, TargetRelError: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if _, finishes, _ := counters(e); s.Exact || finishes != 0 {
		t.Errorf("with replacement: exact=%v, finishes %d; want neither", s.Exact, finishes)
	}
}

// TestExactFinishContract: a contract with a deadline whose target the
// held rest beats finishes exact and met, and the profile learns the
// drawing rate — drawn samples over elapsed time — not the folded
// population, and no CV from the exact answer.
func TestExactFinishContract(t *testing.T) {
	e, h := buildHandle(t, 50000, false)
	res, err := h.EstimateContract(context.Background(), zoomRange, Options{Kind: estimator.Avg, Attr: "value", Method: MethodRSTree, Seed: 5},
		Contract{RelError: 0.001, Deadline: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != ContractMet || !res.Exact {
		t.Fatalf("contract %v, exact=%v; want met and exact", res.Status, res.Exact)
	}
	drawn, finishes, _ := counters(e)
	if finishes != 1 {
		t.Fatalf("exact.finishes = %d, want 1", finishes)
	}
	rate, cv, queries := h.prof.snapshot("value")
	ms := float64(res.Elapsed) / float64(time.Millisecond)
	if want := float64(drawn) / ms; queries != 1 || rate != want {
		t.Errorf("profile rate %v over %d queries; want drawn/elapsed = %d/%.3fms = %v", rate, queries, drawn, ms, want)
	}
	if cv != 0 {
		t.Errorf("profile CV %v after an exact answer; want untouched", cv)
	}
}

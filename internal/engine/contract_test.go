package engine

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"storm/internal/estimator"
	"storm/internal/geo"
	"storm/internal/sampling"
	"storm/internal/stats"
	"storm/internal/stats/statcheck"
)

func TestContractValidation(t *testing.T) {
	_, h := buildHandle(t, 500, false)
	cases := []struct {
		name string
		opts Options
		c    Contract
		want string // substring of the error, "" = valid
	}{
		{"negative-error", Options{Kind: estimator.Avg, Attr: "value"}, Contract{RelError: -0.02}, "negative"},
		{"negative-deadline", Options{Kind: estimator.Avg, Attr: "value"}, Contract{Deadline: -time.Second}, "negative"},
		{"empty", Options{Kind: estimator.Avg, Attr: "value"}, Contract{}, "empty contract"},
		{"bad-confidence", Options{Kind: estimator.Avg, Attr: "value"}, Contract{RelError: 0.05, Confidence: 1.5}, "confidence"},
		{"quantile-error-target", Options{Kind: estimator.Quant, Attr: "value", QuantileP: 0.9}, Contract{RelError: 0.05}, "CLT"},
		{"median-error-target", Options{Kind: estimator.Median, Attr: "value"}, Contract{RelError: 0.05}, "CLT"},
		{"error-only", Options{Kind: estimator.Avg, Attr: "value"}, Contract{RelError: 0.2}, ""},
		{"deadline-only", Options{Kind: estimator.Avg, Attr: "value"}, Contract{Deadline: time.Second}, ""},
		{"deadline-only-median", Options{Kind: estimator.Median, Attr: "value"}, Contract{Deadline: time.Second}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := h.ExplainContract(testRange, tc.opts, tc.c)
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("unexpected error %v", err)
			case tc.want != "" && err == nil:
				t.Errorf("expected error containing %q, got nil", tc.want)
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestContractColdPlan checks the planner's fallback on a dataset with no
// telemetry: the plan of a sampled contract must come from the documented
// priors (unit CV, the cold throughput prior), be flagged Cold, and size
// the sample budget as k = ceil((z·cv/ε)²).
func TestContractColdPlan(t *testing.T) {
	_, h := buildHandle(t, 20_000, false)
	all := geo.Range{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100, MinT: 0, MaxT: 100}
	c := Contract{RelError: 0.02, Confidence: 0.95, Deadline: time.Second}
	rstree := Options{Kind: estimator.Avg, Attr: "value", Method: MethodRSTree}
	plan, err := h.ExplainContract(all, rstree, c)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Cold {
		t.Errorf("fresh dataset planned warm: %+v", plan)
	}
	if plan.CV != contractColdCV || plan.RateSPMS != contractColdRateSPMS {
		t.Errorf("cold priors not used: cv=%v rate=%v", plan.CV, plan.RateSPMS)
	}
	z := stats.ZScore(0.95)
	wantK := int(math.Ceil((z * contractColdCV / 0.02) * (z * contractColdCV / 0.02)))
	if plan.Samples != wantK {
		t.Errorf("Samples = %d, want ceil((z·cv/ε)²) = %d", plan.Samples, wantK)
	}
	if plan.Exact {
		t.Errorf("plan predicted exact with budget %d over %d qualifying", plan.Samples, plan.Qualifying)
	}
	if plan.Qualifying != 20_000 {
		t.Errorf("Qualifying = %d, want 20000", plan.Qualifying)
	}
	if plan.Budget <= 0 {
		t.Errorf("deadline budget not predicted: %+v", plan)
	}
	if plan.ReportEvery < minPullBatch || plan.ReportEvery > maxPullBatch {
		t.Errorf("ReportEvery = %d outside batch bounds [%d, %d]", plan.ReportEvery, minPullBatch, maxPullBatch)
	}

	// A cold prediction that exceeds the qualifying population plans to
	// drain it by sampling under an explicit method, and under Auto takes
	// the exact plan, as does the looser contract above.
	tight := Contract{RelError: 0.001, Confidence: 0.95}
	drain, err := h.ExplainContract(all, rstree, tight)
	if err != nil {
		t.Fatal(err)
	}
	if drain.Exact || drain.Samples != 20_000 {
		t.Errorf("drain plan = %+v, want 20000 samples", drain)
	}
	for _, c := range []Contract{c, tight} {
		exPlan, err := h.ExplainContract(all, Options{Kind: estimator.Avg, Attr: "value"}, c)
		if err != nil {
			t.Fatal(err)
		}
		if !exPlan.Exact || exPlan.Samples != 0 || exPlan.Qualifying != 20_000 {
			t.Errorf("%v under Auto: plan %+v, want exact over 20000", c, exPlan)
		}
	}
}

// TestContractWarmProfile checks that completed estimates feed the
// dataset's response profile and flip subsequent plans from priors to
// measured telemetry.
func TestContractWarmProfile(t *testing.T) {
	_, h := buildHandle(t, 20_000, false)
	all := geo.Range{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100, MinT: 0, MaxT: 100}
	for seed := int64(1); seed <= 3; seed++ {
		if _, err := h.Estimate(context.Background(), all, Options{
			Kind: estimator.Avg, Attr: "value", MaxSamples: 2000, Seed: seed,
		}); err != nil {
			t.Fatal(err)
		}
	}
	rate, cv, queries := h.prof.snapshot("value")
	if queries < 3 || rate <= 0 || cv <= 0 {
		t.Fatalf("profile after 3 estimates: rate=%v cv=%v queries=%d", rate, cv, queries)
	}
	// gen.Uniform's value ~ N(100, 20): the recovered CV must be in the
	// neighbourhood of 0.2, not the unit prior.
	if cv < 0.05 || cv > 0.6 {
		t.Errorf("profiled cv = %v, want ≈ 0.2", cv)
	}
	plan, err := h.ExplainContract(all, Options{Kind: estimator.Avg, Attr: "value"},
		Contract{RelError: 0.02, Confidence: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Cold {
		t.Errorf("plan still cold after profiling: %+v", plan)
	}
	if plan.CV == contractColdCV {
		t.Errorf("plan ignored the profiled cv: %+v", plan)
	}
	// A profiled CV of ~0.2 needs ~25× fewer samples than the unit prior.
	z := stats.ZScore(0.95)
	coldK := int(math.Ceil((z / 0.02) * (z / 0.02)))
	if plan.Samples >= coldK {
		t.Errorf("warm budget %d not tighter than cold %d", plan.Samples, coldK)
	}
}

// TestContractMet runs a generously bounded contract end to end: one
// final answer, a met verdict, and the met counter incremented.
func TestContractMet(t *testing.T) {
	e, h := buildHandle(t, 20_000, false)
	c := Contract{RelError: 0.10, Confidence: 0.95, Deadline: 10 * time.Second}
	res, err := h.EstimateContract(context.Background(), testRange, Options{
		Kind: estimator.Avg, Attr: "value", Seed: 11,
	}, c)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatalf("contract answer not final: %+v", res.Snapshot)
	}
	if res.Status != ContractMet {
		t.Fatalf("status = %v (achieved %.4f, elapsed %v), want met", res.Status, res.AchievedRelError, res.Elapsed)
	}
	if !res.Exact && res.AchievedRelError > c.RelError*contractSlack {
		t.Errorf("met verdict with achieved error %v > target %v", res.AchievedRelError, c.RelError)
	}
	if res.Contract.Confidence != 0.95 {
		t.Errorf("effective confidence = %v", res.Contract.Confidence)
	}
	truth, _ := trueMean(h, testRange, "value")
	if !res.Exact && math.Abs(res.Value-truth) > truth*0.5 {
		t.Errorf("estimate %v wildly off truth %v", res.Value, truth)
	}
	if got := e.Obs().Counter("storm.engine.contracts.met").Value(); got != 1 {
		t.Errorf("contracts.met = %d, want 1", got)
	}
	if s := res.String(); !strings.Contains(s, "contract met") {
		t.Errorf("String() = %q, want a met verdict", s)
	}
}

// TestContractDegraded caps sampling below what the error target needs
// (Options.MaxSamples is an additional cap): the answer must arrive with
// the degraded verdict and its achieved, wider CI.
func TestContractDegraded(t *testing.T) {
	e, h := buildHandle(t, 20_000, false)
	c := Contract{RelError: 0.001, Confidence: 0.95}
	res, err := h.EstimateContract(context.Background(), testRange, Options{
		Kind: estimator.Avg, Attr: "value", MaxSamples: 100, Mode: sampling.WithReplacement, Seed: 12,
	}, c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != ContractDegraded {
		t.Fatalf("status = %v (achieved %.4f over %d samples), want degraded",
			res.Status, res.AchievedRelError, res.Samples)
	}
	if res.Samples != 100 {
		t.Errorf("samples = %d, want the 100-sample cap", res.Samples)
	}
	if res.AchievedRelError <= c.RelError {
		t.Errorf("degraded verdict but achieved %v ≤ target %v", res.AchievedRelError, c.RelError)
	}
	if got := e.Obs().Counter("storm.engine.contracts.degraded").Value(); got != 1 {
		t.Errorf("contracts.degraded = %d, want 1", got)
	}
}

// TestContractDeadlineOnly checks the WITHIN-only form: an on-time answer
// meets the contract with no accuracy clause involved.
func TestContractDeadlineOnly(t *testing.T) {
	_, h := buildHandle(t, 20_000, false)
	res, err := h.EstimateContract(context.Background(), testRange, Options{
		Kind: estimator.Avg, Attr: "value", MaxSamples: 500, Seed: 13,
	}, Contract{Deadline: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != ContractMet {
		t.Fatalf("status = %v (elapsed %v), want met", res.Status, res.Elapsed)
	}
	if res.AchievedRelError == 0 && !res.Exact {
		t.Errorf("deadline-only answer lost its achieved CI: %+v", res.Snapshot)
	}
}

// TestContractCountExact: COUNT answers from the range count without
// sampling, so the plan and the verdict are exact/met immediately.
func TestContractCountExact(t *testing.T) {
	_, h := buildHandle(t, 5_000, false)
	res, err := h.EstimateContract(context.Background(), testRange, Options{
		Kind: estimator.Count,
	}, Contract{RelError: 0.01, Confidence: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Plan.Exact || !res.Exact || res.Status != ContractMet {
		t.Fatalf("COUNT contract = status %v, exact %v/%v; want exact met", res.Status, res.Plan.Exact, res.Exact)
	}
	_, want := trueMean(h, testRange, "value")
	if int(res.Value) != want {
		t.Errorf("COUNT = %v, want %d", res.Value, want)
	}
}

// TestContractMissedCancelled cancels the query before its (unreachable)
// error target: a cancellation before the contract ran its course is a
// miss, not a degradation.
func TestContractMissedCancelled(t *testing.T) {
	e, h := buildHandle(t, 20_000, false)
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	res, err := h.EstimateContract(ctx, testRange, Options{
		Kind: estimator.Avg, Attr: "value", Mode: sampling.WithReplacement, Seed: 14,
	}, Contract{RelError: 1e-7, Confidence: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != ContractMissed {
		t.Fatalf("status = %v after cancellation, want missed", res.Status)
	}
	if got := e.Obs().Counter("storm.engine.contracts.missed").Value(); got != 1 {
		t.Errorf("contracts.missed = %d, want 1", got)
	}
}

func TestContractScale(t *testing.T) {
	c := Contract{RelError: 0.02, Confidence: 0.95, Deadline: 400 * time.Millisecond}
	s := c.Scale(2)
	if s.RelError != 0.04 || s.Deadline != 200*time.Millisecond {
		t.Errorf("Scale(2) = %+v", s)
	}
	if got := c.Scale(0.5); got != c {
		t.Errorf("Scale(0.5) should be a no-op, got %+v", got)
	}
	if got := c.Scale(math.Inf(1)); got != c {
		t.Errorf("Scale(+Inf) should be a no-op, got %+v", got)
	}
	floor := Contract{Deadline: 10 * time.Millisecond}.Scale(1e6)
	if floor.Deadline != contractMinDeadline {
		t.Errorf("scaled deadline = %v, want the %v floor", floor.Deadline, contractMinDeadline)
	}
	if s := (Contract{RelError: 0.02, Deadline: time.Second}).String(); !strings.Contains(s, "ERROR 2%") || !strings.Contains(s, "WITHIN 1s") {
		t.Errorf("Contract.String() = %q", s)
	}
	if s := (Contract{}).String(); s != "unconstrained" {
		t.Errorf("empty Contract.String() = %q", s)
	}
}

// TestStatContractCoverage is the contract statistical suite (run by
// `make test-stats`): over many seeded runs of an ERROR 5% AT CONFIDENCE
// 95% contract, every answer must carry the met verdict and the returned
// 95% confidence intervals must cover the true range mean at their
// nominal rate. Seeds are fixed; a failure is a regression, not noise
// (alpha per check is statcheck.DefaultAlpha = 1e-3). The 3% slack
// absorbs the optional-stopping bias of the contract's stopping rule —
// the run ends on the first batch whose CI is inside the target, which
// clips coverage slightly below a fixed-n design.
func TestStatContractCoverage(t *testing.T) {
	_, h := buildHandle(t, 6_000, false)
	all := geo.Range{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100, MinT: 0, MaxT: 100}
	truth, _ := trueMean(h, all, "value")
	c := Contract{RelError: 0.05, Confidence: 0.95, Deadline: 30 * time.Second}

	var intervals []statcheck.Interval
	for _, seed := range statcheck.Seeds(0xC0117AC7, 150) {
		res, err := h.EstimateContract(context.Background(), all, Options{
			Kind: estimator.Avg, Attr: "value", Seed: seed, Method: MethodRSTree,
		}, c)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != ContractMet {
			t.Fatalf("seed %d: status %v (achieved %.4f, %d samples), want met",
				seed, res.Status, res.AchievedRelError, res.Samples)
		}
		if !res.Exact && res.AchievedRelError > c.RelError*contractSlack {
			t.Fatalf("seed %d: met verdict with achieved error %v > 5%%", seed, res.AchievedRelError)
		}
		intervals = append(intervals, statcheck.IntervalAround(res.Value, res.HalfWidth))
	}
	statcheck.Coverage(t, "contract-met-ci", truth, intervals, 0.95, 0.03, statcheck.DefaultAlpha)
}

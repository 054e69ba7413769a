package engine

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"storm/internal/estimator"
	"storm/internal/geo"
	"storm/internal/stats"
)

// Contract is a per-query accuracy/latency service contract — the query
// language's "ERROR 2% AT CONFIDENCE 95% WITHIN 500ms" clauses (BlinkDB-
// style). Instead of watching an open-ended snapshot stream and deciding
// when to stop, the caller states the guarantee it needs and receives ONE
// answer carrying the guarantee's verdict (see EstimateContract).
type Contract struct {
	// RelError is the target relative CI half-width (0.02 = "within 2% of
	// the truth at the confidence level"); 0 means no accuracy target
	// (deadline-only contract).
	RelError float64
	// Confidence is the level backing the error target; 0 means 0.95.
	Confidence float64
	// Deadline bounds the query's wall-clock execution time; 0 means no
	// deadline (error-only contract). At least one of RelError and
	// Deadline must be set.
	Deadline time.Duration
}

// withDefaults fills the confidence default (fallback, then 0.95).
func (c Contract) withDefaults(fallback float64) Contract {
	if c.Confidence == 0 {
		c.Confidence = fallback
	}
	if c.Confidence == 0 {
		c.Confidence = 0.95
	}
	return c
}

// String renders the contract in the query language's clause form.
func (c Contract) String() string {
	var parts []string
	if c.RelError > 0 {
		conf := c.Confidence
		if conf == 0 {
			conf = 0.95
		}
		parts = append(parts, fmt.Sprintf("ERROR %g%% AT CONFIDENCE %g%%", c.RelError*100, conf*100))
	}
	if c.Deadline > 0 {
		parts = append(parts, fmt.Sprintf("WITHIN %v", c.Deadline))
	}
	if len(parts) == 0 {
		return "unconstrained"
	}
	return strings.Join(parts, " ")
}

// Scale relaxes the contract for per-query QoS degradation under overload
// (the server's alternative to shedding contract queries with 429s): a
// factor above 1 widens the error target and shrinks the deadline
// proportionally, so every admitted query still gets an answer with an
// honest — just weaker — guarantee. Factors at or below 1 return the
// contract unchanged.
func (c Contract) Scale(factor float64) Contract {
	if factor <= 1 || math.IsNaN(factor) || math.IsInf(factor, 0) {
		return c
	}
	if c.RelError > 0 {
		c.RelError *= factor
	}
	if c.Deadline > 0 {
		d := time.Duration(float64(c.Deadline) / factor)
		if d < contractMinDeadline {
			d = contractMinDeadline
		}
		c.Deadline = d
	}
	return c
}

// ContractStatus is the guarantee verdict of a contract query.
type ContractStatus int

// Contract verdicts. Met means both bounds held (the error target was
// reached — or the answer is exact — within the deadline). Degraded means
// the query answered on time but had to relax accuracy: the deadline (or
// a sample cap / shard loss) stopped it before the error target, and the
// answer carries its achieved, wider CI instead. Missed means the
// contract's latency bound was broken or no usable estimate exists at all
// (fewer than two samples, or the query was cancelled early).
const (
	ContractMet ContractStatus = iota
	ContractDegraded
	ContractMissed
)

// String implements fmt.Stringer.
func (s ContractStatus) String() string {
	switch s {
	case ContractMet:
		return "met"
	case ContractDegraded:
		return "degraded"
	case ContractMissed:
		return "missed"
	default:
		return fmt.Sprintf("ContractStatus(%d)", int(s))
	}
}

// ContractPlan is the contract planner's pre-execution prediction: the
// sample budget, throughput and convergence-time estimates behind the
// chosen stopping rule. It is the EXPLAIN output of a contract query
// (ExplainContract). Predictions steer the plan only — execution always
// runs to the contract's own stopping rule, so a mispredicted rate or CV
// costs prediction quality, never correctness.
type ContractPlan struct {
	// Target is the contract being planned.
	Target Contract
	// Qualifying is the predicted qualifying population |P ∩ q ∩ σ|, from
	// the range count and the PR 7 predicate selectivity estimate.
	Qualifying int
	// CV is the coefficient-of-variation estimate used for the sample-
	// budget prediction: the dataset's profiled EWMA for the attribute, or
	// the cold prior.
	CV float64
	// RateSPMS is the predicted sampling throughput in samples per
	// millisecond (profiled EWMA, or the cold prior).
	RateSPMS float64
	// Samples is the predicted sample count needed to reach the error
	// target: k = ceil((z·cv/ε)²), capped by the qualifying population
	// (without-replacement exhaustion makes the answer exact). 0 for
	// deadline-only contracts.
	Samples int
	// Budget is the sample count affordable within the deadline at the
	// predicted rate; 0 when the contract has no deadline.
	Budget int
	// PredictedMS is the predicted time to reach the error target, the
	// larger of the rate extrapolation and the per-dataset time-to-CI
	// telemetry's milestone scaling. 0 for deadline-only contracts.
	PredictedMS float64
	// PredictedRelError is the relative error the planner expects to
	// deliver: the target when Feasible, else the error affordable within
	// the deadline's sample budget.
	PredictedRelError float64
	// Feasible is the planner's prediction that the error target fits the
	// deadline (always true without one of the two bounds).
	Feasible bool
	// Cold marks a plan made without per-dataset telemetry — the first
	// query on a fresh dataset falls back to conservative priors.
	Cold bool
	// Exact predicts an exact answer: COUNT, or a sample need that covers
	// the whole qualifying population without replacement.
	Exact bool
	// ReportEvery is the chosen stopping-rule check interval (samples
	// between target checks): roughly 16 checks on the way to the
	// predicted budget, clamped to the engine's batch bounds.
	ReportEvery int
	// counted is the range count the plan sized its budget against;
	// ExecuteContract hands it to the driver so the region is not walked
	// again.
	counted regionCount
}

// ContractResult is the single answer of a contract query: the final
// snapshot plus the contract's verdict and what was achieved.
type ContractResult struct {
	// Snapshot is the final (Done) snapshot of the run — the one answer a
	// contract query returns instead of a stream.
	Snapshot
	// Status is the guarantee verdict.
	Status ContractStatus
	// Contract is the effective contract the query ran under (confidence
	// defaults applied).
	Contract Contract
	// AchievedRelError is the final relative CI half-width — the CI the
	// answer actually carries (0 when exact, +Inf when the estimate is
	// zero with a nonzero half-width).
	AchievedRelError float64
	// Plan is the planner's pre-execution prediction, for comparison
	// against what the run achieved.
	Plan ContractPlan
}

// String renders the answer with its guarantee, e.g.
// "AVG ≈ 1430.2 ± 12.3 (95% confidence, 2176 samples) — contract met
// (error 0.9% ≤ 2%, 212ms ≤ 500ms)".
func (r ContractResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — contract %s (", r.Estimate, r.Status)
	c := r.Contract
	sep := ""
	if c.RelError > 0 {
		cmp := "≤"
		if !(r.AchievedRelError <= c.RelError*contractSlack) {
			cmp = ">"
		}
		if math.IsInf(r.AchievedRelError, 1) {
			fmt.Fprintf(&b, "error unbounded, target %.3g%%", c.RelError*100)
		} else {
			fmt.Fprintf(&b, "error %.3g%% %s %.3g%%", r.AchievedRelError*100, cmp, c.RelError*100)
		}
		sep = ", "
	}
	if c.Deadline > 0 {
		cmp := "≤"
		if r.Elapsed > c.Deadline {
			cmp = ">"
		}
		fmt.Fprintf(&b, "%s%v %s %v", sep, r.Elapsed.Round(100*time.Microsecond), cmp, c.Deadline)
	}
	b.WriteString(")")
	return b.String()
}

// Contract planning priors and tolerances. The cold priors are used only
// until the dataset's first queries feed its profile; they affect the
// plan's predictions (Feasible, PredictedMS), never the stopping rule, so
// a wrong prior cannot break a guarantee.
const (
	// contractColdCV is the coefficient-of-variation prior for an
	// unprofiled attribute (a unit-CV population: stddev equal to the
	// mean).
	contractColdCV = 1.0
	// contractColdRateSPMS is the sampling-throughput prior (samples per
	// millisecond) for an unprofiled dataset.
	contractColdRateSPMS = 50.0
	// contractMinDeadline floors QoS-scaled deadlines so an overloaded
	// server still gives every contract query a usable slice.
	contractMinDeadline = 5 * time.Millisecond
	// contractGraceDiv and contractGraceMin define the latency grace
	// (deadline/div + min) an answer may overshoot the deadline by before
	// the contract counts as missed rather than degraded: the evaluator
	// checks the clock between batches, so one in-flight fetch can land
	// past the line.
	contractGraceDiv = 4
	contractGraceMin = 25 * time.Millisecond
	// contractSlack absorbs float rounding when comparing the achieved
	// relative error against the target.
	contractSlack = 1 + 1e-9
	// profileAlpha is the EWMA weight of the newest observation in the
	// per-dataset contract profile.
	profileAlpha = 0.3
)

// contractProfile is a dataset's BlinkDB-style response profile: EWMAs of
// sampling throughput and per-attribute coefficient of variation, fed by
// every completed estimate on the handle. The contract planner reads it to
// predict sample budgets and convergence times; a fresh dataset (zero
// observations) plans from cold priors instead.
type contractProfile struct {
	mu sync.Mutex
	// queries counts profile observations (completed estimates with at
	// least two samples).
	queries int
	// rateSPMS is the EWMA sampling throughput in samples per millisecond.
	rateSPMS float64
	// cv maps attribute name to its EWMA coefficient of variation,
	// reconstructed from each query's final CI (cv ≈ relErr·√k/z). The
	// without-replacement FPC makes this an underestimate at large
	// sampling fractions — acceptable for planning, where the stopping
	// rule, not the prediction, enforces the guarantee.
	cv map[string]float64
}

// observe folds one completed estimate into the profile. drawn is how many
// of its samples the sampler drew: the rate is a drawing rate, which an
// exact finish's folded rest would overstate.
func (p *contractProfile) observe(attr string, confidence float64, e estimator.Estimate, drawn int, elapsed time.Duration) {
	if drawn < 2 {
		return
	}
	ms := float64(elapsed) / float64(time.Millisecond)
	if ms <= 0 {
		return
	}
	rate := float64(drawn) / ms
	cv := 0.0
	if !e.Exact && e.Value != 0 && !math.IsInf(e.HalfWidth, 0) {
		if z := stats.ZScore(confidence); z > 0 {
			cv = (e.HalfWidth / math.Abs(e.Value)) * math.Sqrt(float64(e.Samples)) / z
		}
	}
	if math.IsNaN(cv) || math.IsInf(cv, 0) {
		cv = 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.queries++
	p.rateSPMS = ewma(p.rateSPMS, rate)
	if cv > 0 {
		if p.cv == nil {
			p.cv = make(map[string]float64)
		}
		p.cv[attr] = ewma(p.cv[attr], cv)
	}
}

// snapshot returns the profiled rate, the attribute's CV (0 when the
// attribute has never been profiled) and the observation count.
func (p *contractProfile) snapshot(attr string) (rateSPMS, cv float64, queries int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rateSPMS, p.cv[attr], p.queries
}

// ewma blends a new observation into an exponentially weighted moving
// average; the first observation seeds it directly.
func ewma(old, obs float64) float64 {
	if old == 0 {
		return obs
	}
	return old*(1-profileAlpha) + obs*profileAlpha
}

// validateContract rejects contracts the engine cannot honor.
func validateContract(opts Options, c Contract) error {
	if c.RelError < 0 {
		return fmt.Errorf("engine: contract error target %v is negative", c.RelError)
	}
	if c.Deadline < 0 {
		return fmt.Errorf("engine: contract deadline %v is negative", c.Deadline)
	}
	if c.RelError == 0 && c.Deadline == 0 {
		return fmt.Errorf("engine: empty contract: set an error target, a deadline, or both")
	}
	if c.Confidence != 0 && (c.Confidence <= 0 || c.Confidence >= 1) {
		return fmt.Errorf("engine: contract confidence %v outside (0, 1)", c.Confidence)
	}
	if c.RelError > 0 {
		switch opts.Kind {
		case estimator.Min, estimator.Max, estimator.Median, estimator.Quant:
			return fmt.Errorf("engine: ERROR contracts require a CLT estimator (AVG/SUM/COUNT/VARIANCE/STDDEV), got %v; use a deadline-only contract", opts.Kind)
		}
	}
	return nil
}

// planContract builds the plan for a contract query. Caller holds h.mu
// (read side suffices) and has applied the contract's defaults.
func (h *Handle) planContract(q geo.Rect, opts Options, c Contract) (ContractPlan, error) {
	res, err := h.resolve(q, opts)
	if err != nil {
		return ContractPlan{}, err
	}
	// A LAST window narrows the population the contract must cover:
	// budgets, feasibility and exhaustion all size against the windowed
	// count, so a contract over a fresh 5-minute window is planned for
	// thousands of records, not the dataset's millions.
	matching := res.matching()
	qual := matching
	switch {
	case res.emptyPred:
		qual = 0
	case res.plan != nil && res.plan.compiled != nil:
		// PR 7 selectivity estimate: predicted qualifying fraction of the
		// range matches, from the dataset-level attribute envelope. The
		// execution path computes the exact count; the planner only needs
		// a budget-sizing prediction.
		qual = int(math.Round(float64(matching) * res.plan.est))
	}
	cp := ContractPlan{Target: c, Qualifying: qual, ReportEvery: minPullBatch, Feasible: true, counted: res.counted}
	if opts.Kind == estimator.Count || qual == 0 {
		// Exact (or empty) immediately: range counting answers COUNT
		// without sampling.
		cp.Exact = true
		return cp, nil
	}

	rate, cv, profiled := h.prof.snapshot(opts.Attr)
	cp.Cold = profiled == 0 || cv == 0
	if cv == 0 {
		cv = contractColdCV
	}
	if rate == 0 {
		rate = contractColdRateSPMS
	}
	cp.CV, cp.RateSPMS = cv, rate

	if c.RelError > 0 {
		z := stats.ZScore(c.Confidence)
		need := z * cv / c.RelError
		k := int(math.Ceil(need * need))
		if k < minPullBatch {
			k = minPullBatch
		}
		if k >= qual {
			// Without-replacement exhaustion: cheaper to drain the
			// qualifying population exactly.
			k = qual
			cp.Exact = true
		}
		cp.Samples = k
		cp.PredictedMS = float64(k) / rate
		if ms, ok := h.ttciPredict(c.RelError); ok {
			// Cross-check against the per-dataset time-to-CI telemetry
			// (storm.dataset.<name>.ttci.*): take the conservative of the
			// two predictors.
			if ms > cp.PredictedMS {
				cp.PredictedMS = ms
			}
			cp.Cold = false
		}
		cp.PredictedRelError = c.RelError
	}

	if c.Deadline > 0 {
		budgetMS := float64(c.Deadline) / float64(time.Millisecond)
		cp.Budget = int(rate * budgetMS)
		// Exhaustion plans (Exact by draining the qualifying population)
		// are graded too: predicting the drain itself blows the deadline
		// makes the contract just as infeasible as an undersized budget.
		if c.RelError > 0 && cp.Samples > 0 {
			cp.Feasible = cp.PredictedMS <= budgetMS
			if !cp.Feasible && cp.Budget > 1 {
				z := stats.ZScore(c.Confidence)
				cp.PredictedRelError = z * cv / math.Sqrt(float64(cp.Budget))
			}
		}
	}

	// Check the stopping rule often enough to stop near the target but
	// not so often that target checks dominate a long run: ~16 checks
	// before the predicted need, within the engine's batch bounds.
	checkAt := cp.Samples / 16
	if c.RelError == 0 && cp.Budget > 0 {
		checkAt = cp.Budget / 16
	}
	if checkAt < minPullBatch {
		checkAt = minPullBatch
	}
	if checkAt > maxPullBatch {
		checkAt = maxPullBatch
	}
	cp.ReportEvery = checkAt
	return cp, nil
}

// ttciPredict predicts the time to reach relative error eps from the
// handle's per-dataset time-to-CI milestone histograms: the best-populated
// milestone's mean crossing time, scaled by (relₘ/ε)² (sample need — and
// with it time — grows quadratically as the target tightens). Reports
// ok = false when no milestone has data yet (fresh dataset, or metrics
// disabled).
func (h *Handle) ttciPredict(eps float64) (ms float64, ok bool) {
	if eps <= 0 {
		return 0, false
	}
	best := -1
	var bestCount uint64
	for i, m := range h.dsTTCI {
		if c := m.hist.Snapshot().Count; c > bestCount {
			best, bestCount = i, c
		}
	}
	if best < 0 {
		return 0, false
	}
	m := h.dsTTCI[best]
	scale := (m.rel / eps) * (m.rel / eps)
	return m.hist.Snapshot().Mean() * scale, true
}

// ExplainContract returns the contract planner's prediction for a query
// without executing it — the contract-aware EXPLAIN. The plan reports the
// predicted sample budget, throughput, convergence time and feasibility
// verdict; Cold plans came from priors because the dataset has no
// telemetry yet.
func (h *Handle) ExplainContract(q geo.Range, opts Options, c Contract) (ContractPlan, error) {
	opts = opts.withDefaults()
	c = c.withDefaults(opts.Confidence)
	if err := validateContract(opts, c); err != nil {
		return ContractPlan{}, err
	}
	if !q.Valid() {
		return ContractPlan{}, fmt.Errorf("engine: invalid query range %+v", q)
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.planContract(q.Rect(), opts, c)
}

// EstimateContract executes an online aggregation query under an
// accuracy/latency contract and returns ONE final answer with its
// guarantee verdict, instead of EstimateOnline's open-ended snapshot
// stream. The planner predicts the sample budget and picks the
// stopping-rule check interval from the dataset's profile and time-to-CI
// telemetry (cold datasets fall back to priors); execution installs the
// contract's error target and deadline as the stopping rule and — for
// distributed datasets — pushes the deadline down to the shard fetch
// boundary, so a slow shard cannot run the query past its budget.
//
// The contract's fields override the corresponding Options fields
// (Confidence, TargetRelError, TimeBudget). Options.MaxSamples is honored
// as an additional cap. The result's counters land in
// storm.engine.contracts.{met,degraded,missed}, and a contract that ran
// on a cold plan counts once under storm.engine.contracts.cold_plans.
func (h *Handle) EstimateContract(ctx context.Context, q geo.Range, opts Options, c Contract) (ContractResult, error) {
	plan, err := h.ExplainContract(q, opts, c)
	if err != nil {
		return ContractResult{}, err
	}
	return h.ExecuteContract(ctx, q, opts, plan)
}

// ExecuteContract runs a contract query that ExplainContract has already
// planned for the same range and options — EstimateContract's second half,
// for a caller that looks at the plan before deciding to run (the server
// refuses provably infeasible contracts). The contract is plan.Target. The
// plan's range count rides along and is reused unless an update reached the
// index in between, in which case the region is counted afresh: the answer's
// population is always that of the index the query ran on.
func (h *Handle) ExecuteContract(ctx context.Context, q geo.Range, opts Options, plan ContractPlan) (ContractResult, error) {
	c := plan.Target
	if err := validateContract(opts.withDefaults(), c); err != nil {
		return ContractResult{}, err
	}
	opts.Confidence = c.Confidence
	opts.TargetRelError = c.RelError
	opts.TimeBudget = c.Deadline
	if opts.ReportEvery == 0 {
		opts.ReportEvery = plan.ReportEvery
	}
	opts.counted = plan.counted
	ch, err := h.EstimateOnline(ctx, q, opts)
	if err != nil {
		return ContractResult{}, err
	}
	if plan.Cold {
		// Counted here, once per contract that runs, not per planning
		// call: EXPLAIN plans too.
		h.eng.met.contractColdPlans.Inc()
	}
	var last Snapshot
	for s := range ch {
		last = s
	}
	res := ContractResult{
		Snapshot:         last,
		Contract:         c,
		Plan:             plan,
		AchievedRelError: last.RelativeErrorBound(),
	}
	res.Status = contractVerdict(last, c, ctx)
	switch res.Status {
	case ContractMet:
		h.eng.met.contractsMet.Inc()
	case ContractDegraded:
		h.eng.met.contractsDegraded.Inc()
	case ContractMissed:
		h.eng.met.contractsMissed.Inc()
	}
	return res, nil
}

// contractVerdict grades the final snapshot against the contract.
func contractVerdict(s Snapshot, c Contract, ctx context.Context) ContractStatus {
	if !s.Exact && s.Samples < 2 {
		// No usable estimate: the CI is unbounded.
		return ContractMissed
	}
	if c.Deadline > 0 {
		grace := c.Deadline/contractGraceDiv + contractGraceMin
		if s.Elapsed > c.Deadline+grace {
			// The latency bound itself was broken (a stuck fetch, not the
			// accuracy/latency trade the Degraded verdict describes).
			return ContractMissed
		}
	}
	if s.Exact {
		return ContractMet
	}
	if ctx.Err() != nil && (c.Deadline == 0 || s.Elapsed < c.Deadline) {
		// Cancelled before the contract ran its course.
		return ContractMissed
	}
	if c.RelError == 0 {
		// Deadline-only contract: an on-time answer meets it.
		return ContractMet
	}
	if s.RelativeErrorBound() <= c.RelError*contractSlack {
		return ContractMet
	}
	return ContractDegraded
}

package engine

import (
	"fmt"
	"math"
	"time"

	"storm/internal/estimator"
	"storm/internal/geo"
	"storm/internal/pred"
	"storm/internal/rtree"
	"storm/internal/sampling"
	"storm/internal/stats"
)

// PushdownStrategy overrides the planner's pushdown-vs-rejection choice
// for WHERE predicates (Options.Pushdown).
type PushdownStrategy int

// Predicate execution strategies.
const (
	// PushdownAuto lets the planner pick by estimated selectivity:
	// low-selectivity predicates prune subtrees through node attribute
	// summaries, broad predicates use the rejection baseline (whose
	// per-draw cost is lower and which loses almost nothing to
	// rejection when most draws qualify).
	PushdownAuto PushdownStrategy = iota
	// PushdownForce always prunes through node attribute summaries.
	PushdownForce
	// PushdownOff always uses the rejection baseline: draw from the
	// plain range stream and discard non-qualifying samples. Distributed
	// queries ignore it — shards always filter locally (see planWhere).
	PushdownOff
)

// String implements fmt.Stringer.
func (s PushdownStrategy) String() string {
	switch s {
	case PushdownAuto:
		return "auto"
	case PushdownForce:
		return "pushdown"
	case PushdownOff:
		return "rejection"
	default:
		return fmt.Sprintf("PushdownStrategy(%d)", int(s))
	}
}

// rejectionThreshold is the estimated-selectivity cutoff of PushdownAuto:
// predicates expected to keep at least this fraction of range matches run
// as rejection (cheap per draw, few wasted draws), anything rarer prunes
// through node summaries. Pushdown's per-descent overhead is a handful of
// digest comparisons, so even near the threshold it never loses by more
// than that constant; at 1% selectivity it wins by the ~100× rejection
// waste (see EXPERIMENTS.md A10).
const rejectionThreshold = 0.5

// wherePlan is the planner's resolution of a query's WHERE predicate: the
// normalized terms (shipped to shards over the wire), the compiled
// record-level matcher, the selectivity estimate behind the strategy
// choice, and the choice itself. A nil *wherePlan means "no predicate" at
// every use site.
type wherePlan struct {
	terms    []pred.Term
	compiled *pred.Compiled
	// est is the estimated fraction of range matches that satisfy the
	// predicate, from the dataset-level attribute envelope.
	est float64
	// pushdown selects node-summary pruning over the rejection baseline.
	pushdown bool
}

// usePushdown reports whether the plan wants node pruning (nil-safe).
func (p *wherePlan) usePushdown() bool { return p != nil && p.pushdown }

// reject wraps s in the rejection baseline when the plan carries a
// predicate, and returns s unchanged when there is none (nil plan).
func (p *wherePlan) reject(s sampling.Sampler) sampling.Sampler {
	if p == nil {
		return s
	}
	return sampling.NewFiltered(s, p.compiled)
}

// treeFilter builds a fresh pruning filter over sums. Per call because a
// TreeFilter's Pruned counter is per-query state.
func (p *wherePlan) treeFilter(sums *rtree.Summaries) *rtree.TreeFilter {
	return rtree.NewTreeFilter(p.compiled, sums)
}

// planWhere resolves a query's WHERE terms into an executable plan.
// Caller holds h.mu (read side suffices).
//
// It returns a nil plan when there is no effective predicate: none given,
// vacuous after normalization, or the root digests prove every record
// qualifies — dropping the predicate is then strictly cheapest, which is
// how pushdown never loses to rejection on all-pass predicates. It
// returns empty=true when the root digests prove no record can qualify.
func (h *Handle) planWhere(where []pred.Term, strategy PushdownStrategy) (plan *wherePlan, empty bool, err error) {
	if len(where) == 0 {
		return nil, false, nil
	}
	p := pred.Normalize(where)
	if p.Empty() {
		return nil, false, nil
	}
	c, err := p.Compile(h.ds)
	if err != nil {
		return nil, false, fmt.Errorf("engine: %w", err)
	}
	if root := h.rs.Tree().Root(); root != nil {
		switch rtree.NewTreeFilter(c, h.sums).Verdict(root) {
		case pred.None:
			return nil, true, nil
		case pred.All:
			return nil, false, nil
		}
	}
	pl := &wherePlan{terms: p.Terms, compiled: c, est: p.Selectivity(h.sums.RootStats)}
	switch {
	case strategy == PushdownForce:
		pl.pushdown = true
	case strategy == PushdownOff:
		pl.pushdown = false
	default:
		pl.pushdown = pl.est < rejectionThreshold
	}
	if h.cluster != nil {
		// Distributed predicates always push down: rejecting coordinator-
		// side would ship non-qualifying samples across the wire, and the
		// degraded-population accounting needs shard matching counts to be
		// qualifying counts.
		pl.pushdown = true
	}
	if pl.pushdown {
		h.eng.met.pushdownPlans.Inc()
	}
	return pl, false, nil
}

// regionCount is |P ∩ rect| as one canonical descent of the RS-tree counted
// it, with the handle and the version it was counted at. A contract's
// planner hands its count to the execution across a gap in which nobody
// holds the read lock; current says whether an update got in between.
type regionCount struct {
	h       *Handle
	version uint64
	rect    geo.Rect
	n       int
}

// current reports whether c counts rect on h as h stands now. Caller holds
// h.mu (read side suffices).
func (c regionCount) current(h *Handle, rect geo.Rect) bool {
	return c.h == h && c.version == h.version && c.rect == rect
}

// exactSum is the exact plan's descent of a region (rtree.Summaries.Moments)
// for one attribute and its verdict: at counts the qualifying records, m
// holds them with the moments of their values over the partial leaves (all
// of them when a cluster's shards summed), covered lists the subtrees whose
// values the answer has yet to read, and
// exact says whether the plan, priced against a sample need of need, was
// taken. It is carried from the contract planner to the execution like a
// range count.
type exactSum struct {
	at      regionCount
	attr    int
	m       rtree.Moments
	covered []*rtree.Node
	need    int
	exact   bool
}

// exactFinishRatio is how many records the exact plan may read per sample
// it saves drawing: an eligible request is answered exactly when its
// qualifying population is at most this multiple of its sample need. It is
// the cost of a drawn sample over that of a record the exact pass reads.
// BenchmarkExactPlan/local reads zoom-shaped regions at 16–25 ns per qualifying
// record, and BenchmarkBatchedSampling's fresh without-replacement stream
// draws its first 2000 samples at 1.1–1.4 µs each (2-core Xeon): 45–90,
// the regime of the short streams loose targets run. A long stream's later
// draws cost 150–200 ns, a ratio near 8, and a predicate's mask makes the
// pass dearer; 32 sits between the two regimes.
const exactFinishRatio = 32

// shardExactRatio is exactFinishRatio for a dataset served by its shard
// cluster: a delivered distributed sample's cost over that of a record the
// shards read in the count round. BenchmarkExactPlan/cluster=2x2 reads the
// zoom regions at 12–13 ns a record, round included. Over the same regions
// and cluster a fresh coordinator stream (Open, Fetch rounds at the
// driver's pull sizes, Close) delivered 354 samples, the need of a 0.5 %
// target at CV 0.05, at 2.5 µs each in-process and 3.4 µs over loopback
// TCP, and 2000 samples at 0.67 and 0.99 µs (2-core Xeon): 200–270 for
// short streams, 53–78 for long ones. 100 is their geometric middle, so
// neither regime pays more than about twice its cheaper plan.
const shardExactRatio = 100

// exactRecordCost prices the exact pass against a deadline: a request with
// a time budget takes the plan only if its qualifying records, at this cost
// each, fit the budget, since the pass does not stop at the deadline. It is
// about five times BenchmarkExactPlan's 20–21 ns per record, for a
// predicate's mask, a cold cache and a shared CPU.
const exactRecordCost = 100 * time.Nanosecond

// exactShape reports whether the exact plan may answer a single-aggregate
// estimate with opts: a mean-family aggregate under Method Auto or
// MethodDistributed (which names the copies that answer, not a sampler),
// drawn without replacement, without a SAMPLES cap, and with a relative
// error target or no target at all. Every other shape, and any other
// method, keeps its stream.
func exactShape(opts Options) bool {
	switch opts.Kind {
	case estimator.Avg, estimator.Sum, estimator.Variance, estimator.Stddev:
	default:
		return false
	}
	return (opts.Method == Auto || opts.Method == MethodDistributed) && opts.MaxSamples == 0 &&
		opts.Mode == sampling.WithoutReplacement && (opts.TargetRelError > 0 || opts.TargetHalfWidth == 0)
}

// sampleNeed is the sample need the exact plan is priced against: the
// contract planner's estimator.Need at the dataset profile's CV for the
// attribute (the cold prior until an answer has fed it), unbounded without
// a relative target.
func (h *Handle) sampleNeed(opts Options) int {
	if opts.TargetRelError <= 0 {
		return math.MaxInt
	}
	_, cv, _ := h.prof.snapshot(opts.Attr)
	if cv == 0 {
		cv = contractColdCV
	}
	return estimator.Need(opts.Kind, stats.ZScore(opts.Confidence), cv, opts.TargetRelError)
}

// resolution is what a request learns about its region before it draws or
// answers: the rectangle it really covers, the WHERE plan, the sampling
// method and — once something asks — the range count and the qualifying
// population. The driver, EXPLAIN and the contract planner all get it from
// resolve, so one request walks the region's Count descent once, plus one
// CountWhere descent when a compiled predicate sizes the population
// (TestOneDescentPerRequest).
type resolution struct {
	h *Handle
	// rect is the rectangle as given with its time axis narrowed to the
	// LAST window: what every index counts and samples, the shards' too.
	rect geo.Rect
	// win is the resolved LAST window (unset without one).
	win window
	// plan is the WHERE plan, nil without an effective predicate; emptyPred
	// reports that the root digests prove nothing can qualify.
	plan      *wherePlan
	emptyPred bool
	method    Method
	// counted is the range count of rect: carried in from the planner,
	// taken by matching, or zero while nothing has needed it.
	counted regionCount
	// summed is the exact plan's descent when the request is eligible for
	// it (see priceExact), nil otherwise; its exact field reports that the
	// plan was taken.
	summed *exactSum
}

// resolve is the one resolution step of a request: WHERE plan, LAST window
// against the watermark, then the method — Auto applies the optimizer's
// rules (see choose) to the narrowed rectangle, so it costs the region the
// query actually covers. Caller holds h.mu (read side suffices).
func (h *Handle) resolve(q geo.Rect, opts Options) (*resolution, error) {
	plan, emptyPred, err := h.planWhere(opts.Where, opts.Pushdown)
	if err != nil {
		return nil, err
	}
	win := h.window(opts.Last)
	q.Min[2], q.Max[2] = win.clamp(q.Min[2], q.Max[2])
	r := &resolution{h: h, rect: q, win: win,
		plan: plan, emptyPred: emptyPred, method: opts.Method, counted: opts.counted, summed: opts.summed}
	if opts.exact {
		r.priceExact(opts)
	}
	if r.method == Auto && (r.summed == nil || !r.summed.exact) {
		r.method = h.choose(r.matching)
	}
	return r, nil
}

// priceExact runs the exact plan's descent in place of the range count (or,
// with a predicate, of the qualifying count) and takes the plan when the
// qualifying population is at most exactFinishRatio times the sample need
// and, with a time budget, its pass fits the budget at exactRecordCost per
// record; the descent folds values only while that can still hold. A dataset
// served by its shard cluster runs the descent on the shards instead, in the
// count round (distr.Cluster.Moments), priced at shardExactRatio; the
// distributed method names those shards, so without a cluster it keeps its
// stream (and its error). An attribute without node summaries keeps
// sampling.
func (r *resolution) priceExact(opts Options) {
	h := r.h
	if r.emptyPred || (h.cluster == nil && opts.Method == MethodDistributed) {
		return
	}
	attr, ok := h.sums.AttrIndex(opts.Attr)
	if !ok {
		return
	}
	if s := r.summed; s != nil && s.attr == attr && s.at.current(h, r.rect) {
		return
	}
	need, ratio := h.sampleNeed(opts), exactFinishRatio
	if h.cluster != nil {
		ratio = shardExactRatio
	}
	limit := min(need, math.MaxInt/ratio) * ratio
	if opts.TimeBudget > 0 {
		limit = min(limit, int(opts.TimeBudget/exactRecordCost))
	}
	var (
		m       rtree.Moments
		covered []*rtree.Node
		summed  = true
		f       *rtree.TreeFilter
	)
	if h.cluster != nil {
		var terms []pred.Term
		if r.plan != nil {
			terms = r.plan.terms
		}
		m, summed = h.cluster.Moments(r.rect, terms, opts.Attr, limit)
	} else {
		if r.plan != nil {
			f = r.plan.treeFilter(h.sums)
		}
		m, covered = h.sums.Moments(r.rect, f, attr, limit, nil)
	}
	r.summed = &exactSum{at: regionCount{h: h, version: h.version, rect: r.rect, n: m.Records},
		attr: attr, m: m, covered: covered, need: need, exact: summed && m.Records <= limit}
	if f == nil && h.cluster == nil {
		r.counted = r.summed.at
	}
}

// matching returns |P ∩ rect|, descending for it at most once per request
// and not at all when the planner's count still describes the dataset.
func (r *resolution) matching() int {
	if h := r.h; !r.counted.current(h, r.rect) {
		r.counted = regionCount{h: h, version: h.version, rect: r.rect, n: h.rs.Count(r.rect)}
	}
	return r.counted.n
}

// population returns the exact qualifying population |P ∩ q ∩ σ| for the
// resolved method — the N the estimator scales SUM/COUNT by, applies the
// finite-population correction against, and declares exactness at. For
// distributed queries it is the cluster's count, which excludes shards
// that are already down: the honest effective N for the stream the
// coordinator can deliver.
func (r *resolution) population() int {
	h := r.h
	switch {
	case r.emptyPred:
		return 0
	case r.summed != nil:
		return r.summed.at.n
	case r.method == MethodDistributed && h.cluster != nil:
		if r.plan == nil {
			return h.cluster.Count(r.rect)
		}
		return h.cluster.CountWhere(r.rect, r.plan.terms)
	case r.plan == nil:
		return r.matching()
	default:
		return h.rs.Tree().CountWhere(r.rect, r.plan.treeFilter(h.sums))
	}
}

// ExplainWhere returns the optimizer's plan for a range and an optional
// WHERE predicate (nil terms behave exactly like Explain) without
// executing it.
func (h *Handle) ExplainWhere(q geo.Range, where []pred.Term, strategy PushdownStrategy) (Plan, error) {
	return h.explain(q, Options{Where: where, Pushdown: strategy})
}

// ExplainEstimate returns the plan of a single-aggregate estimate with opts
// without executing it: ExplainWhere's plan, plus whether the exact plan
// answers it, over how many records, and the sample need it was priced
// against. Options.Last applies as in EstimateOnline.
func (h *Handle) ExplainEstimate(q geo.Range, opts Options) (Plan, error) {
	opts = opts.withDefaults()
	opts.exact = exactShape(opts)
	return h.explain(q, opts)
}

func (h *Handle) explain(q geo.Range, opts Options) (Plan, error) {
	if !q.Valid() {
		return Plan{}, fmt.Errorf("engine: invalid query range %+v", q)
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	res, err := h.resolve(q.Rect(), opts)
	if err != nil {
		return Plan{}, err
	}
	where := opts.Where
	n := h.rs.Len()
	matching := res.matching()
	p := Plan{
		Dataset:          h.name,
		N:                n,
		Matching:         matching,
		Method:           res.method,
		CanonicalSize:    h.rs.Tree().CanonicalSize(res.rect),
		TreeHeight:       h.rs.Tree().Height(),
		Qualifying:       matching,
		WhereSelectivity: 1,
	}
	if n > 0 {
		p.Selectivity = float64(matching) / float64(n)
	}
	if len(where) > 0 {
		p.Where = pred.Normalize(where).String()
	}
	switch {
	case res.emptyPred:
		p.Qualifying, p.WhereSelectivity = 0, 0
	case res.plan != nil:
		p.WhereSelectivity = res.plan.est
		p.Pushdown = res.plan.pushdown
		p.Qualifying = res.population()
	}
	if res.summed != nil && res.summed.exact {
		// The sampler the optimizer would have taken, had it sampled.
		p.Method = h.choose(res.matching)
		p.Exact, p.SampleNeed = true, res.summed.need
	}
	return p, nil
}

package engine

import (
	"context"
	"fmt"
	"time"

	"storm/internal/data"
	"storm/internal/estimator"
	"storm/internal/geo"
	"storm/internal/pred"
	"storm/internal/rtree"
	"storm/internal/sampling"
)

// Options controls one online aggregation query.
type Options struct {
	// Kind is the aggregate to estimate.
	Kind estimator.Kind
	// Attr is the numeric attribute to aggregate (ignored for COUNT).
	Attr string
	// QuantileP is the quantile for Kind == Quant (Median fixes it to
	// 0.5); must be in (0, 1).
	QuantileP float64
	// Confidence level for intervals; 0 means 0.95.
	Confidence float64
	// TargetRelError stops the query once the CI half-width divided by
	// the estimate drops to this value (0 disables).
	TargetRelError float64
	// TargetHalfWidth stops the query once the CI half-width drops to
	// this absolute value (0 disables).
	TargetHalfWidth float64
	// TimeBudget stops the query after this duration, returning the best
	// estimate so far — the paper's "best-effort" mode (0 disables).
	TimeBudget time.Duration
	// MaxSamples stops after this many samples (0 disables).
	MaxSamples int
	// Mode selects with/without replacement; the default
	// (WithoutReplacement) converges to the exact answer.
	Mode sampling.Mode
	// Method picks the sampler; Auto consults the query optimizer.
	Method Method
	// Where restricts the aggregate to records whose numeric attributes
	// satisfy every term (the query language's WHERE comparisons, ANDed).
	// Samples stay exactly uniform over the qualifying records, and the
	// reported Population is the qualifying count. Nil means no predicate.
	Where []pred.Term
	// Pushdown overrides the planner's predicate strategy; the zero value
	// (PushdownAuto) picks pushdown or rejection by estimated selectivity.
	Pushdown PushdownStrategy
	// Last restricts the query to records whose event time (the t
	// coordinate, in seconds) lies in the trailing window of this duration
	// ending at the dataset's watermark — the `LAST <dur>` clause. The
	// window is resolved against the watermark once, when the query
	// starts; records streamed in later do not join a running query. 0
	// disables. Composes with Where: the population is the windowed
	// qualifying count.
	Last time.Duration
	// ReportEvery emits a snapshot every this many samples; 0 means 64.
	ReportEvery int
	// Seed overrides the query's sampling seed (0 derives one from the
	// engine seed sequence). Two queries with the same explicit seed,
	// range and options return identical sample streams whether they run
	// serially or concurrently: per-node sample buffers are deterministic
	// in the index state, never in other queries' history.
	Seed int64
	// counted and summed are the range count and the exact plan's descent
	// the contract planner already took for this query (ExecuteContract
	// sets them); the driver reuses them while they still describe the
	// index.
	counted regionCount
	summed  *exactSum
	// exact lets resolve price the exact plan (see exactShape); only the
	// single-aggregate estimate, its contract and its EXPLAIN set it.
	exact bool
}

func (o Options) withDefaults() Options {
	if o.Confidence == 0 {
		o.Confidence = 0.95
	}
	if o.ReportEvery == 0 {
		o.ReportEvery = 64
	}
	return o
}

// Snapshot is one progress report of an online query.
type Snapshot struct {
	estimator.Estimate
	Progress
	// LostMassLow and LostMassHigh, set only on degraded AVG/SUM
	// snapshots, are worst-case bounds on the aggregate over the full
	// pre-crash population: the surviving-population CI widened by the
	// lost shards' per-attribute min/max summaries (see
	// estimator.LostMassBounds and DESIGN.md §4.3). Whenever the CI
	// covers the surviving aggregate, [LostMassLow, LostMassHigh] covers
	// the full-population truth. Both zero when unavailable (healthy or
	// recovered query, non-AVG/SUM kind, or no summary for the
	// attribute).
	LostMassLow  float64
	LostMassHigh float64
}

// EstimateOnline executes an online aggregation query, streaming snapshots
// on the returned channel until the query terminates; the final snapshot
// has Done = true and the channel is then closed. Cancel ctx to stop early
// (the paper's interactive-exploration flow: fire the next query without
// waiting for this one).
func (h *Handle) EstimateOnline(ctx context.Context, q geo.Range, opts Options) (<-chan Snapshot, error) {
	opts = opts.withDefaults()
	spec := AggSpec{Kind: opts.Kind, Attr: opts.Attr, QuantileP: opts.QuantileP}
	if opts.Kind != estimator.Count {
		if err := h.checkSpec(spec); err != nil {
			return nil, err
		}
	}
	agg, err := newAggregate(spec, opts)
	if err != nil {
		return nil, err
	}
	opts.exact = exactShape(opts)
	return stream(ctx, h, q, opts, func(send func(Snapshot) bool) consumer {
		col, _ := h.ds.NumericColumn(opts.Attr)
		mean, clt := agg.(meanAgg)
		var moments func(rtree.Moments)
		if opts.exact {
			moments = func(m rtree.Moments) { mean.est.AddMoments(m.Records, m.Values) }
		}
		var need func() int
		if clt && (opts.TargetRelError > 0 || opts.TargetHalfWidth > 0) {
			need = func() int { return mean.need(opts) }
		}
		return consumer{
			attr:      opts.Attr,
			exact:     opts.Kind == estimator.Count,
			fold:      func(batch []data.Entry) { agg.fold(col, batch) },
			converged: func() bool { return agg.converged(opts) },
			moments:   moments,
			need:      need,
			report: func(r report) bool {
				s := Snapshot{Estimate: agg.estimate(r, opts.Mode), Progress: r.Progress}
				if r.stream.LostBounded {
					s.LostMassLow, s.LostMassHigh, _ = estimator.LostMassBounds(s.Estimate, r.stream.LostLo, r.stream.LostHi, r.stream.LostPopulation)
				}
				if r.Done && clt {
					// Feed the dataset's contract profile with this query's
					// outcome; the contract planner's rate/CV predictions
					// and the exact plan's pricing come from these EWMAs.
					h.prof.observe(opts.Attr, mean.est.Moments(), r.drawn, r.Elapsed)
				}
				r.ci(s.RelativeErrorBound())
				return send(s)
			},
		}
	})
}

// Estimate runs EstimateOnline to completion and returns the final
// estimate — the non-interactive convenience used by tests and examples.
func (h *Handle) Estimate(ctx context.Context, q geo.Range, opts Options) (Snapshot, error) {
	ch, err := h.EstimateOnline(ctx, q, opts)
	if err != nil {
		return Snapshot{}, err
	}
	var last Snapshot
	for s := range ch {
		last = s
	}
	return last, nil
}

// checkSpec validates one aggregate's attribute against the dataset.
func (h *Handle) checkSpec(spec AggSpec) error {
	if spec.Attr == "" {
		return fmt.Errorf("engine: %v requires an attribute", spec.Kind)
	}
	// Column metadata is mutated by Insert; read it under the lock.
	h.mu.RLock()
	ok := h.ds.HasNumeric(spec.Attr)
	h.mu.RUnlock()
	if !ok {
		return fmt.Errorf("engine: dataset %q has no numeric column %q", h.name, spec.Attr)
	}
	return nil
}

// GroupsSnapshot is one progress report of an online group-by query.
type GroupsSnapshot struct {
	Progress
	Groups []estimator.GroupEstimate
	// Samples is how many records the groups were estimated from, and
	// Population how many qualify for the query (range, WHERE and LAST).
	Samples, Population int
}

// GroupByOnline estimates a per-group aggregate (AVG only, the standard
// online group-by) keyed by a string column, streaming snapshots whose
// group means tighten as samples arrive. Groups appear as soon as a sample
// lands in them.
func (h *Handle) GroupByOnline(ctx context.Context, q geo.Range, attr, groupCol string, opts Options) (<-chan GroupsSnapshot, error) {
	opts = opts.withDefaults()
	if opts.Kind != estimator.Avg {
		return nil, fmt.Errorf("engine: GROUP BY supports AVG only (per-group population sizes are unknown)")
	}
	h.mu.RLock()
	_, errNum := h.ds.NumericColumn(attr)
	_, errStr := h.ds.StringColumn(groupCol)
	h.mu.RUnlock()
	if errNum != nil {
		return nil, errNum
	}
	if errStr != nil {
		return nil, errStr
	}
	gb := estimator.NewGroupBy(estimator.Avg, opts.Confidence)
	return stream(ctx, h, q, opts, func(send func(GroupsSnapshot) bool) consumer {
		col, _ := h.ds.NumericColumn(attr)
		keys, _ := h.ds.StringColumn(groupCol)
		return consumer{
			fold: func(batch []data.Entry) {
				for _, e := range batch {
					gb.Add(keys[e.ID], col[e.ID])
				}
			},
			report: func(r report) bool {
				return send(GroupsSnapshot{Progress: r.Progress, Groups: gb.Snapshot(), Samples: r.samples, Population: r.population})
			},
		}
	})
}

// Sample exposes raw online samples from a range: it returns up to k
// entries using the given method (the STORM library/API surface that
// customized analytics build on).
func (h *Handle) Sample(q geo.Range, k int, method Method, mode sampling.Mode, seed int64) ([]data.Entry, error) {
	if !q.Valid() {
		return nil, fmt.Errorf("engine: invalid query range %+v", q)
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	if seed == 0 {
		seed = h.eng.nextSeed()
	}
	res, err := h.resolve(q.Rect(), Options{Method: method})
	if err != nil {
		return nil, err
	}
	var population int
	if mode == sampling.WithReplacement {
		population = res.population()
	}
	sampler, _, err := h.newSampler(res.method, res.rect, mode, population, seed, res.plan)
	if err != nil {
		return nil, err
	}
	defer sampler.Close()
	qo := h.beginQuery(time.Now())
	defer qo.end()
	out := make([]data.Entry, k)
	got := sampler.NextBatch(out, k)
	qo.batch(sampler, got)
	return out[:got], nil
}

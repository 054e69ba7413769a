package engine

import (
	"context"
	"fmt"
	"math"

	"storm/internal/data"
	"storm/internal/estimator"
	"storm/internal/geo"
	"storm/internal/sampling"
)

// AggSpec names one aggregate of a multi-aggregate query.
type AggSpec struct {
	Kind estimator.Kind
	Attr string
	// QuantileP applies to Kind == Quant.
	QuantileP float64
}

// MultiSnapshot is one progress report of a multi-aggregate query: all
// estimates are computed from the same sample stream, so they are mutually
// consistent (the paper's introduction reports "973 kWh with a standard
// deviation of 25 kWh" — one sample, two statistics).
type MultiSnapshot struct {
	Progress
	Estimates []estimator.Estimate
	Samples   int
}

// aggregate adapts the two estimator families — CLT mean-family and
// order-statistic quantiles — behind one interface, shared by the single
// and joint estimate shapes.
type aggregate interface {
	// fold adds col's values at a run of sampled entries.
	fold(col []float64, batch []data.Entry)
	// estimate renders the current estimate against the report's
	// effective population.
	estimate(r report, mode sampling.Mode) estimator.Estimate
	// converged reports whether the query's accuracy target is met.
	converged(opts Options) bool
}

// newAggregate builds the estimator behind one aggregate. Populations are
// installed per report (see aggregate.estimate), so none is needed here.
func newAggregate(spec AggSpec, opts Options) (aggregate, error) {
	switch spec.Kind {
	case estimator.Median, estimator.Quant:
		p := spec.QuantileP
		if spec.Kind == estimator.Median {
			p = 0.5
		}
		qe, err := estimator.NewQuantile(p, opts.Confidence)
		if err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
		return quantAgg{kind: spec.Kind, qe: qe}, nil
	default:
		est, err := estimator.New(spec.Kind, opts.Confidence, 0, opts.Mode == sampling.WithoutReplacement)
		if err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
		return meanAgg{est: est}, nil
	}
}

type meanAgg struct{ est *estimator.Estimator }

func (a meanAgg) fold(col []float64, batch []data.Entry) {
	for _, e := range batch {
		a.est.Add(col[e.ID])
	}
}

func (a meanAgg) estimate(r report, _ sampling.Mode) estimator.Estimate {
	a.est.SetPopulation(r.population)
	return a.est.Snapshot()
}

func (a meanAgg) converged(opts Options) bool {
	snap := a.est.Snapshot()
	return snap.Exact ||
		(opts.TargetHalfWidth > 0 && snap.HalfWidth <= opts.TargetHalfWidth) ||
		(opts.TargetRelError > 0 && snap.RelativeErrorBound() <= opts.TargetRelError)
}

// need predicts how many samples in all the estimate needs to meet opts'
// target, from its last reported interval (math.MaxInt without a target or
// an interval). The half-width narrows as √(1/k − 1/q), q the population
// of a without-replacement stream (1/q = 0 with replacement), so k samples
// at r times the target need k' with 1/k' − 1/q = (1/k − 1/q)/r².
func (a meanAgg) need(opts Options) int {
	snap := a.est.Snapshot()
	var r float64
	switch {
	case snap.Exact:
		return snap.Samples
	case opts.TargetRelError > 0:
		r = snap.RelativeErrorBound() / opts.TargetRelError
	case opts.TargetHalfWidth > 0:
		r = snap.HalfWidth / opts.TargetHalfWidth
	}
	k := float64(snap.Samples)
	if !(r > 0 && r < math.Inf(1)) || k < 2 {
		return math.MaxInt
	}
	var invQ float64
	if opts.Mode == sampling.WithoutReplacement && snap.Population > 0 {
		invQ = 1 / float64(snap.Population)
	}
	need := 1 / ((1/k-invQ)/(r*r) + invQ)
	if !(need < math.MaxInt/2) {
		return math.MaxInt
	}
	return int(math.Ceil(need))
}

// quantAgg serves MEDIAN/QUANTILE through the quantile estimator, which
// keeps its sample and reports distribution-free order-statistic bounds;
// the Estimate's HalfWidth is the wider side of those bounds.
type quantAgg struct {
	kind estimator.Kind
	qe   *estimator.Quantile
}

func (a quantAgg) fold(col []float64, batch []data.Entry) {
	for _, e := range batch {
		a.qe.Add(col[e.ID])
	}
}

func (a quantAgg) estimate(r report, mode sampling.Mode) estimator.Estimate {
	snap := a.qe.Snapshot()
	out := estimator.Estimate{Kind: a.kind, Confidence: snap.Confidence, Samples: snap.Samples, Population: r.population}
	if snap.Samples == 0 {
		// No order statistic yet (empty population, or stopped before the
		// first batch): an unbounded interval, not a NaN value.
		if r.population > 0 {
			out.HalfWidth = math.Inf(1)
		}
		return out
	}
	out.Value = snap.Value
	out.HalfWidth = math.Max(snap.Hi-snap.Value, snap.Value-snap.Lo)
	// Exhaustion tracks what the stream can still deliver: shard loss
	// shrinks r.population the same way it re-targets the mean family.
	if mode == sampling.WithoutReplacement && r.samples >= r.population {
		out.HalfWidth, out.Exact = 0, true
	}
	return out
}

func (a quantAgg) converged(opts Options) bool {
	snap := a.qe.Snapshot()
	return opts.TargetHalfWidth > 0 && snap.Hi-snap.Lo <= 2*opts.TargetHalfWidth
}

// EstimateMultiOnline runs several aggregates over one shared sample
// stream, streaming joint snapshots. All specs must reference numeric
// columns; COUNT is excluded (it is exact and free — use Count).
func (h *Handle) EstimateMultiOnline(ctx context.Context, q geo.Range, specs []AggSpec, opts Options) (<-chan MultiSnapshot, error) {
	opts = opts.withDefaults()
	if len(specs) == 0 {
		return nil, fmt.Errorf("engine: no aggregates requested")
	}
	aggs := make([]aggregate, len(specs))
	for i, spec := range specs {
		if spec.Kind == estimator.Count {
			return nil, fmt.Errorf("engine: COUNT is exact; use Handle.Count")
		}
		if err := h.checkSpec(spec); err != nil {
			return nil, err
		}
		var err error
		if aggs[i], err = newAggregate(spec, opts); err != nil {
			return nil, err
		}
	}
	return stream(ctx, h, q, opts, func(send func(MultiSnapshot) bool) consumer {
		cols := make([][]float64, len(specs))
		for i, spec := range specs {
			cols[i], _ = h.ds.NumericColumn(spec.Attr)
		}
		return consumer{
			fold: func(batch []data.Entry) {
				for i, a := range aggs {
					a.fold(cols[i], batch)
				}
			},
			report: func(r report) bool {
				snap := MultiSnapshot{Progress: r.Progress, Estimates: make([]estimator.Estimate, len(aggs)), Samples: r.samples}
				for i, a := range aggs {
					snap.Estimates[i] = a.estimate(r, opts.Mode)
				}
				return send(snap)
			},
		}
	})
}

// EstimateMulti runs EstimateMultiOnline to completion and returns the
// final joint snapshot.
func (h *Handle) EstimateMulti(ctx context.Context, q geo.Range, specs []AggSpec, opts Options) (MultiSnapshot, error) {
	ch, err := h.EstimateMultiOnline(ctx, q, specs, opts)
	if err != nil {
		return MultiSnapshot{}, err
	}
	var last MultiSnapshot
	for s := range ch {
		last = s
	}
	return last, nil
}

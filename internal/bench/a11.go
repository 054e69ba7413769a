package bench

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"storm/internal/data"
	"storm/internal/engine"
	"storm/internal/estimator"
	"storm/internal/geo"
	"storm/internal/stats"
)

// A11Config sizes the accuracy/latency-contract ablation: the same seeded
// AVG query runs under ERROR/WITHIN contracts across a sweep of error
// targets and deadlines, against the uncapped snapshot-stream baseline.
type A11Config struct {
	N          int             // dataset size
	Runs       int             // seeded runs per configuration
	ErrTargets []float64       // relative-error targets (fractions)
	Deadlines  []time.Duration // contract deadlines; 0 = error-only
	Seed       int64
}

func (c A11Config) withDefaults() A11Config {
	if c.N == 0 {
		c.N = 200_000
	}
	if c.Runs == 0 {
		c.Runs = 20
	}
	if len(c.ErrTargets) == 0 {
		c.ErrTargets = []float64{0.05, 0.01, 0.002}
	}
	if len(c.Deadlines) == 0 {
		c.Deadlines = []time.Duration{0, 5 * time.Millisecond, 100 * time.Millisecond}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// A11Point is one (error target, deadline, mode) measurement over Runs
// seeded queries.
type A11Point struct {
	// Mode is "contract" (one-shot EstimateContract answer) or "stream"
	// (the uncapped EstimateOnline baseline at the same error target).
	Mode string
	// ErrTarget is the relative-error target; DeadlineMS the contract
	// deadline (0 = none; streams never have one).
	ErrTarget  float64
	DeadlineMS float64
	Runs       int
	// Met/Degraded/Missed count the contract verdicts (contract mode
	// only; the stream baseline always runs to its target).
	Met, Degraded, Missed int
	// P50MS/P95MS are the per-query wall-clock latency percentiles.
	P50MS, P95MS float64
	// MeanSamples and MeanAchieved average the final sample counts and
	// achieved relative errors.
	MeanSamples  float64
	MeanAchieved float64
	// MeanSnapshots is the average number of answers delivered per query:
	// 1 for contracts, the emitted snapshot count for streams.
	MeanSnapshots float64
}

// A11Result is the ablation's output table.
type A11Result struct {
	Points []A11Point
	// ColdPlans counts contracts that ran on a plan priced from priors —
	// after the warmup queries this should stay at the warmup's own count.
	ColdPlans uint64
}

// a11Data builds the ablation dataset: uniform positions with a value
// attribute ~ N(100, 20), the same shape the engine's contract tests and
// the synthetic OSM generator use (CV ≈ 0.2).
func a11Data(n int, seed int64) *data.Dataset {
	ds := data.NewDataset("a11")
	ds.AddNumericColumn("value")
	rng := stats.NewRNG(seed)
	for i := 0; i < n; i++ {
		pos := geo.Vec{rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 100}
		id := ds.AppendFast(pos)
		ds.SetNumeric("value", id, 100+rng.NormFloat64()*20)
	}
	return ds
}

// percentile returns the p-quantile (0..1) of xs by nearest-rank.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// A11 measures what query contracts buy and cost: for each error target ×
// deadline the seeded AVG query runs under an ERROR/WITHIN contract (one
// answer, graded verdict, planner-chosen stopping rule) and the table
// reports the met/degraded/missed split with the latency distribution.
// The uncapped snapshot-stream baseline runs the same error targets with
// no deadline — the pre-contract way to reach an accuracy, paying an
// open-ended latency and a stream of intermediate snapshots for it.
func A11(cfg A11Config) (A11Result, error) {
	cfg = cfg.withDefaults()
	ds := a11Data(cfg.N, cfg.Seed)
	all := geo.Range{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100, MinT: 0, MaxT: 100}

	eng := engine.New(engine.Config{Seed: cfg.Seed, BufferPoolPages: 4096, Obs: Obs})
	h, err := eng.Register(ds, engine.IndexOptions{})
	if err != nil {
		return A11Result{}, err
	}

	// Warm the dataset's response profile (throughput and CV telemetry):
	// production contract planning is steady-state planning, and the cold
	// first-query fallback is covered by the engine's unit tests.
	for s := int64(1); s <= 3; s++ {
		if _, err := h.Estimate(context.Background(), all, engine.Options{
			Kind: estimator.Avg, Attr: "value", MaxSamples: 2000, Seed: s,
		}); err != nil {
			return A11Result{}, err
		}
	}

	var res A11Result
	for _, target := range cfg.ErrTargets {
		for _, deadline := range cfg.Deadlines {
			p := A11Point{
				Mode: "contract", ErrTarget: target, Runs: cfg.Runs,
				DeadlineMS: float64(deadline) / float64(time.Millisecond),
			}
			var lats []float64
			for i := 0; i < cfg.Runs; i++ {
				r, err := h.EstimateContract(context.Background(), all, engine.Options{
					Kind: estimator.Avg, Attr: "value", Seed: cfg.Seed + int64(i),
				}, engine.Contract{RelError: target, Confidence: 0.95, Deadline: deadline})
				if err != nil {
					return A11Result{}, err
				}
				switch r.Status {
				case engine.ContractMet:
					p.Met++
				case engine.ContractDegraded:
					p.Degraded++
				case engine.ContractMissed:
					p.Missed++
				}
				lats = append(lats, float64(r.Elapsed)/float64(time.Millisecond))
				p.MeanSamples += float64(r.Samples)
				if !math.IsInf(r.AchievedRelError, 0) {
					p.MeanAchieved += r.AchievedRelError
				}
			}
			p.P50MS, p.P95MS = percentile(lats, 0.50), percentile(lats, 0.95)
			p.MeanSamples /= float64(cfg.Runs)
			p.MeanAchieved /= float64(cfg.Runs)
			p.MeanSnapshots = 1
			res.Points = append(res.Points, p)
		}

		// Uncapped stream baseline: same accuracy, no deadline, snapshot
		// stream drained to its final answer.
		p := A11Point{Mode: "stream", ErrTarget: target, Runs: cfg.Runs}
		var lats []float64
		for i := 0; i < cfg.Runs; i++ {
			ch, err := h.EstimateOnline(context.Background(), all, engine.Options{
				Kind: estimator.Avg, Attr: "value",
				TargetRelError: target, Confidence: 0.95, Seed: cfg.Seed + int64(i),
			})
			if err != nil {
				return A11Result{}, err
			}
			snaps := 0
			var last engine.Snapshot
			for s := range ch {
				last = s
				snaps++
			}
			lats = append(lats, float64(last.Elapsed)/float64(time.Millisecond))
			p.MeanSamples += float64(last.Samples)
			if rel := last.RelativeErrorBound(); !math.IsInf(rel, 0) {
				p.MeanAchieved += rel
			}
			p.MeanSnapshots += float64(snaps)
		}
		p.Met = cfg.Runs // the uncapped stream always runs to its target
		p.P50MS, p.P95MS = percentile(lats, 0.50), percentile(lats, 0.95)
		p.MeanSamples /= float64(cfg.Runs)
		p.MeanAchieved /= float64(cfg.Runs)
		p.MeanSnapshots /= float64(cfg.Runs)
		res.Points = append(res.Points, p)
	}

	if Obs != nil {
		res.ColdPlans = Obs.Counter("storm.engine.contracts.cold_plans").Value()
	}
	return res, nil
}

// DeadlineLabel renders the point's deadline for the table ("-" when
// none).
func (p A11Point) DeadlineLabel() string {
	if p.DeadlineMS == 0 {
		return "-"
	}
	return fmt.Sprintf("%gms", p.DeadlineMS)
}

package query

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"storm/internal/data"
	"storm/internal/engine"
	"storm/internal/geo"
	"storm/internal/viz"
)

// Execute parses and runs one STORM statement against the engine, writing
// online progress and the final result to w. It blocks until the query
// terminates (target met, budget spent, sample exhausted, or ctx
// cancelled).
func Execute(ctx context.Context, eng *engine.Engine, statement string, w io.Writer) error {
	q, err := Parse(statement)
	if err != nil {
		return err
	}
	return Run(ctx, eng, q, w)
}

// Options is the statement's one binding onto engine options, used by
// every sampled shape and every front end: the engine's driver applies
// WHERE, LAST, the budget and the method the same way to single and joint
// estimates, GROUP BY, the analytics and contracts (whose ContractSpec
// overrides the confidence, error target and budget set here).
func (q *Query) Options() engine.Options {
	return engine.Options{
		Kind:           q.Agg,
		Attr:           q.Attr,
		QuantileP:      q.QuantileP,
		Confidence:     q.Confidence,
		TargetRelError: q.RelError,
		TimeBudget:     q.Within,
		MaxSamples:     q.Samples,
		Method:         q.Method,
		Where:          q.Where,
		Last:           q.Last,
	}
}

// ExplainOptions are the options EXPLAIN plans the statement with: its
// Options for a single-aggregate estimate, only its WHERE terms for an
// aggregate list or GROUP BY, which the exact plan never answers. Its range
// is narrowed to the LAST window by the caller.
func (q *Query) ExplainOptions() engine.Options {
	if q.GroupBy != "" || len(q.MultiAggs) > 1 {
		return engine.Options{Where: q.Where}
	}
	o := q.Options()
	o.Last = 0
	return o
}

// ContractSpec is the statement's ERROR … AT CONFIDENCE … [WITHIN …] clause
// as an engine contract; meaningful when q.Contract is set.
func (q *Query) ContractSpec() engine.Contract {
	return engine.Contract{RelError: q.RelError, Confidence: q.Confidence, Deadline: q.Within}
}

// Run executes a parsed query.
func Run(ctx context.Context, eng *engine.Engine, q *Query, w io.Writer) error {
	if q.Op == OpShow {
		names := eng.Datasets()
		sort.Strings(names)
		for _, n := range names {
			h, err := eng.Dataset(n)
			if err != nil {
				continue
			}
			num, str := h.Columns()
			fmt.Fprintf(w, "%s\t%d records\tnumeric: %s\tstring: %s\n",
				n, h.Len(), strings.Join(num, ","), strings.Join(str, ","))
		}
		return nil
	}

	if q.Op == OpDrop {
		if err := eng.Unregister(q.Dataset); err != nil {
			return err
		}
		fmt.Fprintf(w, "dropped dataset %s\n", q.Dataset)
		return nil
	}

	h, err := eng.Dataset(q.Dataset)
	if err != nil {
		return err
	}
	r := q.Range()

	opts := q.Options()
	// capped bounds an unbounded statement at n samples: shapes that render
	// once would otherwise run to exhaustion.
	capped := func(n int) engine.Options {
		o := opts
		if o.MaxSamples == 0 && o.TimeBudget == 0 {
			o.MaxSamples = n
		}
		return o
	}

	switch q.Op {
	case OpInsert:
		// One batch: the statement lands under one write lock, so a
		// concurrent query sees all of its rows or none.
		rows := make([]data.Row, len(q.Rows))
		for i, row := range q.Rows {
			rows[i] = data.Row{Pos: geo.Vec{row[0], row[1], row[2]}}
		}
		h.InsertBatch(rows)
		fmt.Fprintf(w, "inserted %d record(s) into %s\n", len(q.Rows), q.Dataset)
		return nil

	case OpDelete:
		n, err := h.DeleteRange(r)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "deleted %d record(s) from %s\n", n, q.Dataset)
		return nil

	case OpEstimate:
		if q.Explain {
			er := r
			if q.Last > 0 {
				// EXPLAIN plans a range without running it, so the window
				// narrows the range here. One that misses the queried time
				// span entirely (empty dataset, or it slid past the TIME
				// clause) is empty by construction, and would not pass the
				// engine's Range.Valid check.
				if er = h.WindowRange(r, q.Last); !er.Valid() {
					fmt.Fprintf(w, "empty result: LAST %s window covers no records in the queried range\n", q.Last)
					return nil
				}
			}
			plan, err := h.ExplainEstimate(er, q.ExplainOptions())
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "dataset:        %s (%d records)\n", plan.Dataset, plan.N)
			fmt.Fprintf(w, "matching:       %d (selectivity %.3f%%)\n", plan.Matching, plan.Selectivity*100)
			fmt.Fprintf(w, "canonical size: %d parts (tree height %d)\n", plan.CanonicalSize, plan.TreeHeight)
			fmt.Fprintf(w, "sampler:        %s\n", plan.Method)
			if plan.Exact {
				need := "unbounded (no error target)"
				if plan.SampleNeed < math.MaxInt {
					need = fmt.Sprint(plan.SampleNeed)
				}
				fmt.Fprintf(w, "method:         exact (one pass over %d records, priced against a sample need of %s)\n", plan.Qualifying, need)
			}
			if plan.Where != "" {
				strategy := "rejection"
				if plan.Pushdown {
					strategy = "pushdown"
				}
				fmt.Fprintf(w, "predicate:      %s (est. selectivity %.3f%%, qualifying %d, strategy %s)\n",
					plan.Where, plan.WhereSelectivity*100, plan.Qualifying, strategy)
			}
			if q.Contract {
				cp, err := h.ExplainContract(r, opts, q.ContractSpec())
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "contract:       %s\n", cp.Target)
				feas := "feasible"
				if !cp.Feasible {
					feas = "infeasible"
				}
				profile := "warm profile"
				if cp.Cold {
					profile = "cold plan (priors)"
				}
				switch {
				case cp.Exact:
					fmt.Fprintf(w, "plan:           exact over %d qualifying records (%s)\n", cp.Qualifying, profile)
				default:
					fmt.Fprintf(w, "plan:           %d samples predicted (cv %.3g, %.3g samples/ms, ~%.1fms) — %s, %s\n",
						cp.Samples, cp.CV, cp.RateSPMS, cp.PredictedMS, feas, profile)
				}
				if !cp.Feasible {
					fmt.Fprintf(w, "prediction:     ~%.3g%% relative error within the deadline's ~%d-sample budget\n",
						cp.PredictedRelError*100, cp.Budget)
				}
				fmt.Fprintf(w, "stopping rule:  check target every %d samples\n", cp.ReportEvery)
			}
			return nil
		}
		if q.Contract {
			if q.GroupBy != "" || len(q.MultiAggs) > 1 {
				return fmt.Errorf("query: contracts apply to single-aggregate estimates (no GROUP BY or aggregate lists)")
			}
			res, err := h.EstimateContract(ctx, r, opts, q.ContractSpec())
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%s  t=%s sampler=%s\n", res, res.Elapsed.Round(100_000), res.Method)
			return nil
		}
		if len(q.MultiAggs) > 1 {
			ch, err := h.EstimateMultiOnline(ctx, r, q.MultiAggs, capped(2000))
			if err != nil {
				return err
			}
			last, err := final(ctx, ch, nil)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "joint estimates over %d samples (sampler %s):\n", last.Samples, last.Method)
			for _, est := range last.Estimates {
				fmt.Fprintf(w, "  %s\n", est)
			}
			return nil
		}
		if q.GroupBy != "" {
			ch, err := h.GroupByOnline(ctx, r, q.Attr, q.GroupBy, capped(2000))
			if err != nil {
				return err
			}
			last, err := final(ctx, ch, nil)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%d groups over %d samples:\n", len(last.Groups), last.Samples)
			for _, g := range last.Groups {
				fmt.Fprintf(w, "  %-20s %s\n", g.Key, g.Estimate)
			}
			return nil
		}
		ch, err := h.EstimateOnline(ctx, r, opts)
		if err != nil {
			return err
		}
		for s := range ch {
			marker := ""
			if s.Done {
				marker = " [final]"
			}
			fmt.Fprintf(w, "%s  t=%s sampler=%s%s\n", s.Estimate, s.Elapsed.Round(100_000), s.Method, marker)
		}
		return nil

	case OpKDE, OpHotspots:
		ch, err := h.KDEOnline(ctx, r, engine.KDEOptions{Nx: q.GridX, Ny: q.GridY}, capped(2000))
		if err != nil {
			return err
		}
		last, err := final(ctx, ch, func(s engine.KDESnapshot) {
			if q.Op == OpKDE && s.Err() == nil {
				fmt.Fprintf(w, "kde: %d samples, t=%s\n", s.Map.Samples, s.Elapsed.Round(100_000))
			}
		})
		if err != nil {
			return err
		}
		if q.Op == OpKDE {
			fmt.Fprintln(w, viz.Heatmap(last.Map, 0))
			return nil
		}
		spots := last.Map.Hotspots(q.K)
		fmt.Fprintf(w, "top %d density hotspots over %d samples:\n", len(spots), last.Map.Samples)
		for i, sp := range spots {
			sep := ""
			if sp.Separated {
				sep = "  [separated]"
			}
			fmt.Fprintf(w, "  #%d (%.4f, %.4f) density %.4g ± %.2g%s\n",
				i+1, sp.X, sp.Y, sp.Density, sp.HalfWidth, sep)
		}
		return nil

	case OpTerms:
		topN := q.TopN
		if topN == 0 {
			topN = 10
		}
		ch, err := h.TermsOnline(ctx, r, q.Attr, topN, capped(1000))
		if err != nil {
			return err
		}
		last, err := final(ctx, ch, nil)
		if err != nil {
			return err
		}
		fmt.Fprint(w, viz.TermTable(last.Terms))
		return nil

	case OpTrajectory:
		ch, err := h.TrajectoryOnline(ctx, r, q.UserCol, q.User, 0, capped(500))
		if err != nil {
			return err
		}
		last, err := final(ctx, ch, nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "trajectory of %s: %d sampled points, %d segment(s)\n",
			q.User, last.Path.Samples, len(last.Path.Segments))
		fmt.Fprintln(w, viz.TrajectoryPlot(last.Path, 60, 20))
		return nil

	case OpCluster:
		ch, err := h.ClusterOnline(ctx, r, q.K, capped(1000))
		if err != nil {
			return err
		}
		last, err := final(ctx, ch, nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "clusters over %d samples (inertia %.4g):\n",
			last.Clustering.Samples, last.Clustering.Inertia)
		for i, c := range last.Clustering.Clusters {
			fmt.Fprintf(w, "  #%d center=(%.4f, %.4f) size=%d\n", i, c.Center.X(), c.Center.Y(), c.Size)
		}
		return nil

	default:
		return fmt.Errorf("query: unsupported operation %d", q.Op)
	}
}

// final drains a render-once shape's snapshot stream, handing each report to
// each (when non-nil), and returns the last one. It fails with the set-up
// error that report carries (see engine.Progress.Err), or with ctx's error
// when the stream closed without delivering any: a query cancelled before
// its first report has no answer to render.
func final[T interface{ Err() error }](ctx context.Context, ch <-chan T, each func(T)) (last T, err error) {
	got := false
	for s := range ch {
		last, got = s, true
		if each != nil {
			each(s)
		}
	}
	if !got {
		// The driver always ends on a terminal report; only a cancelled ctx
		// keeps it from being delivered.
		if err := ctx.Err(); err != nil {
			return last, err
		}
		return last, errors.New("query: stream closed without a result")
	}
	return last, last.Err()
}

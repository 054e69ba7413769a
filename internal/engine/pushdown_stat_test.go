package engine

import (
	"context"
	"testing"

	"storm/internal/data"
	"storm/internal/estimator"
	"storm/internal/geo"
	"storm/internal/pred"
	"storm/internal/sampling"
	"storm/internal/stats/statcheck"
)

// pushdownSelectivities are the WHERE slabs the pushdown statistical
// suite sweeps: symmetric intervals around the mean of gen.Uniform's
// value ~ N(100, 20), sized so that ~50%, ~10% and ~1% of records
// qualify. Symmetric slabs keep the conditional value distribution
// symmetric, so the t-based CI coverage check is honest even at the
// small qualifying populations the 1% slab leaves.
var pushdownSelectivities = []struct {
	name   string
	lo, hi float64
}{
	{"sel50", 100 - 13.49, 100 + 13.49},
	{"sel10", 100 - 2.513, 100 + 2.513},
	{"sel1", 100 - 0.2507, 100 + 0.2507},
}

// qualifyingIDs scans the store for records inside rect whose value lies
// in [lo, hi] — the ground-truth qualifying set pushdown must sample
// uniformly from.
func qualifyingIDs(h *Handle, rect geo.Rect, lo, hi float64) ([]data.ID, float64) {
	col, _ := h.Data().NumericColumn("value")
	var ids []data.ID
	var sum float64
	for i := 0; i < h.Data().Len(); i++ {
		id := data.ID(i)
		if rect.Contains(h.Data().Pos(id)) && col[i] >= lo && col[i] <= hi {
			ids = append(ids, id)
			sum += col[i]
		}
	}
	if len(ids) == 0 {
		return nil, 0
	}
	return ids, sum / float64(len(ids))
}

// TestStatPushdownUniform is the predicate-pushdown statistical suite
// (run by `make test-stats`): at ~50%/10%/1% selectivity it checks, by
// chi-square at alpha 1e-3, that both the pruning samplers and the
// rejection baseline draw exactly uniformly over the qualifying records
// — never over-sampling records near pruned-subtree boundaries — and
// that the t-based confidence intervals of WHERE aggregates cover the
// true qualifying mean at their nominal rate under both strategies.
// Seeds are fixed; a failure is a regression, not noise (see the
// statcheck package doc for the false-positive budget).
func TestStatPushdownUniform(t *testing.T) {
	_, h := buildHandle(t, 6000, false)
	all := geo.Range{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100, MinT: 0, MaxT: 100}
	rect := all.Rect()

	samplerConfigs := []struct {
		name     string
		method   Method
		strategy PushdownStrategy
	}{
		{"rstree-pushdown", MethodRSTree, PushdownForce},
		{"rstree-rejection", MethodRSTree, PushdownOff},
		{"randompath-pushdown", MethodRandomPath, PushdownForce},
	}
	seeds := statcheck.Seeds(0xA10, len(pushdownSelectivities)*len(samplerConfigs))
	seedAt := 0

	for _, sel := range pushdownSelectivities {
		qual, truth := qualifyingIDs(h, rect, sel.lo, sel.hi)
		if len(qual) < 20 {
			t.Fatalf("%s: degenerate fixture, %d qualifying records", sel.name, len(qual))
		}
		idx := make(map[data.ID]int, len(qual))
		for j, id := range qual {
			idx[id] = j
		}
		terms := []pred.Term{{Attr: "value", Lo: sel.lo, Hi: sel.hi}}

		// Uniformity: with replacement (the adapter over each sampler's
		// stream), every qualifying record must be hit at the same rate,
		// and nothing outside the set may appear.
		for _, cfg := range samplerConfigs {
			seed := seeds[seedAt]
			seedAt++
			t.Run("uniform/"+sel.name+"/"+cfg.name, func(t *testing.T) {
				plan, empty, err := h.planWhere(terms, cfg.strategy)
				if err != nil || empty || plan == nil {
					t.Fatalf("planWhere = (%v, %v, %v)", plan, empty, err)
				}
				if want := cfg.strategy == PushdownForce; plan.pushdown != want {
					t.Fatalf("strategy %v resolved pushdown=%v", cfg.strategy, plan.pushdown)
				}
				s, _, err := h.newSampler(cfg.method, rect, sampling.WithReplacement, len(qual), seed, plan)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				draws := 8 * len(qual) // expected count 8 per category (chi-square wants >= 5)
				counts := make([]int, len(qual))
				buf := make([]data.Entry, 256)
				for got := 0; got < draws; {
					want := draws - got
					if want > len(buf) {
						want = len(buf)
					}
					n := s.NextBatch(buf, want)
					if n == 0 {
						t.Fatalf("sampler dried up at %d/%d draws", got, draws)
					}
					for _, e := range buf[:n] {
						j, ok := idx[e.ID]
						if !ok {
							t.Fatalf("sampled non-qualifying record %d", e.ID)
						}
						counts[j]++
					}
					got += n
				}
				statcheck.Uniform(t, sel.name+"/"+cfg.name, counts, statcheck.DefaultAlpha)
			})
		}

		// CI coverage: the 95% interval of AVG(value) WHERE value ∈ slab
		// must cover the true qualifying mean at its nominal rate whether
		// the qualifying stream comes from pruning or from rejection. The
		// 2% slack absorbs the t-approximation at the smallest run size.
		maxSamples := len(qual) / 2
		if maxSamples > 300 {
			maxSamples = 300
		}
		if maxSamples < 30 {
			maxSamples = 30
		}
		for _, strategy := range []PushdownStrategy{PushdownForce, PushdownOff} {
			strategy := strategy
			t.Run("coverage/"+sel.name+"/"+strategy.String(), func(t *testing.T) {
				var intervals []statcheck.Interval
				for _, seed := range statcheck.Seeds(0xC0F+int64(strategy), 120) {
					snap, err := h.Estimate(context.Background(), all, Options{
						Kind: estimator.Avg, Attr: "value",
						Where: terms, Pushdown: strategy,
						Method: MethodRSTree, MaxSamples: maxSamples, Seed: seed,
					})
					if err != nil {
						t.Fatal(err)
					}
					if !snap.Done {
						t.Fatalf("query did not finish: %+v", snap)
					}
					if snap.Population != len(qual) {
						t.Fatalf("population = %d, want qualifying count %d", snap.Population, len(qual))
					}
					intervals = append(intervals, statcheck.IntervalAround(snap.Value, snap.HalfWidth))
				}
				statcheck.Coverage(t, sel.name+"/"+strategy.String(), truth, intervals,
					0.95, 0.02, statcheck.DefaultAlpha)
			})
		}
	}
}

package engine

import (
	"context"
	"os"
	"testing"

	"storm/internal/estimator"
	"storm/internal/gen"
	"storm/internal/geo"
	"storm/internal/obs"
)

func TestQueryMetricsPopulated(t *testing.T) {
	e, h := buildHandle(t, 20_000, false)
	reg := e.Obs()
	if reg == nil {
		t.Fatal("metrics should be on by default")
	}

	snap, err := h.Estimate(context.Background(), testRange, Options{
		Kind: estimator.Avg, Attr: "value", Method: MethodRSTree, MaxSamples: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Done {
		t.Fatal("query did not finish")
	}

	if got := reg.Counter("storm.engine.queries.started").Value(); got != 1 {
		t.Errorf("queries.started = %d, want 1", got)
	}
	if got := reg.Counter("storm.engine.queries.done").Value(); got != 1 {
		t.Errorf("queries.done = %d, want 1", got)
	}
	if got := reg.Gauge("storm.engine.queries.active").Value(); got != 0 {
		t.Errorf("queries.active = %d, want 0 after completion", got)
	}
	if got := reg.Counter("storm.engine.samples.drawn").Value(); got < uint64(snap.Samples) {
		t.Errorf("samples.drawn = %d, want >= %d", got, snap.Samples)
	}
	if bs := reg.TuningHistogram("storm.engine.batch.size", 16, 8).Snapshot(); bs.Count == 0 {
		t.Error("batch.size histogram is empty")
	}
	if lat := reg.TuningHistogram("storm.engine.query.latency_ms", 0.1, 16).Snapshot(); lat.Count != 1 {
		t.Errorf("query.latency_ms count = %d, want 1", lat.Count)
	}
	if ci := reg.TuningHistogram("storm.engine.ci.relwidth", 1e-4, 16).Snapshot(); ci.Count == 0 {
		t.Error("ci.relwidth histogram is empty")
	}
	if _, ok := reg.Get("storm.dataset.uniform.records").(obs.Var); !ok {
		t.Error("per-dataset records gauge not published")
	}
	snapMap := reg.Snapshot()
	if v, ok := snapMap["storm.dataset.uniform.records"]; !ok || v.(int) != 20_000 {
		t.Errorf("dataset records = %v, want 20000", v)
	}
}

// TestQueryCountersPerShape: every query shape is one driver run, so each
// moves queries.started and queries.done by exactly 1 and leaves
// queries.active at 0 — MEDIAN included, which used to begin twice.
func TestQueryCountersPerShape(t *testing.T) {
	h, all := stationsHandle(t)
	reg := h.eng.Obs()
	ctx := context.Background()
	opts := Options{MaxSamples: 300}
	count := func(name string, start func() (int, error)) {
		t.Helper()
		started := reg.Counter("storm.engine.queries.started").Value()
		done := reg.Counter("storm.engine.queries.done").Value()
		if n, err := start(); err != nil || n == 0 {
			t.Fatalf("%s: %d snapshots, err %v", name, n, err)
		}
		if got := reg.Counter("storm.engine.queries.started").Value() - started; got != 1 {
			t.Errorf("%s: queries.started moved by %d, want 1", name, got)
		}
		if got := reg.Counter("storm.engine.queries.done").Value() - done; got != 1 {
			t.Errorf("%s: queries.done moved by %d, want 1", name, got)
		}
		if got := reg.Gauge("storm.engine.queries.active").Value(); got != 0 {
			t.Errorf("%s: queries.active = %d after completion, want 0", name, got)
		}
	}
	estimate := func(kind estimator.Kind) func() (int, error) {
		return func() (int, error) {
			o := opts
			o.Kind, o.Attr = kind, "temp"
			ch, err := h.EstimateOnline(ctx, all, o)
			return drainCount(ch), err
		}
	}
	count("AVG", estimate(estimator.Avg))
	count("MEDIAN", estimate(estimator.Median))
	count("COUNT", estimate(estimator.Count))
	count("multi", func() (int, error) {
		ch, err := h.EstimateMultiOnline(ctx, all, []AggSpec{{Kind: estimator.Avg, Attr: "temp"}, {Kind: estimator.Median, Attr: "temp"}}, opts)
		return drainCount(ch), err
	})
	count("GROUP BY", func() (int, error) {
		ch, err := h.GroupByOnline(ctx, all, "temp", "station", opts)
		return drainCount(ch), err
	})
	count("KDE", func() (int, error) {
		ch, err := h.KDEOnline(ctx, all, KDEOptions{Nx: 4, Ny: 4}, opts)
		return drainCount(ch), err
	})
	count("TERMS", func() (int, error) {
		ch, err := h.TermsOnline(ctx, all, "station", 5, opts)
		return drainCount(ch), err
	})
	count("TRAJECTORY", func() (int, error) {
		ch, err := h.TrajectoryOnline(ctx, all, "station", "st-00003", 0, opts)
		return drainCount(ch), err
	})
	count("CLUSTER", func() (int, error) {
		ch, err := h.ClusterOnline(ctx, all, 3, opts)
		return drainCount(ch), err
	})
}

// drainCount drains a snapshot stream and returns how many snapshots it
// carried (a nil channel, from a failed start, carries none).
func drainCount[T any](ch <-chan T) int {
	n := 0
	if ch != nil {
		for range ch {
			n++
		}
	}
	return n
}

// TestTTCIMilestones runs a without-replacement AVG to exhaustion: the
// final estimate is exact (relative CI width zero), so every
// time-to-CI-width milestone must have been stamped.
func TestTTCIMilestones(t *testing.T) {
	e, h := buildHandle(t, 5_000, false)
	if _, err := h.Estimate(context.Background(), testRange, Options{
		Kind: estimator.Avg, Attr: "value", Method: MethodRSTree,
	}); err != nil {
		t.Fatal(err)
	}
	for _, th := range ttciThresholds {
		hist := e.Obs().TuningHistogram("storm.engine."+th.short, 0.1, 16)
		if hist.Snapshot().Count == 0 {
			t.Errorf("milestone %s never stamped", th.short)
		}
	}
}

func TestNoMetrics(t *testing.T) {
	e := New(Config{Seed: 42, Fanout: 32, NoMetrics: true})
	if e.Obs() != nil {
		t.Fatal("NoMetrics engine should have a nil registry")
	}
	ds := gen.Uniform(2_000, 7, geo.Range{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100, MinT: 0, MaxT: 100})
	h, err := e.Register(ds, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := h.Estimate(context.Background(), testRange, Options{
		Kind: estimator.Avg, Attr: "value", MaxSamples: 500,
	})
	if err != nil || !snap.Done {
		t.Fatalf("query with metrics off failed: %v %+v", err, snap)
	}
	if err := e.Unregister("uniform"); err != nil {
		t.Fatal(err)
	}
}

func TestSharedRegistryAndUnregister(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(Config{Seed: 42, Fanout: 32, Obs: reg})
	if e.Obs() != reg {
		t.Fatal("engine should adopt the supplied registry")
	}
	ds := gen.Uniform(1_000, 7, geo.Range{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100, MinT: 0, MaxT: 100})
	if _, err := e.Register(ds, IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	if reg.Get("storm.dataset.uniform.records") == nil {
		t.Fatal("dataset metrics not published to shared registry")
	}
	if err := e.Unregister("uniform"); err != nil {
		t.Fatal(err)
	}
	if reg.Get("storm.dataset.uniform.records") != nil {
		t.Error("dataset metrics survived Unregister")
	}
	if reg.Get("storm.dataset.uniform.buffer_regens") != nil {
		t.Error("buffer_regens survived Unregister")
	}
}

// benchEstimate is the hot batched path BenchmarkObsOverhead measures: a
// fixed-size AVG over the RS-tree, identical except for Config.NoMetrics.
func benchEstimate(b *testing.B, noMetrics bool) {
	b.Helper()
	e := New(Config{Seed: 42, Fanout: 32, NoMetrics: noMetrics})
	ds := gen.Uniform(50_000, 7, geo.Range{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100, MinT: 0, MaxT: 100})
	h, err := e.Register(ds, IndexOptions{})
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{Kind: estimator.Avg, Attr: "value", Method: MethodRSTree, MaxSamples: 4096, Seed: 99}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Estimate(context.Background(), testRange, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObsOverhead compares the engine's hot batched query path with
// metrics on (the default) and off. The budget is <= 2% — enforced by
// TestObsOverheadBudget when STORM_OBS_OVERHEAD_CHECK=1.
func BenchmarkObsOverhead(b *testing.B) {
	b.Run("metrics-on", func(b *testing.B) { benchEstimate(b, false) })
	b.Run("metrics-off", func(b *testing.B) { benchEstimate(b, true) })
}

// TestObsOverheadBudget pins the instrumentation cost of the batched
// query path at <= 2%. Timing-sensitive, so it only runs when
// STORM_OBS_OVERHEAD_CHECK=1 (the CI benchmark smoke sets it); the
// comparison takes the min of several runs to shed scheduler noise.
func TestObsOverheadBudget(t *testing.T) {
	if os.Getenv("STORM_OBS_OVERHEAD_CHECK") != "1" {
		t.Skip("set STORM_OBS_OVERHEAD_CHECK=1 to run the overhead budget check")
	}
	minNs := func(noMetrics bool) float64 {
		best := 0.0
		for i := 0; i < 5; i++ {
			r := testing.Benchmark(func(b *testing.B) { benchEstimate(b, noMetrics) })
			ns := float64(r.NsPerOp())
			if best == 0 || ns < best {
				best = ns
			}
		}
		return best
	}
	off := minNs(true)
	on := minNs(false)
	overhead := on/off - 1
	t.Logf("metrics-off %.0f ns/op, metrics-on %.0f ns/op, overhead %.2f%%", off, on, overhead*100)
	if overhead > 0.02 {
		t.Errorf("instrumentation overhead %.2f%% exceeds the 2%% budget", overhead*100)
	}
}

// Command stormbench regenerates every table and figure of the STORM
// paper's evaluation (SIGMOD 2015) on synthetic data, printing the curves
// the paper plots. See EXPERIMENTS.md for the paper-vs-measured record.
//
// Usage:
//
//	stormbench -fig 3a [-n 2000000]   # Figure 3(a): sampling efficiency
//	stormbench -fig 3b                # Figure 3(b): online accuracy
//	stormbench -fig 5                 # Figure 5: online KDE convergence
//	stormbench -fig 6a                # Figure 6(a): trajectory quality
//	stormbench -fig 6b                # Figure 6(b): short-text recall
//	stormbench -fig a1|a2|a3|a4       # ablations (buffer pool, S(u) size,
//	                                  # updates, distributed scaling)
//	stormbench -fig a7                # fault ablation: kill k of 8 shards
//	                                  # mid-query, CI-width + latency impact
//	stormbench -fig a8                # recovery ablation: kill-then-recover
//	                                  # vs degraded-with-lost-mass-bounds
//	stormbench -fig a9                # transport ablation: loopback vs TCP
//	                                  # round latency + message/byte counts
//	stormbench -fig a10               # predicate pushdown ablation: pruning
//	                                  # vs rejection across selectivities
//	stormbench -fig a11               # contract ablation: ERROR/WITHIN
//	                                  # contracts vs the uncapped stream path
//	stormbench -fig a12               # streaming ingest ablation: sustained
//	                                  # insert rate vs concurrent LAST-window
//	                                  # query latency, buffer-shard sweep
//	stormbench -fig a13               # replication ablation: R=1 degradation
//	                                  # vs R=2 failover on a mid-query crash
//	stormbench -fig all               # everything
//
// -metrics attaches an observability registry (see internal/obs) to each
// figure run and prints the collected counters — per-method sampler draws,
// rejects, explosions, level scans, and physical I/O — after the figure's
// table, in the same storm.* naming scheme that stormd serves at /metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"storm/internal/bench"
	"storm/internal/obs"
	"storm/internal/viz"
)

// emitSeries enables plot-ready series output after each figure's table.
var emitSeries bool

// series prints one curve when -series is set.
func series(title string, xs, ys []float64) {
	if emitSeries {
		fmt.Print(viz.Series(title, xs, ys))
	}
}

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 3a, 3b, 5, 6a, 6b, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, all")
	n := flag.Int("n", 2_000_000, "dataset size for the Figure 3 experiments")
	seed := flag.Int64("seed", 1, "generator/sampling seed")
	flag.BoolVar(&emitSeries, "series", false, "additionally emit plot-ready x<TAB>y series per curve")
	metrics := flag.Bool("metrics", false, "collect and print storm.* observability counters per figure")
	flag.Parse()

	run := func(name string, fn func() error) {
		want := strings.ToLower(*fig)
		if want != "all" && want != name {
			return
		}
		if *metrics {
			// Fresh registry per figure so each dump covers one figure only.
			bench.Obs = obs.NewRegistry()
		}
		fmt.Printf("==== %s ====\n", strings.ToUpper(name))
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "stormbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		if *metrics {
			dumpMetrics(bench.Obs)
		}
		fmt.Println()
	}

	run("3a", func() error { return fig3a(*n, *seed) })
	run("3b", func() error { return fig3b(*n, *seed) })
	run("5", func() error { return fig5(*seed) })
	run("6a", func() error { return fig6a(*seed) })
	run("6b", func() error { return fig6b(*seed) })
	run("a1", func() error { return a1(*seed) })
	run("a2", func() error { return a2(*seed) })
	run("a3", func() error { return a3(*seed) })
	run("a4", func() error { return a4(*seed) })
	run("a5", func() error { return a5(*seed) })
	run("a6", func() error { return a6(*seed) })
	run("a7", func() error { return a7(*seed) })
	run("a8", func() error { return a8(*seed) })
	run("a9", func() error { return a9(*seed) })
	run("a10", func() error { return a10(*seed) })
	run("a11", func() error { return a11(*seed) })
	run("a12", func() error { return a12(*seed) })
	run("a13", func() error { return a13(*seed) })
}

// dumpMetrics prints every registry entry as "name<TAB>value", sorted by
// name, with composite values (histograms) rendered as compact JSON.
func dumpMetrics(reg *obs.Registry) {
	snap := reg.Snapshot()
	if len(snap) == 0 {
		return
	}
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Println("-- metrics --")
	for _, name := range names {
		b, err := json.Marshal(snap[name])
		if err != nil {
			b = []byte(fmt.Sprintf("%v", snap[name]))
		}
		fmt.Printf("%s\t%s\n", name, b)
	}
}

func a6(seed int64) error {
	fmt.Println("Ablation A6: R-tree packing (Hilbert vs STR vs one-by-one insertion)")
	pts, err := bench.A6(bench.A6Config{Seed: seed})
	if err != nil {
		return err
	}
	rows := [][]string{{"packing", "avg range reads", "avg canonical size"}}
	for _, p := range pts {
		rows = append(rows, []string{
			p.Packing,
			fmt.Sprintf("%.1f", p.AvgReads),
			fmt.Sprintf("%.1f", p.AvgCanonical),
		})
	}
	fmt.Print(viz.Table(rows))
	return nil
}

func a5(seed int64) error {
	fmt.Println("Ablation A5: index construction cost")
	pts, err := bench.A5(bench.A5Config{Seed: seed, Sizes: []int{100_000, 500_000, 2_000_000}})
	if err != nil {
		return err
	}
	rows := [][]string{{"index", "N", "build ms", "nodes", "size ratio"}}
	for _, p := range pts {
		rows = append(rows, []string{
			p.Index,
			fmt.Sprintf("%d", p.N),
			fmt.Sprintf("%.1f", p.BuildMS),
			fmt.Sprintf("%d", p.Nodes),
			fmt.Sprintf("%.2f", p.SizeRatio),
		})
	}
	fmt.Print(viz.Table(rows))
	return nil
}

func fig3a(n int, seed int64) error {
	fmt.Printf("Figure 3(a): time and I/O to draw k online samples (N=%d, q/N=5%%)\n", n)
	pts, err := bench.Fig3a(bench.Fig3aConfig{N: n, Seed: seed, IncludeSampleFirst: true})
	if err != nil {
		return err
	}
	rows := [][]string{{"method", "k/q", "k", "wall ms", "page reads", "cost units"}}
	for _, p := range pts {
		rows = append(rows, []string{
			p.Method,
			fmt.Sprintf("%.1f%%", p.KOverQ*100),
			fmt.Sprintf("%d", p.K),
			fmt.Sprintf("%.2f", p.WallMS),
			fmt.Sprintf("%d", p.Reads),
			fmt.Sprintf("%.0f", p.CostUnits),
		})
	}
	fmt.Print(viz.Table(rows))
	if emitSeries {
		curves := map[string][][2]float64{}
		order := []string{}
		for _, p := range pts {
			if _, ok := curves[p.Method]; !ok {
				order = append(order, p.Method)
			}
			curves[p.Method] = append(curves[p.Method], [2]float64{p.KOverQ, p.WallMS})
		}
		for _, m := range order {
			xs := make([]float64, len(curves[m]))
			ys := make([]float64, len(curves[m]))
			for i, pt := range curves[m] {
				xs[i], ys[i] = pt[0], pt[1]
			}
			series("fig3a "+m+" (k/q vs wall ms)", xs, ys)
		}
	}

	// Paper-style summary at the largest k: ordering of the curves.
	byMethod := map[string]bench.Fig3aPoint{}
	for _, p := range pts {
		byMethod[p.Method] = p // last point per method wins
	}
	fmt.Println()
	labels := []string{"LS-tree", "RS-tree", "RangeReport", "RandomPath", "SampleFirst"}
	vals := make([]float64, 0, len(labels))
	present := labels[:0]
	for _, l := range labels {
		if p, ok := byMethod[l]; ok {
			present = append(present, l)
			vals = append(vals, p.CostUnits)
		}
	}
	fmt.Print(viz.LogBars("simulated I/O cost at k/q = 10% (log scale)", present, vals, "units"))
	return nil
}

func fig3b(n int, seed int64) error {
	fmt.Printf("Figure 3(b): relative error of online avg(altitude) vs time (N=%d)\n", n)
	pts, err := bench.Fig3b(bench.Fig3bConfig{N: n, Seed: seed})
	if err != nil {
		return err
	}
	rows := [][]string{{"method", "samples", "time ms", "rel error"}}
	for _, p := range pts {
		rows = append(rows, []string{
			p.Method,
			fmt.Sprintf("%d", p.Samples),
			fmt.Sprintf("%.3f", p.TimeMS),
			fmt.Sprintf("%.4f%%", p.RelErr*100),
		})
	}
	fmt.Print(viz.Table(rows))
	if emitSeries {
		curves := map[string][][2]float64{}
		order := []string{}
		for _, p := range pts {
			if _, ok := curves[p.Method]; !ok {
				order = append(order, p.Method)
			}
			curves[p.Method] = append(curves[p.Method], [2]float64{p.TimeMS, p.RelErr})
		}
		for _, m := range order {
			xs := make([]float64, len(curves[m]))
			ys := make([]float64, len(curves[m]))
			for i, pt := range curves[m] {
				xs[i], ys[i] = pt[0], pt[1]
			}
			series("fig3b "+m+" (time ms vs rel error)", xs, ys)
		}
	}
	return nil
}

func fig5(seed int64) error {
	fmt.Println("Figure 5: online KDE convergence, SLC zoom-in vs USA zoom-out (1M tweets)")
	pts, err := bench.Fig5(bench.Fig5Config{Seed: seed})
	if err != nil {
		return err
	}
	rows := [][]string{{"region", "samples", "rel error vs exact KDE"}}
	for _, p := range pts {
		rows = append(rows, []string{p.Region, fmt.Sprintf("%d", p.Samples), fmt.Sprintf("%.4f", p.RelErr)})
	}
	fmt.Print(viz.Table(rows))
	return nil
}

func fig6a(seed int64) error {
	fmt.Println("Figure 6(a): online approximate trajectory error vs samples (200k tweets)")
	pts, user, err := bench.Fig6a(bench.Fig6aConfig{Seed: seed})
	if err != nil {
		return err
	}
	fmt.Printf("reconstructing user %s\n", user)
	rows := [][]string{{"samples", "avg path error (deg)"}}
	for _, p := range pts {
		rows = append(rows, []string{fmt.Sprintf("%d", p.Samples), fmt.Sprintf("%.5f", p.PathErr)})
	}
	fmt.Print(viz.Table(rows))
	return nil
}

func fig6b(seed int64) error {
	fmt.Println("Figure 6(b): online short-text understanding, Atlanta snowstorm window (400k tweets)")
	res, err := bench.Fig6b(bench.Fig6bConfig{Seed: seed})
	if err != nil {
		return err
	}
	rows := [][]string{{"samples", "top-10 recall", "sentiment"}}
	for _, p := range res.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Samples),
			fmt.Sprintf("%.2f", p.Recall),
			fmt.Sprintf("%+.3f", p.Sentiment),
		})
	}
	fmt.Print(viz.Table(rows))
	fmt.Printf("final vocabulary: %s\n", strings.Join(res.TopTerms, ", "))
	return nil
}

func a1(seed int64) error {
	fmt.Println("Ablation A1: buffer-pool sweep (RS-tree vs RandomPath, 500k points, k=2000)")
	pts, err := bench.A1(bench.A1Config{Seed: seed})
	if err != nil {
		return err
	}
	rows := [][]string{{"method", "pool frac", "page reads", "hit rate"}}
	for _, p := range pts {
		rows = append(rows, []string{
			p.Method,
			fmt.Sprintf("%.0f%%", p.PoolFrac*100),
			fmt.Sprintf("%d", p.Reads),
			fmt.Sprintf("%.2f", p.HitRate),
		})
	}
	fmt.Print(viz.Table(rows))
	return nil
}

func a2(seed int64) error {
	fmt.Println("Ablation A2: RS-tree sample-buffer size S(u) (500k points, k=2000)")
	pts, err := bench.A2(bench.A2Config{Seed: seed, Fanout: 16})
	if err != nil {
		return err
	}
	rows := [][]string{{"|S(u)|", "wall ms", "page reads", "explosions", "rejects"}}
	for _, p := range pts {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.BufSize),
			fmt.Sprintf("%.2f", p.WallMS),
			fmt.Sprintf("%d", p.Reads),
			fmt.Sprintf("%d", p.Explosions),
			fmt.Sprintf("%d", p.Rejects),
		})
	}
	fmt.Print(viz.Table(rows))
	return nil
}

func a3(seed int64) error {
	fmt.Println("Ablation A3: ad-hoc updates (200k base, 20k inserts, 10k deletes)")
	res, err := bench.A3(bench.A3Config{Seed: seed})
	if err != nil {
		return err
	}
	rows := [][]string{{"index", "inserts/s", "deletes/s", "fresh samples correct"}}
	for _, r := range res {
		rows = append(rows, []string{
			r.Index,
			fmt.Sprintf("%.0f", r.InsertsPerSecond),
			fmt.Sprintf("%.0f", r.DeletesPerSecond),
			fmt.Sprintf("%v", r.FreshSampled),
		})
	}
	fmt.Print(viz.Table(rows))
	return nil
}

func a4(seed int64) error {
	fmt.Println("Ablation A4: distributed sampling across 1-8 shards and pull sizes (500k points, k=5000)")
	pts, err := bench.A4(bench.A4Config{Seed: seed})
	if err != nil {
		return err
	}
	rows := [][]string{{"shards", "pull", "wall ms", "messages", "samples moved", "max shard share"}}
	for _, p := range pts {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Shards),
			fmt.Sprintf("%d", p.Pull),
			fmt.Sprintf("%.2f", p.WallMS),
			fmt.Sprintf("%d", p.Messages),
			fmt.Sprintf("%d", p.SamplesMoved),
			fmt.Sprintf("%.2f", p.MaxShardShare),
		})
	}
	fmt.Print(viz.Table(rows))
	return nil
}

func a7(seed int64) error {
	fmt.Println("Ablation A7: graceful degradation — kill k of 8 shards mid-query (500k points, k=5000 samples)")
	pts, err := bench.A7(bench.A7Config{Seed: seed})
	if err != nil {
		return err
	}
	rows := [][]string{{"killed", "eff pop", "healthy pop", "avg", "ci half-width", "rel width", "wall ms", "crashes", "retries"}}
	for _, p := range pts {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Killed),
			fmt.Sprintf("%d", p.Population),
			fmt.Sprintf("%d", p.HealthyPop),
			fmt.Sprintf("%.2f", p.Value),
			fmt.Sprintf("%.3f", p.HalfWidth),
			fmt.Sprintf("%.4f", p.RelWidth),
			fmt.Sprintf("%.2f", p.WallMS),
			fmt.Sprintf("%d", p.Crashes),
			fmt.Sprintf("%d", p.Retries),
		})
	}
	fmt.Print(viz.Table(rows))
	return nil
}

func a8(seed int64) error {
	fmt.Println("Ablation A8: kill-then-recover — hottest shard crashes mid-query; degraded (never returns,")
	fmt.Println("lost-mass bounds) vs recover (re-admitted mid-query) vs healthy baseline (500k points, k=5000)")
	pts, err := bench.A8(bench.A8Config{Seed: seed})
	if err != nil {
		return err
	}
	rows := [][]string{{"mode", "eff pop", "healthy pop", "avg", "ci half-width", "lost-mass low", "lost-mass high", "wall ms", "crashes", "readmits"}}
	for _, p := range pts {
		lostLow, lostHigh := "-", "-"
		if p.LostLow != 0 || p.LostHigh != 0 {
			lostLow = fmt.Sprintf("%.2f", p.LostLow)
			lostHigh = fmt.Sprintf("%.2f", p.LostHigh)
		}
		rows = append(rows, []string{
			p.Mode,
			fmt.Sprintf("%d", p.Population),
			fmt.Sprintf("%d", p.HealthyPop),
			fmt.Sprintf("%.2f", p.Value),
			fmt.Sprintf("%.3f", p.HalfWidth),
			lostLow,
			lostHigh,
			fmt.Sprintf("%.2f", p.WallMS),
			fmt.Sprintf("%d", p.Crashes),
			fmt.Sprintf("%d", p.Readmits),
		})
	}
	fmt.Print(viz.Table(rows))
	return nil
}
func a9(seed int64) error {
	fmt.Println("Ablation A9: transport — the identical seeded drain through the in-process loopback")
	fmt.Println("cluster vs real TCP shard hosts (8 shards on 4 hosts, 200k points, 20k samples);")
	fmt.Println("streams verified byte-identical, so the delta is pure transport overhead")
	pts, err := bench.A9(bench.A9Config{Seed: seed})
	if err != nil {
		return err
	}
	rows := [][]string{{"transport", "samples", "rounds", "wall ms", "round µs", "messages", "samples moved", "bytes sent", "bytes recv"}}
	for _, p := range pts {
		rows = append(rows, []string{
			p.Transport,
			fmt.Sprintf("%d", p.Samples),
			fmt.Sprintf("%d", p.Rounds),
			fmt.Sprintf("%.2f", p.WallMS),
			fmt.Sprintf("%.1f", p.RoundUS),
			fmt.Sprintf("%d", p.Messages),
			fmt.Sprintf("%d", p.SamplesMoved),
			fmt.Sprintf("%d", p.BytesSent),
			fmt.Sprintf("%d", p.BytesRecv),
		})
	}
	fmt.Print(viz.Table(rows))
	return nil
}

func a10(seed int64) error {
	fmt.Println("Ablation A10: predicate pushdown — the identical seeded AVG WHERE query with")
	fmt.Println("node-summary pruning vs the rejection baseline across predicate selectivities")
	fmt.Println("(200k points, spatially correlated attribute, 1k samples per query); the")
	fmt.Println("distributed pushdown stream is verified byte-identical loopback vs TCP")
	res, err := bench.A10(bench.A10Config{Seed: seed})
	if err != nil {
		return err
	}
	rows := [][]string{{"selectivity", "qualifying", "strategy", "samples", "draws", "rejects", "pruned", "logical IO", "wall ms"}}
	for _, p := range res.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%g%%", p.Selectivity*100),
			fmt.Sprintf("%d", p.Qualifying),
			p.Strategy,
			fmt.Sprintf("%d", p.Samples),
			fmt.Sprintf("%d", p.Draws),
			fmt.Sprintf("%d", p.Rejects),
			fmt.Sprintf("%d", p.Pruned),
			fmt.Sprintf("%d", p.LogicalIO),
			fmt.Sprintf("%.2f", p.WallMS),
		})
	}
	fmt.Print(viz.Table(rows))
	fmt.Printf("wire identity (pushdown over TCP vs loopback): %v\n", res.WireIdentical)
	return nil
}

func a11(seed int64) error {
	fmt.Println("Ablation A11: accuracy/latency contracts — the same seeded AVG query under")
	fmt.Println("ERROR ... AT CONFIDENCE ... WITHIN ... contracts across error targets and")
	fmt.Println("deadlines (200k points, warmed planner profile, 20 runs per cell), against")
	fmt.Println("the uncapped snapshot-stream baseline at the same error targets")
	res, err := bench.A11(bench.A11Config{Seed: seed})
	if err != nil {
		return err
	}
	rows := [][]string{{"mode", "error", "deadline", "met", "degraded", "missed", "p50 ms", "p95 ms", "samples", "achieved", "answers"}}
	for _, p := range res.Points {
		rows = append(rows, []string{
			p.Mode,
			fmt.Sprintf("%g%%", p.ErrTarget*100),
			p.DeadlineLabel(),
			fmt.Sprintf("%d/%d", p.Met, p.Runs),
			fmt.Sprintf("%d", p.Degraded),
			fmt.Sprintf("%d", p.Missed),
			fmt.Sprintf("%.2f", p.P50MS),
			fmt.Sprintf("%.2f", p.P95MS),
			fmt.Sprintf("%.0f", p.MeanSamples),
			fmt.Sprintf("%.3g%%", p.MeanAchieved*100),
			fmt.Sprintf("%.1f", p.MeanSnapshots),
		})
	}
	fmt.Print(viz.Table(rows))
	return nil
}

func a13(seed int64) error {
	fmt.Println("Ablation A13: replication — the query's hottest shard loses a copy mid-stream;")
	fmt.Println("r1-degraded (no second copy: shrunken population, lost-mass bounds) vs")
	fmt.Println("r2-failover (stream reopens on the surviving replica: full population, healthy")
	fmt.Println("CI width) vs the no-fault baseline (500k points, k=5000)")
	pts, err := bench.A13(bench.A13Config{Seed: seed})
	if err != nil {
		return err
	}
	rows := [][]string{{"mode", "R", "eff pop", "healthy pop", "avg", "ci half-width", "lost-mass low", "lost-mass high", "wall ms", "crashes", "failovers", "degraded"}}
	for _, p := range pts {
		lostLow, lostHigh := "-", "-"
		if p.LostLow != 0 || p.LostHigh != 0 {
			lostLow = fmt.Sprintf("%.2f", p.LostLow)
			lostHigh = fmt.Sprintf("%.2f", p.LostHigh)
		}
		rows = append(rows, []string{
			p.Mode,
			fmt.Sprintf("%d", p.Replicas),
			fmt.Sprintf("%d", p.Population),
			fmt.Sprintf("%d", p.HealthyPop),
			fmt.Sprintf("%.2f", p.Value),
			fmt.Sprintf("%.3f", p.HalfWidth),
			lostLow,
			lostHigh,
			fmt.Sprintf("%.2f", p.WallMS),
			fmt.Sprintf("%d", p.Crashes),
			fmt.Sprintf("%d", p.Failovers),
			fmt.Sprintf("%v", p.Degraded),
		})
	}
	fmt.Print(viz.Table(rows))
	return nil
}

func a12(seed int64) error {
	fmt.Println("Ablation A12: streaming ingest — a synthetic firehose through the sharded")
	fmt.Println("ingest buffer draining into the live indexes, while clients run LAST-windowed")
	fmt.Println("COUNT queries on a 25ms tick (200k preloaded, 3M streamed per shard config,")
	fmt.Println("2 paced producers at a 1.15M rec/s offered rate, 2 query clients), against")
	fmt.Println("the static no-ingest baseline")
	res, err := bench.A12(bench.A12Config{Seed: seed})
	if err != nil {
		return err
	}
	fmt.Printf("static baseline: p50 %.2f ms, p95 %.2f ms\n", res.StaticP50MS, res.StaticP95MS)
	rows := [][]string{{"shards", "inserts/s", "stream ms", "backpressure", "queries", "q p50 ms", "q p95 ms", "p95 ratio"}}
	for _, p := range res.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Shards),
			fmt.Sprintf("%.0f", p.InsertsPerSec),
			fmt.Sprintf("%.0f", p.ElapsedMS),
			fmt.Sprintf("%d", p.Backpressure),
			fmt.Sprintf("%d", p.Queries),
			fmt.Sprintf("%.2f", p.QP50MS),
			fmt.Sprintf("%.2f", p.QP95MS),
			fmt.Sprintf("%.2fx", p.RatioP95),
		})
	}
	fmt.Print(viz.Table(rows))
	return nil
}

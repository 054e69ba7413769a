// Benchmarks regenerating the paper's evaluation, one per figure (see
// DESIGN.md §3 and EXPERIMENTS.md). The per-sample benchmarks measure the
// steady-state cost of the four sampling methods of Figure 3(a); the
// harness benchmarks run the full figure pipelines at reduced scale and
// report the figure's headline quantities as custom metrics. cmd/stormbench
// runs the same pipelines at paper scale.
package storm

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"storm/internal/bench"
	"storm/internal/data"
	"storm/internal/distr"
	"storm/internal/engine"
	"storm/internal/estimator"
	"storm/internal/gen"
	"storm/internal/geo"
	"storm/internal/hilbert"
	"storm/internal/ingest"
	"storm/internal/iosim"
	"storm/internal/lstree"
	"storm/internal/pred"
	"storm/internal/rstree"
	"storm/internal/rtree"
	"storm/internal/sampling"
	"storm/internal/stats"
	"storm/internal/wire"
)

// ---- shared fixtures (built once across benchmarks) ----

var (
	fixOnce    sync.Once
	fixDS      *data.Dataset
	fixEntries []data.Entry
	fixPlain   *rtree.Tree
	fixRS      *rstree.Index
	fixLS      *lstree.Index
	fixQuery   geo.Rect
)

func fixture(b *testing.B) {
	b.Helper()
	fixOnce.Do(func() {
		fixDS = gen.OSM(gen.OSMConfig{N: 500_000, Seed: 1})
		fixEntries = fixDS.Entries()
		fixPlain = rtree.MustNew(rtree.Config{Fanout: 64})
		fixPlain.BulkLoad(fixEntries)
		var err error
		fixRS, err = rstree.Build(fixEntries, rstree.Config{Fanout: 64, Seed: 1})
		if err != nil {
			panic(err)
		}
		fixLS, err = lstree.Build(fixEntries, lstree.Config{Fanout: 64, Seed: 1})
		if err != nil {
			panic(err)
		}
		fixQuery = geo.Range{MinX: -76, MinY: 38.7, MaxX: -72, MaxY: 42.7,
			MinT: 0, MaxT: 86400 * 365}.Rect()
	})
}

// drawN pulls b.N samples from a sampler factory, restarting the stream
// whenever it is exhausted (so b.N can exceed q).
func drawN(b *testing.B, mk func(seed int64) sampling.Sampler) {
	b.Helper()
	seed := int64(1)
	s := mk(seed)
	one := make([]data.Entry, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.NextBatch(one, 1) == 0 {
			seed++
			s = mk(seed)
			i--
		}
	}
}

// ---- Figure 3(a): per-sample cost of each method ----

func BenchmarkFig3aSampleRSTree(b *testing.B) {
	fixture(b)
	drawN(b, func(seed int64) sampling.Sampler {
		return fixRS.Sampler(fixQuery, stats.NewRNG(seed))
	})
}

func BenchmarkFig3aSampleLSTree(b *testing.B) {
	fixture(b)
	drawN(b, func(seed int64) sampling.Sampler {
		return fixLS.Sampler(fixQuery, stats.NewRNG(seed))
	})
}

func BenchmarkFig3aSampleRandomPath(b *testing.B) {
	fixture(b)
	drawN(b, func(seed int64) sampling.Sampler {
		return sampling.NewRandomPath(fixPlain, fixQuery, stats.NewRNG(seed))
	})
}

func BenchmarkFig3aSampleRangeReport(b *testing.B) {
	fixture(b)
	drawN(b, func(seed int64) sampling.Sampler {
		return sampling.NewQueryFirst(fixPlain, fixQuery, stats.NewRNG(seed))
	})
}

func BenchmarkFig3aSampleSampleFirst(b *testing.B) {
	fixture(b)
	drawN(b, func(seed int64) sampling.Sampler {
		return sampling.NewSampleFirst(fixDS, fixQuery, stats.NewRNG(seed), nil, 64)
	})
}

// BenchmarkFig3aHarness runs the complete Figure 3(a) pipeline (all
// methods × all k) at reduced scale and reports the k/q = 10% simulated
// I/O of the two headline methods.
func BenchmarkFig3aHarness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := bench.Fig3a(bench.Fig3aConfig{N: 200_000, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		last := map[string]bench.Fig3aPoint{}
		for _, p := range pts {
			last[p.Method] = p
		}
		b.ReportMetric(float64(last["RS-tree"].Reads), "rs-reads@10%")
		b.ReportMetric(float64(last["RangeReport"].Reads), "rr-reads@10%")
		b.ReportMetric(float64(last["RandomPath"].Reads), "rp-reads@10%")
		b.ReportMetric(float64(last["LS-tree"].Reads), "ls-reads@10%")
	}
}

// ---- Batched sampling fast path ----

// batchedFix builds the RS-tree once over a Figure 3(a)-style device:
// a buffer pool of ~1% of the tree's pages, with each query's charges
// attributed through its own Counter as the engine does.
var (
	batchedOnce sync.Once
	batchedDev  *iosim.Device
	batchedRS   *rstree.Index
)

func batchedFix(b *testing.B) {
	b.Helper()
	fixture(b)
	batchedOnce.Do(func() {
		batchedDev = iosim.NewDevice(128, iosim.DefaultCostModel())
		var err error
		batchedRS, err = rstree.Build(fixEntries, rstree.Config{Fanout: 64, Seed: 1, Device: batchedDev})
		if err != nil {
			panic(err)
		}
	})
}

// batchedSampler opens an RS-tree stream over fixQuery as the engine
// does: with replacement, the adapter over it with a mixed seed.
func batchedSampler(mode sampling.Mode, seed int64) sampling.Sampler {
	s := batchedRS.SamplerWhere(fixQuery, stats.NewRNG(seed), nil, iosim.NewCounter(batchedDev))
	if mode == sampling.WithoutReplacement {
		return s
	}
	return sampling.WithReplacementOf(s, batchedRS.Count(fixQuery), stats.NewRNG(stats.MixSeed(seed)))
}

// BenchmarkBatchedSampling is the headline comparison for pull size on the
// read path: 2000 RS-tree samples per iteration, drawn as 2000 pulls of one
// (k=1) versus one pull of 2000 (NextBatch). Both produce the identical
// stream; the wide pull amortizes device-lock rounds and scratch
// allocations. WithoutReplacement mixes buffer-draw charges with
// materialization scans that both pull sizes share; WithReplacement is the
// adapter over the same stream, whose repeats of records already drawn
// charge nothing, so a pull of one pays the adapter's own bookkeeping on
// top of an inner pull.
func BenchmarkBatchedSampling(b *testing.B) {
	const k = 2000
	batchedFix(b)
	buf := make([]data.Entry, k)

	run := func(mode sampling.Mode) func(b *testing.B) {
		return func(b *testing.B) {
			b.Run("k=1", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					s := batchedSampler(mode, int64(i)+1)
					for j := 0; j < k; j++ {
						if s.NextBatch(buf, 1) == 0 {
							b.Fatal("exhausted")
						}
					}
				}
			})
			b.Run("NextBatch", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					s := batchedSampler(mode, int64(i)+1)
					if got := s.NextBatch(buf, k); got != k {
						b.Fatal("exhausted")
					}
				}
			})
		}
	}
	b.Run("WithReplacement", run(sampling.WithReplacement))
	b.Run("WithoutReplacement", run(sampling.WithoutReplacement))
	// Steady state: a warmed with-replacement stream re-batching — new
	// records from published buffers, repeats from the records it holds —
	// the allocation-free hot loop (0 allocs/op: the adapter's record of
	// the records it emitted grows by doubling, which amortizes away).
	b.Run("SteadyState", func(b *testing.B) {
		s := batchedSampler(sampling.WithReplacement, 1)
		s.NextBatch(buf, k) // warm: frontier, batcher, scratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.NextBatch(buf, k)
		}
	})
	// The same check across materializations: a without-replacement pull
	// that drains stored buffers and bulk-loads their parts, once an
	// earlier query's Close has stocked the scratch pools (0 allocs/op).
	// Only the pull is timed; each iteration's sampler is set up — frontier,
	// consumed set, first small pull — and closed off the clock.
	b.Run("SteadyStateMaterialize", func(b *testing.B) {
		open := func() *rstree.Sampler {
			s := batchedRS.SamplerWhere(fixQuery, stats.NewRNG(1), nil, iosim.NewCounter(batchedDev))
			s.NextBatch(buf, 16)
			return s
		}
		warm := open()
		warm.NextBatch(buf, k)
		warm.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s := open()
			b.StartTimer()
			s.NextBatch(buf, k)
			b.StopTimer()
			if s.SamplerStats().Explosions == 0 {
				b.Fatal("the pull crossed no materialization")
			}
			s.Close()
			b.StartTimer()
		}
	})
}

// BenchmarkExactPlan prices the engine's exact plan on zoom-shaped
// regions: the inner cities of gen.DefaultCities over the 500 k fixture,
// taken in turn so that each iteration reads columns and pages the
// previous one did not. One iteration is the plan's whole pass for an AVG
// of altitude. In the local case that is the descent that counts the
// region and folds its partial leaves, then the covered subtrees' values;
// ns/record over BenchmarkBatchedSampling's ns per drawn sample is the cost
// ratio engine.exactFinishRatio rests on, pages/op is what the pass charges
// (the descent's plus the covered subtrees'), and steady state allocates
// nothing. In the cluster=2x2 case (two shards at R=2, in-process) it is
// the coordinator's count round that asks for the moments: msgs/op reads 4
// (one Count and one CountOK per shard), bytes/op is what the round's
// frames would put on a wire, and ns/record is the denominator of
// engine.shardExactRatio.
func BenchmarkExactPlan(b *testing.B) {
	batchedFix(b)
	var zooms []geo.Rect
	for _, c := range gen.DefaultCities() {
		zooms = append(zooms, geo.SpatialRange(c.Lon-c.Spread, c.Lat-c.Spread, c.Lon+c.Spread, c.Lat+c.Spread).Rect())
	}
	b.Run("local", func(b *testing.B) {
		sums := rtree.NewSummaries(batchedRS.Tree(), fixDS)
		sums.Precompute()
		attr, ok := sums.AttrIndex("altitude")
		if !ok {
			b.Fatal("altitude is not summarized")
		}
		ctr := iosim.NewCounter(batchedDev)
		var covered []*rtree.Node
		pass := func(q geo.Rect) int {
			var m rtree.Moments
			m, covered = sums.Moments(q, nil, attr, math.MaxInt, covered[:0])
			w, _ := sums.CoveredValues(covered, attr, ctr, nil)
			m.Values.Merge(w)
			return m.Records
		}
		for _, q := range zooms { // warm the descent pool and the covered list
			pass(q)
		}
		records := 0
		before := batchedDev.Stats().Logical
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			records += pass(zooms[i%len(zooms)])
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(records), "ns/record")
		b.ReportMetric(float64(records)/float64(b.N), "records/op")
		b.ReportMetric(float64(batchedDev.Stats().Logical-before)/float64(b.N), "pages/op")
	})
	b.Run("cluster=2x2", func(b *testing.B) {
		c, err := distr.Build(fixDS, distr.Config{Shards: 2, Replicas: 2, Fanout: 64, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		round := func(q geo.Rect) int {
			m, summed := c.Moments(q, nil, "altitude", math.MaxInt)
			if !summed {
				b.Fatal("the round did not sum")
			}
			return m.Records
		}
		// frames is what one round would send: nothing is encoded in-process.
		frames := func(q geo.Rect) (bytes int) {
			for shard := range c.NumShards() {
				req := wire.Count{Target: wire.Target{DS: fixDS.Name(), Shard: uint32(shard)}, Query: q, Attr: "altitude", Limit: math.MaxInt}
				bytes += len(wire.AppendFrame(nil, &req)) + len(wire.AppendFrame(nil, &wire.CountOK{Summed: true}))
			}
			return bytes
		}
		for _, q := range zooms { // warm the shards' summaries
			round(q)
		}
		records, bytes := 0, 0
		msgs := c.Net().Messages
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			records += round(zooms[i%len(zooms)])
		}
		b.StopTimer()
		for i := 0; i < b.N; i++ {
			bytes += frames(zooms[i%len(zooms)])
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(records), "ns/record")
		b.ReportMetric(float64(records)/float64(b.N), "records/op")
		b.ReportMetric(float64(c.Net().Messages-msgs)/float64(b.N), "msgs/op")
		b.ReportMetric(float64(bytes)/float64(b.N), "bytes/op")
	})
}

// ---- Figure 3(b): online accuracy ----

func BenchmarkFig3b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := bench.Fig3b(bench.Fig3bConfig{N: 200_000, Seed: 1, Trials: 2,
			Checkpoints: []int{16, 64, 256, 1024}})
		if err != nil {
			b.Fatal(err)
		}
		var rsFinal, lsFinal float64
		for _, p := range pts {
			if p.Samples == 1024 {
				if p.Method == "RS-tree" {
					rsFinal = p.RelErr
				} else {
					lsFinal = p.RelErr
				}
			}
		}
		b.ReportMetric(rsFinal*100, "rs-err%@1024")
		b.ReportMetric(lsFinal*100, "ls-err%@1024")
	}
}

// ---- Figure 5: online KDE ----

func BenchmarkFig5KDE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := bench.Fig5(bench.Fig5Config{N: 150_000, Grid: 16, Seed: 1,
			Checkpoints: []int{100, 1000}})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			if p.Samples == 1000 && p.Region == "USA" {
				b.ReportMetric(p.RelErr, "usa-err@1000")
			}
		}
	}
}

// ---- Figure 6(a): online trajectory ----

func BenchmarkFig6aTrajectory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, _, err := bench.Fig6a(bench.Fig6aConfig{N: 80_000, Users: 10, Seed: 1,
			Checkpoints: []int{25, 250}})
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) > 0 {
			b.ReportMetric(pts[len(pts)-1].PathErr, "path-err")
		}
	}
}

// ---- Figure 6(b): online short-text terms ----

func BenchmarkFig6bTerms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.Fig6b(bench.Fig6bConfig{N: 150_000, Seed: 1,
			Checkpoints: []int{50, 500}})
		if err != nil {
			b.Fatal(err)
		}
		if n := len(res.Points); n > 0 {
			b.ReportMetric(res.Points[n-1].Recall, "top10-recall")
		}
	}
}

// ---- Ablations ----

func BenchmarkAblationBufferPool(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := bench.A1(bench.A1Config{N: 150_000, K: 1000, Seed: 1,
			PoolFracs: []float64{0, 0.1}})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			if p.Method == "RS-tree" && p.PoolFrac == 0.1 {
				b.ReportMetric(p.HitRate, "rs-hit-rate@10%pool")
			}
		}
	}
}

func BenchmarkAblationSampleBuffer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := bench.A2(bench.A2Config{N: 150_000, K: 1000, Fanout: 16, Seed: 1,
			BufSizes: []int{4, 64}})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(pts[0].Explosions), "explosions@S=4")
		b.ReportMetric(float64(pts[1].Explosions), "explosions@S=64")
	}
}

func BenchmarkUpdates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.A3(bench.A3Config{N: 80_000, Updates: 8_000, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res {
			if r.Index == "RS-tree" {
				b.ReportMetric(r.InsertsPerSecond, "rs-inserts/s")
			} else {
				b.ReportMetric(r.InsertsPerSecond, "ls-inserts/s")
			}
		}
	}
}

func BenchmarkDistributed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := bench.A4(bench.A4Config{N: 150_000, K: 2000, Seed: 1,
			Shards: []int{1, 4}, Pulls: []int{0}})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(pts[1].Messages), "messages@4shards")
	}
}

func BenchmarkPackingQuality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := bench.A6(bench.A6Config{N: 60_000, Queries: 5, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			switch p.Packing {
			case "str (default)":
				b.ReportMetric(p.AvgReads, "str-reads")
			case "hilbert":
				b.ReportMetric(p.AvgReads, "hilbert-reads")
			case "insert-built":
				b.ReportMetric(p.AvgReads, "insert-reads")
			}
		}
	}
}

func BenchmarkIndexBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := bench.A5(bench.A5Config{Sizes: []int{100_000}, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			switch p.Index {
			case "LS-tree":
				b.ReportMetric(p.BuildMS, "ls-build-ms")
			case "RS-tree":
				b.ReportMetric(p.BuildMS, "rs-build-ms")
			}
		}
	}
}

// BenchmarkRegister times engine.Register of the benchmark-of-record dataset
// as a starting stormd registers it: the RS-tree only, the LS-tree left to
// the first query that asks for it. gen-ms is the generation of that
// dataset, which stormd pays first.
func BenchmarkRegister(b *testing.B) {
	start := time.Now()
	ds := gen.OSM(gen.OSMConfig{N: 500_000, Seed: 1})
	genMS := float64(time.Since(start).Microseconds()) / 1000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := engine.New(engine.Config{Seed: 1, NoMetrics: true})
		if _, err := e.Register(ds, engine.IndexOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(genMS, "gen-ms")
}

// BenchmarkInsertBatch times the ingest drain's write path,
// engine.Handle.InsertBatch, in 300-record batches into the
// benchmark-of-record dataset; all of it runs under the dataset's write lock.
// ls=unbuilt is a dataset no LS-tree query has touched yet (what stormd
// registers), ls=built one whose LS-tree exists, so every record also draws
// its level coin flips and joins those levels. cluster=2x2 also mirrors
// every record into an in-process cluster of 2 shards at 2 replicas, and
// reports the messages its transports counted per record (msgs/record).
// us/record is the cost per record.
func BenchmarkInsertBatch(b *testing.B) {
	for _, sub := range []struct {
		name string
		opts engine.IndexOptions
	}{
		{"ls=unbuilt", engine.IndexOptions{}},
		{"ls=built", engine.IndexOptions{LSTree: true}},
		{"cluster=2x2", engine.IndexOptions{Shards: 2, Replicas: 2}},
	} {
		// The handle outlives the calibration run: a few hundred extra
		// records do not change a 500 k dataset.
		var h *engine.Handle
		rng := stats.NewRNG(3)
		b.Run(sub.name, func(b *testing.B) {
			if h == nil {
				var err error
				e := engine.New(engine.Config{Seed: 1, NoMetrics: true})
				if h, err = e.Register(gen.OSM(gen.OSMConfig{N: 500_000, Seed: 1}), sub.opts); err != nil {
					b.Fatal(err)
				}
			}
			ds := h.Data()
			batch := make([]data.Row, 300)
			c := h.Cluster()
			var msgs0 uint64
			if c != nil {
				msgs0 = c.Net().Messages
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				// Copies of random existing records, moved a little: the
				// batch lands where the data is.
				for j := range batch {
					p := ds.Pos(data.ID(rng.Intn(500_000)))
					batch[j] = data.Row{Pos: geo.Vec{p[0] + rng.Float64()*0.01, p[1] + rng.Float64()*0.01, p[2]}}
				}
				b.StartTimer()
				h.InsertBatch(batch)
			}
			records := float64(b.N * len(batch))
			b.ReportMetric(float64(b.Elapsed().Microseconds())/records, "us/record")
			if c != nil {
				b.ReportMetric(float64(c.Net().Messages-msgs0)/records, "msgs/record")
			}
		})
	}
}

// BenchmarkHostBuild times what a coordinator waits for at registration:
// one shard host (as cmd/stormd -role=shard runs it) adding its dataset copy
// and answering the Build requests for both shards of a two-way cut of it,
// at once, as distr.Start issues them. The Builds name each shard's run of
// the coordinator's STR order, sorted once before the timer starts: a host
// packs the records it is sent and sorts nothing.
func BenchmarkHostBuild(b *testing.B) {
	ds := gen.OSM(gen.OSMConfig{N: 250_000, Seed: 1})
	order := rtree.STROrderDataset(0, ds)
	f, n := rtree.DefaultFanout, len(order.Entries)
	leaves := (n + f - 1) / f
	builds := make([]*wire.Build, 2)
	for shard := range builds {
		run := order.Entries[f*(shard*leaves/2) : min(n, f*((shard+1)*leaves/2))]
		ids := make([]data.ID, len(run))
		for i, e := range run {
			ids[i] = e.ID
		}
		builds[shard] = &wire.Build{Target: wire.Target{DS: ds.Name(), Shard: uint32(shard)}, Of: 2, Seed: 1, Bounds: order.Bounds, IDs: ids}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := distr.NewHost()
		h.AddDataset(ds)
		var wg sync.WaitGroup
		for _, build := range builds {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if resp := h.Handle(build); resp.WireKind() != wire.KindBuildOK {
					b.Errorf("Build shard %d: %#v", build.Shard, resp)
				}
			}()
		}
		wg.Wait()
	}
}

// ---- substrate micro-benchmarks ----

// BenchmarkRTreeInsert times a single-record InsertBatch — what a shard host
// pays for every mirrored record. The tree is given the points' box, so
// keys spread over the curve instead of clamping to one corner.
func BenchmarkRTreeInsert(b *testing.B) {
	rng := stats.NewRNG(1)
	t := rtree.MustNew(rtree.Config{Fanout: 64, Bounds: geo.NewRect(geo.Vec{0, 0, 0}, geo.Vec{1000, 1000, 1000})})
	one := make([]data.Entry, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		one[0] = data.Entry{ID: data.ID(i), Pos: geo.Vec{
			rng.Uniform(0, 1000), rng.Uniform(0, 1000), rng.Uniform(0, 1000)}}
		t.InsertBatch(one)
	}
}

// BenchmarkRTreeRangeCount times one exact Count descent of the fixed-cost
// region on a plain tree: the leaf kernel every set-up COUNT runs.
func BenchmarkRTreeRangeCount(b *testing.B) {
	fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fixPlain.Count(fixQuery)
	}
}

func BenchmarkHilbertEncode3D(b *testing.B) {
	c := hilbert.MustNew(3, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Encode(uint64(i)&0xFFFF, uint64(i*7)&0xFFFF, uint64(i*13)&0xFFFF)
	}
}

func BenchmarkEstimatorAdd(b *testing.B) {
	est := estimator.MustNew(estimator.Avg, 0.95, 1<<30, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est.Add(float64(i % 1000))
	}
}

// BenchmarkEstimatorSnapshot times one report point. Up to 201 samples the
// interval takes Student's t critical value (the first report points of
// every query, and all of a dashboard tile's); k=1000 is past the cut-over
// to the normal quantile.
func BenchmarkEstimatorSnapshot(b *testing.B) {
	for _, k := range []int{16, 48, 112, 1000} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			est := estimator.MustNew(estimator.Avg, 0.95, 1<<30, true)
			for i := 0; i < k; i++ {
				est.Add(float64(i))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				est.Snapshot()
			}
		})
	}
}

// BenchmarkRequestFixedCost times what a request pays before (and beside)
// its samples — resolve the region, size the population, start and stop the
// driver — on the shapes the benchmark of record sends: the exact COUNT of
// its set-up checks, a stream's first 16-sample report, a tight-error
// ESTIMATE the exact plan answers, and a dashboard's predicate contract as
// the server runs it (plan, then execute that plan), once with a threshold
// nearly every record passes and once at the region's mean. descents/op is
// the shared device's page charges outside the query's own attributed ones
// (a sampler's, or the exact plan's covered subtrees), in units of one
// Count descent of the region: 1 for the first three, and for the
// contracts 1 plus the CountWhere walk's share when they sample, that share
// alone when the exact plan answers them.
func BenchmarkRequestFixedCost(b *testing.B) {
	fixture(b)
	eng := engine.New(engine.Config{Seed: 1, BufferPoolPages: 2048, NoMetrics: true})
	h, err := eng.Register(fixDS, engine.IndexOptions{})
	if err != nil {
		b.Fatal(err)
	}
	q := geo.Range{MinX: -76, MinY: 38.7, MaxX: -72, MaxY: 42.7, MinT: 0, MaxT: 86400 * 365}
	ctx := context.Background()
	dev := eng.Device()
	before := dev.Stats().Logical
	h.Count(q)
	descent := float64(dev.Stats().Logical - before)

	contractOpts := func(above float64) engine.Options {
		return engine.Options{Kind: estimator.Avg, Attr: "altitude",
			Where: []pred.Term{{Attr: "altitude", Lo: above, Hi: math.Inf(1), LoOpen: true}}}
	}
	contract := func(opts engine.Options) func() (engine.Snapshot, error) {
		return func() (engine.Snapshot, error) {
			plan, err := h.ExplainContract(q, opts, engine.Contract{RelError: 0.05, Deadline: 100 * time.Millisecond})
			if err != nil {
				return engine.Snapshot{}, err
			}
			res, err := h.ExecuteContract(ctx, q, opts, plan)
			return res.Snapshot, err
		}
	}
	// The region's mean altitude splits most of its leaves, so the CountWhere
	// walk tests records there instead of taking All verdicts, as the
	// benchmark of record's dashboard thresholds do.
	alt, _ := fixDS.NumericColumn("altitude")
	var sum float64
	inRegion := fixPlain.ReportAll(q.Rect())
	for _, e := range inRegion {
		sum += alt[e.ID]
	}
	mean := sum / float64(len(inRegion))
	shapes := []struct {
		name string
		run  func() (engine.Snapshot, error)
	}{
		{"count", func() (engine.Snapshot, error) {
			return h.Estimate(ctx, q, engine.Options{Kind: estimator.Count})
		}},
		{"estimate16", func() (engine.Snapshot, error) {
			return h.Estimate(ctx, q, engine.Options{Kind: estimator.Avg, Attr: "altitude", MaxSamples: 16})
		}},
		{"estimate-exact", func() (engine.Snapshot, error) {
			return h.Estimate(ctx, q, engine.Options{Kind: estimator.Avg, Attr: "altitude", TargetRelError: 0.001})
		}},
		{"contract", contract(contractOpts(100))},
		{"contract-mean", contract(contractOpts(mean))},
	}
	for _, shape := range shapes {
		b.Run(shape.name, func(b *testing.B) {
			if _, err := shape.run(); err != nil { // warm pools and the contract profile
				b.Fatal(err)
			}
			var planner uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				before := dev.Stats().Logical
				snap, err := shape.run()
				if err != nil {
					b.Fatal(err)
				}
				planner += dev.Stats().Logical - before - snap.IO.Logical
			}
			b.ReportMetric(float64(planner)/float64(b.N)/descent, "descents/op")
		})
	}
}

// ---- concurrent query throughput ----

// BenchmarkConcurrentQueries measures aggregate sampling throughput with
// 1, 2, 4 and 8 parallel clients against one dataset — the workload the
// shared-immutable/query-local split exists for. Each iteration runs every
// client's without-replacement RS-tree query to completion and the metric
// is total samples per wall-clock second. Scaling beyond one client
// requires GOMAXPROCS > 1; on a single-core host the numbers measure the
// synchronization overhead instead.
func BenchmarkConcurrentQueries(b *testing.B) {
	fixture(b)
	qr := geo.Range{MinX: -76, MinY: 38.7, MaxX: -72, MaxY: 42.7,
		MinT: 0, MaxT: 86400 * 365}
	const perQuery = 2000
	for _, clients := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			db := Open(Config{Seed: 1, Fanout: 64})
			h, err := db.Register(fixDS, IndexOptions{})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for c := 0; c < clients; c++ {
					wg.Add(1)
					go func(seed int64) {
						defer wg.Done()
						got, err := h.Sample(qr, perQuery, MethodRSTree, WithoutReplacement, seed)
						if err != nil || len(got) == 0 {
							b.Errorf("sample: %v (%d entries)", err, len(got))
						}
					}(int64(i*64 + c + 1))
				}
				wg.Wait()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N*clients*perQuery)/b.Elapsed().Seconds(), "samples/s")
		})
	}
}

// BenchmarkIngestConcurrentQueries extends BenchmarkConcurrentQueries with
// a live firehose: a background producer streams synthetic records through
// the buffered ingest path (package ingest) while 1-8 clients run
// `LAST`-windowed COUNT estimates. The metrics are windowed queries per
// second and the insert throughput sustained at the same time. A fresh
// OSM dataset is built per sub-benchmark — ingest mutates it, so the
// shared read-only fixture cannot be used.
func BenchmarkIngestConcurrentQueries(b *testing.B) {
	qr := geo.Range{MinX: -76, MinY: 38.7, MaxX: -72, MaxY: 42.7,
		MinT: 0, MaxT: 86400 * 365}
	const window = 60 * time.Second
	for _, clients := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			ds := gen.OSM(gen.OSMConfig{N: 200_000, Seed: 2})
			db := Open(Config{Seed: 1, Fanout: 64})
			h, err := db.Register(ds, IndexOptions{})
			if err != nil {
				b.Fatal(err)
			}
			wm, _ := h.Watermark()
			in := ingest.New(h, ingest.Config{
				Shards: 8, FlushRecords: 8192, MaxBatch: 8192,
				Name: fmt.Sprintf("bench-c%d", clients),
			})
			defer in.Close()
			// Open-loop background producer: 512-row chunks of synthetic
			// records, event clock advancing past the preloaded watermark.
			var (
				stop     atomic.Bool
				inserted atomic.Int64
				prodWG   sync.WaitGroup
			)
			rng := stats.NewRNG(7)
			prodWG.Add(1)
			go func() {
				defer prodWG.Done()
				t := wm
				chunk := make([]data.Row, 512)
				for !stop.Load() {
					for i := range chunk {
						t += 0.05
						chunk[i] = data.Row{Pos: geo.Vec{
							-76 + rng.Float64()*4, 38.7 + rng.Float64()*4, t,
						}}
					}
					if err := in.AppendBatch(chunk); err != nil {
						time.Sleep(time.Millisecond)
						continue
					}
					inserted.Add(int64(len(chunk)))
				}
			}()
			// Prewarm: at least one drained chunk so windowed queries see a
			// stream watermark before timing starts.
			for in.Accepted() < 512 {
				time.Sleep(time.Millisecond)
			}
			in.Flush()
			preTimer := inserted.Load()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for c := 0; c < clients; c++ {
					wg.Add(1)
					go func(seed int64) {
						defer wg.Done()
						_, err := h.Estimate(context.Background(), qr, Options{
							Kind: estimator.Count, Last: window,
							MaxSamples: 1000, Seed: seed,
						})
						if err != nil {
							b.Errorf("estimate: %v", err)
						}
					}(int64(i*64 + c + 1))
				}
				wg.Wait()
			}
			b.StopTimer()
			stop.Store(true)
			prodWG.Wait()
			b.ReportMetric(float64(b.N*clients)/b.Elapsed().Seconds(), "queries/s")
			b.ReportMetric(float64(inserted.Load()-preTimer)/b.Elapsed().Seconds(), "inserts/s")
		})
	}
}

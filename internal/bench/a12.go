package bench

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"storm/internal/data"
	"storm/internal/engine"
	"storm/internal/estimator"
	"storm/internal/geo"
	"storm/internal/ingest"
	"storm/internal/stats"
)

// A12Config sizes the streaming-ingest ablation: a synthetic firehose is
// appended through an ingest.Ingestor draining into a live engine handle
// while concurrent clients run `LAST <dur>` windowed queries, across a
// sweep of buffer-shard counts, against the static-load query baseline.
type A12Config struct {
	BaseN   int // records preloaded before the stream starts
	Inserts int // records streamed per shard configuration
	// Rate is the firehose's offered arrival rate in records/sec. The
	// producers pace to it (an open-loop feed, like a real stream with an
	// arrival rate); "sustained" means the drain keeps the achieved rate
	// at the offered rate without the backlog hitting backpressure.
	Rate         float64
	Producers    int // concurrent paced producer goroutines
	QueryClients int // concurrent windowed-query clients during ingest
	// QueryInterval is each client's think time between queries — the
	// paper's interactive-monitoring cadence (a dashboard tick), not a
	// saturating closed loop. 0 means the default; negative means no
	// think time (queries back-to-back).
	QueryInterval time.Duration
	Shards        []int         // buffer-shard sweep
	Window        time.Duration // LAST window duration (event-time seconds)
	QuerySamples  int           // sample budget per windowed COUNT query
	StaticQueries int           // queries in the no-ingest baseline
	Seed          int64
}

func (c A12Config) withDefaults() A12Config {
	if c.BaseN == 0 {
		c.BaseN = 200_000
	}
	if c.Inserts == 0 {
		c.Inserts = 3_000_000
	}
	if c.Rate == 0 {
		c.Rate = 1_150_000
	}
	if c.Producers == 0 {
		c.Producers = 2
	}
	if c.QueryClients == 0 {
		c.QueryClients = 2
	}
	if c.QueryInterval == 0 {
		c.QueryInterval = 25 * time.Millisecond
	}
	if len(c.Shards) == 0 {
		c.Shards = []int{1, 2, 4, 8}
	}
	if c.Window == 0 {
		c.Window = 60 * time.Second
	}
	if c.QuerySamples == 0 {
		c.QuerySamples = 1000
	}
	if c.StaticQueries == 0 {
		c.StaticQueries = 300
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// A12Point is one buffer-shard configuration's measurement.
type A12Point struct {
	Shards int
	// InsertsPerSec is the achieved end-to-end throughput: streamed
	// records over the wall time from the first append to the final
	// flush, with the query clients running the whole time. It reaches
	// the offered Rate only when both the producers and the drain keep
	// pace.
	InsertsPerSec float64
	ElapsedMS     float64
	// Backpressure counts Append calls rejected with ErrBackpressure
	// (each is one producer retry).
	Backpressure uint64
	// Queries is how many windowed COUNT queries completed during the
	// stream; QP50MS/QP95MS are their wall-clock latency percentiles.
	Queries int
	QP50MS  float64
	QP95MS  float64
	// RatioP95 is QP95MS over the static baseline's p95.
	RatioP95 float64
}

// A12Result is the ablation's output table plus the shared baseline.
type A12Result struct {
	StaticP50MS, StaticP95MS float64
	Points                   []A12Point
}

// a12Engine builds a fresh engine preloaded with BaseN synthetic records
// (event times uniform in [0, a12BaseT)) through the batched insert path,
// so every shard configuration starts from an identical warm handle.
const a12BaseT = 100.0

func a12Engine(cfg A12Config) (*engine.Handle, error) {
	ds := data.NewDataset("a12")
	// No simulated buffer pool: A12 measures the real CPU cost of the
	// drain and query paths, and the iosim charge accounting on every
	// node touch would dominate the insert rate it is trying to measure.
	eng := engine.New(engine.Config{Seed: cfg.Seed, Obs: Obs})
	h, err := eng.Register(ds, engine.IndexOptions{})
	if err != nil {
		return nil, err
	}
	rng := stats.NewRNG(cfg.Seed)
	const chunk = 16384
	batch := make([]data.Row, 0, chunk)
	for i := 0; i < cfg.BaseN; i++ {
		batch = append(batch, data.Row{Pos: geo.Vec{
			rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * a12BaseT,
		}})
		if len(batch) == chunk || i == cfg.BaseN-1 {
			h.InsertBatch(batch)
			batch = batch[:0]
		}
	}
	return h, nil
}

// a12Query runs one windowed COUNT estimate and returns its latency.
func a12Query(h *engine.Handle, cfg A12Config, qr geo.Range, seed int64) (float64, error) {
	start := time.Now()
	_, err := h.Estimate(context.Background(), qr, engine.Options{
		Kind: estimator.Count, Last: cfg.Window,
		MaxSamples: cfg.QuerySamples, Seed: seed,
	})
	return float64(time.Since(start)) / float64(time.Millisecond), err
}

// a12QueryPhase runs cfg.QueryClients concurrent clients, each issuing
// windowed COUNT queries on the think-time tick, until stop is set (and at
// least one query has run) or maxQueries queries have completed. The static
// baseline and the under-ingest phase both run through here, so client-vs-
// client contention is priced into both and the p95 ratio isolates what the
// ingest load itself adds.
func a12QueryPhase(h *engine.Handle, cfg A12Config, qr geo.Range, seedBase int64, stop *atomic.Bool, maxQueries int) ([]float64, error) {
	var (
		mu    sync.Mutex
		lats  []float64
		qerr  error
		seq   atomic.Int64
		count atomic.Int64
		wg    sync.WaitGroup
	)
	seq.Store(seedBase)
	for c := 0; c < cfg.QueryClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if stop != nil && stop.Load() {
					return
				}
				if maxQueries > 0 && count.Add(1) > int64(maxQueries) {
					return
				}
				ms, err := a12Query(h, cfg, qr, seq.Add(1))
				mu.Lock()
				if err != nil && qerr == nil {
					qerr = err
				}
				lats = append(lats, ms)
				mu.Unlock()
				if cfg.QueryInterval > 0 {
					time.Sleep(cfg.QueryInterval)
				}
			}
		}()
	}
	wg.Wait()
	return lats, qerr
}

// A12 measures what the sharded ingest buffer buys: for each buffer-shard
// count the synthetic firehose streams Inserts records through an
// Ingestor draining into the handle's batched insert path, while
// QueryClients clients run `LAST <window>` COUNT queries non-stop. The
// table reports sustained insert throughput, producer backpressure, and
// the concurrent query latency distribution against the static baseline
// (same engine, same queries, no ingest running).
func A12(cfg A12Config) (A12Result, error) {
	cfg = cfg.withDefaults()
	qr := geo.Range{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100, MinT: 0, MaxT: 1e12}
	// dt advances the stream's event clock per record: the full stream
	// spans several windows, so the trailing window slides while it runs.
	dt := cfg.Window.Seconds() * 3 / float64(cfg.Inserts)

	// The firehose is generated up front so producer goroutines spend
	// their cycles appending, not drawing random numbers inside the
	// measured interval.
	stream := make([]data.Row, cfg.Inserts)
	{
		rng := stats.NewRNG(cfg.Seed + 99)
		for i := range stream {
			stream[i] = data.Row{Pos: geo.Vec{
				rng.Float64() * 100, rng.Float64() * 100,
				a12BaseT + float64(i)*dt,
			}}
		}
	}

	// Static baseline: the identical preloaded engine and the identical
	// concurrent query clients, with no stream running.
	var res A12Result
	{
		h, err := a12Engine(cfg)
		if err != nil {
			return res, err
		}
		lats, err := a12QueryPhase(h, cfg, qr, cfg.Seed, nil, cfg.StaticQueries)
		if err != nil {
			return res, err
		}
		res.StaticP50MS = percentile(lats, 0.50)
		res.StaticP95MS = percentile(lats, 0.95)
	}

	for _, shards := range cfg.Shards {
		// Collect the previous configuration's engine before timing this
		// one: on a small machine a GC cycle against hundreds of MB of a
		// dead predecessor otherwise lands inside the measured stream.
		runtime.GC()
		h, err := a12Engine(cfg)
		if err != nil {
			return res, err
		}
		// MaxBatch at 4096: at the measured drain rate one sink call holds
		// the dataset write lock for ~3ms, keeping a concurrent query's
		// worst-case wait within the same order as its own run time while
		// the drain still keeps pace with the offered rate.
		in := ingest.New(h, ingest.Config{
			Shards: shards, FlushRecords: 8192, MaxBatch: 4096,
			Obs: Obs, Name: fmt.Sprintf("a12-s%d", shards),
		})

		// Query clients run for the duration of the stream.
		var (
			stop    atomic.Bool
			lats    []float64
			qerr    error
			queryWG sync.WaitGroup
		)
		queryWG.Add(1)
		go func() {
			defer queryWG.Done()
			lats, qerr = a12QueryPhase(h, cfg, qr, cfg.Seed*7919, &stop, 0)
		}()

		// Paced producers: chunks are claimed from a shared cursor (so
		// arrival order tracks event-time order, like a partitioned feed)
		// and each chunk is held back until the offered rate says it is
		// due. AppendBatch is all-or-nothing, so a backpressured chunk is
		// retried whole after a backoff.
		const chunk = 512
		var (
			seq        atomic.Int64
			bp         atomic.Uint64
			producerWG sync.WaitGroup
			perr       error
			pmu        sync.Mutex
		)
		start := time.Now()
		for p := 0; p < cfg.Producers; p++ {
			producerWG.Add(1)
			go func() {
				defer producerWG.Done()
				for {
					lo := int(seq.Add(chunk)) - chunk
					if lo >= len(stream) {
						return
					}
					hi := lo + chunk
					if hi > len(stream) {
						hi = len(stream)
					}
					for float64(lo) > cfg.Rate*time.Since(start).Seconds() {
						time.Sleep(time.Millisecond)
					}
					for {
						err := in.AppendBatch(stream[lo:hi])
						if err == nil {
							break
						}
						if errors.Is(err, ingest.ErrBackpressure) {
							bp.Add(1)
							time.Sleep(time.Millisecond)
							continue
						}
						pmu.Lock()
						if perr == nil {
							perr = err
						}
						pmu.Unlock()
						return
					}
				}
			}()
		}
		producerWG.Wait()
		in.Flush()
		elapsed := time.Since(start)
		stop.Store(true)
		queryWG.Wait()
		if err := in.Close(); err != nil {
			return res, err
		}
		if perr != nil {
			return res, perr
		}
		if qerr != nil {
			return res, qerr
		}
		if wm, ok := h.Watermark(); !ok || wm < a12BaseT+float64(cfg.Inserts-1)*dt {
			return res, fmt.Errorf("a12: watermark %.3f did not reach the stream's end", wm)
		}

		p := A12Point{
			Shards:        shards,
			InsertsPerSec: float64(cfg.Inserts) / elapsed.Seconds(),
			ElapsedMS:     float64(elapsed) / float64(time.Millisecond),
			Backpressure:  bp.Load(),
			Queries:       len(lats),
			QP50MS:        percentile(lats, 0.50),
			QP95MS:        percentile(lats, 0.95),
		}
		if res.StaticP95MS > 0 {
			p.RatioP95 = p.QP95MS / res.StaticP95MS
		}
		res.Points = append(res.Points, p)
	}
	return res, nil
}

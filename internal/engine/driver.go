package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"storm/internal/data"
	"storm/internal/distr"
	"storm/internal/geo"
	"storm/internal/iosim"
	"storm/internal/sampling"
	"storm/internal/stats"
)

// Progress is the part of a progress report the query driver owns. Every
// snapshot type embeds it, so every query shape — single and joint
// estimates, GROUP BY and the analytics — reports timing, the serving
// sampler, termination and stream health the same way.
type Progress struct {
	// Elapsed is the time since query start.
	Elapsed time.Duration
	// Method is the sampler that served the query; "range-count" and
	// "empty" mark answers that needed no sampling, and "error: …" marks
	// a query that could not be set up (see Err).
	Method string
	// IO is the simulated I/O attributed to this query so far. It is
	// counted through a per-query iosim.Counter, so it stays exact even
	// when many queries run concurrently; zero when I/O simulation is
	// disabled. CostUnits is not attributed per query (hit/miss costs are
	// charged on the shared device).
	IO iosim.Stats
	// Done marks the final snapshot: target met, budget spent, sample
	// exhausted, or context cancelled.
	Done bool
	// Degraded marks a distributed query that lost shards mid-stream
	// (crash or retry exhaustion). The answer then covers the surviving
	// population only: reported populations have been shrunk by the lost
	// shards' matching counts so CIs stay honest over what can still be
	// sampled (see DESIGN.md §4.3).
	Degraded bool
	// ShardsLost is how many shards the query lost mid-stream; 0 unless
	// Degraded.
	ShardsLost int
	// Recovered marks a distributed query that lost shards mid-stream and
	// re-admitted every one of them after they recovered: the answer is
	// back over the full population (population restored, no lost mass).
	// Mutually exclusive with Degraded.
	Recovered bool
	// FailedOver marks a distributed query that lost a shard replica
	// mid-stream and moved its remainder onto a surviving copy. Unlike
	// Degraded, the population is intact — the stream stays exactly
	// uniform over the full matching set, the CI needs no lost-mass
	// widening, and the final answer matches a healthy run's guarantees.
	// A query can be both FailedOver and Degraded when some shard lost
	// every copy while another only lost one (see DESIGN.md §4.8).
	FailedOver bool
	// RejectRatio is the sampler's discarded draws per RETURNED sample
	// (SamplerStats Rejects/Draws) — a ratio, not a fraction: it exceeds 1
	// whenever rejections outnumber returned samples. Rejects are
	// out-of-range or predicate-failing candidates for SampleFirst and
	// the rejection WHERE strategy, and out-of-range buffer draws from
	// boundary subtrees plus weight-consumed non-qualifying draws for
	// RS-tree streams. Zero for answers that drew nothing — the headline
	// number the A10 ablation compares across strategies.
	RejectRatio float64
	// Windowed marks a `LAST <dur>` query. WindowLo and WindowHi are the
	// resolved event-time bounds (seconds, anchored at the dataset
	// watermark) the query actually covered; an inverted pair
	// (WindowLo > WindowHi) reports a window resolved against a dataset
	// that has never held a record — an empty population, not an error.
	Windowed bool
	// WindowLo and WindowHi bound the window (see Windowed).
	WindowLo, WindowHi float64
}

// failedPrefix opens the Method of a terminal snapshot that reports a
// set-up failure; the rest is the error text.
const failedPrefix = "error: "

// Err returns the set-up failure a terminal snapshot reports (an unknown
// WHERE column, a sampler the dataset has no index for), or nil for a
// query that ran.
func (p Progress) Err() error {
	if msg, ok := strings.CutPrefix(p.Method, failedPrefix); ok {
		return errors.New(msg)
	}
	return nil
}

// report is what the driver hands a consumer at each report point: the
// header to embed in the snapshot plus the numbers estimators scale by.
type report struct {
	Progress
	// samples is how many accepted entries the consumer has folded, and
	// drawn how many of them the sampler drew one by one; they differ
	// only after an exact finish folded the sampler's held rest.
	samples, drawn int
	// population is the stream's effective qualifying population: the
	// windowed, predicate-qualifying count, shrunk by whatever shards the
	// stream has currently lost.
	population int
	// stream is the distributed stream's health, zero for local samplers.
	stream distr.StreamStatus
	// ci records the snapshot's relative CI width for the time-to-CI
	// telemetry; shapes with a single interval call it from report.
	ci func(rel float64)
}

// consumer is everything a query shape supplies to the driver. The driver
// owns the rest: seed, WHERE plan, LAST window, method, population, sampler
// lifetime, deadline, batch pulls, metrics, cancellation, stream status and
// the stopping rules.
type consumer struct {
	// fold folds a run of accepted entries into the shape's state. Runs
	// are cut at report points and the sample cap, so a consumer's inner
	// loop is a plain range over the slice.
	fold func([]data.Entry)
	// report renders a snapshot stamped with r and delivers it, returning
	// false once the receiver is gone, which stops the query. It must
	// tolerate being called before any fold (empty, exact and failed
	// queries).
	report func(r report) (delivered bool)
	// converged, when non-nil, is asked after every non-final report
	// whether the shape's accuracy target is met.
	converged func() bool
	// accept, when non-nil, keeps only the drawn records it accepts;
	// rejected ones count toward neither MaxSamples nor report points.
	accept func(data.ID) bool
	// need, when non-nil, says how many more samples the shape's target
	// needs at the population given (ok false while unknown); after each
	// pull the driver then asks the sampler for its held rest, capped at
	// exactFinishRatio times that need, and folds it for an exact answer.
	need func(population int) (n int, ok bool)
	// attr names the aggregated attribute whose lost-mass bounds the
	// shape wants in report.stream while degraded; empty for none.
	attr string
	// exact marks a shape answered by range counting alone (COUNT): the
	// driver sizes the population and reports once, without a sampler.
	exact bool
}

// stream validates the range and runs one query through the driver on its
// own goroutine, holding the handle's read lock for the whole run (queries
// share the handle; only updates take the write side). It returns the
// channel the query's snapshots arrive on; the final one has Done set and
// the channel is then closed. build runs under that lock — inserts between
// validation and here may have grown the columns, and the sampler can
// return those new records, so consumers fetch columns there — and gets
// the send function its report should deliver through.
func stream[T any](ctx context.Context, h *Handle, q geo.Range, opts Options, build func(send func(T) bool) consumer) (<-chan T, error) {
	if !q.Valid() {
		return nil, fmt.Errorf("engine: invalid query range %+v", q)
	}
	out := make(chan T, 16)
	go func() {
		defer close(out)
		h.mu.RLock()
		defer h.mu.RUnlock()
		h.run(ctx, q.Rect(), opts, build(func(v T) bool {
			select {
			case out <- v:
				return true
			case <-ctx.Done():
				return false
			}
		}))
	}()
	return out, nil
}

// positions adapts a per-position accumulator (density grid, path,
// clustering) to consumer.fold.
func positions(add func(geo.Vec)) func([]data.Entry) {
	return func(batch []data.Entry) {
		for _, e := range batch {
			add(e.Pos)
		}
	}
}

// exactFinishRatio is how many held records an exact finish may fold per
// sample it saves drawing: the driver folds the rest instead of drawing on
// when the rest is at most this multiple of the target's remaining need.
// It is the cost of drawing a sample over that of folding a held record.
// BenchmarkExactFinish measures 147–204 ns per drawn sample against 23–38
// ns per folded record on zoom-shaped queries (2-core Xeon), a ratio of
// 4.3–8.9. A drawn sample also pays its share of report points and NDJSON
// encoding, ~70 ns in the benchmark of record's traced zoom-stream run,
// which a folded record does not; with it the ratio is about 8.
const exactFinishRatio = 8

// accepted filters batch in place down to the entries accept keeps; a nil
// accept keeps them all.
func accepted(accept func(data.ID) bool, batch []data.Entry) []data.Entry {
	if accept == nil {
		return batch
	}
	kept := batch[:0]
	for _, e := range batch {
		if accept(e.ID) {
			kept = append(kept, e)
		}
	}
	return kept
}

// run is the engine's one query driver: every online query shape is this
// loop plus a consumer. Caller holds h.mu (the read side suffices) and has
// applied opts.withDefaults.
func (h *Handle) run(ctx context.Context, q geo.Rect, opts Options, c consumer) {
	start := time.Now()
	qo := h.beginQuery(start)
	defer qo.end()

	var (
		r          = report{ci: qo.ci}
		population int
		ctr        *iosim.Counter
		// dist is the sampler when it is the distributed coordinator's —
		// the one stream that can change health mid-query and enforce a
		// deadline inside its own draw machinery — and nil otherwise.
		dist *distr.Sampler
		// sampler is nil until the query has one to report counters from.
		sampler sampling.Sampler
		// Sticky: each status transition counts once per query even when
		// the stream later heals.
		wasDegraded, wasRecovered, wasFailedOver bool
	)
	emit := func(done bool, method string) bool {
		r.Done, r.Method, r.Elapsed = done, method, time.Since(start)
		r.population = population
		if dist != nil {
			// Re-target at the stream's current effective population
			// before rendering: shards that died mid-query shrink it so
			// point estimates, SUM/COUNT scaling and finite-population
			// corrections stay honest over what the stream can still
			// cover, and shards re-admitted after recovering restore it
			// (see DESIGN.md §4.3).
			r.stream = dist.Status(c.attr)
			r.population -= r.stream.LostPopulation
			r.ShardsLost = r.stream.ShardsLost
			r.Degraded = r.ShardsLost > 0
			r.Recovered = r.stream.Readmits > 0 && !r.Degraded
			r.FailedOver = r.stream.Failovers > 0
			met := h.eng.met
			if r.Degraded && !wasDegraded {
				wasDegraded = true
				met.queriesDegraded.Inc()
			}
			if r.Recovered && !wasRecovered {
				wasRecovered = true
				met.queriesRecovered.Inc()
			}
			if r.FailedOver && !wasFailedOver {
				wasFailedOver = true
				met.queriesFailedOver.Inc()
			}
		}
		if ctr != nil {
			r.IO = ctr.Snapshot()
		}
		if sampler != nil {
			if st := sampler.SamplerStats(); st.Draws > 0 {
				r.RejectRatio = float64(st.Rejects) / float64(st.Draws)
			}
		}
		return c.report(r)
	}

	seed := opts.Seed
	if seed == 0 {
		seed = h.eng.nextSeed()
	}
	// One resolution step up front — predicate plan, LAST window against
	// the watermark, method, and with them the region's one range count —
	// so estimator CIs, finite-population corrections and exactness all
	// size against the windowed qualifying population.
	res, err := h.resolve(q, opts)
	if err != nil {
		emit(true, failedPrefix+err.Error())
		return
	}
	r.Windowed, r.WindowLo, r.WindowHi = res.win.Set, res.win.Lo, res.win.Hi
	population = res.population()
	// COUNT is exact via canonical range counting (predicates included:
	// the qualifying population is counted through the pruned traversal):
	// answer immediately.
	if c.exact {
		emit(true, "range-count")
		return
	}
	if population == 0 {
		emit(true, "empty")
		return
	}

	var deadline time.Time
	if opts.TimeBudget > 0 {
		deadline = start.Add(opts.TimeBudget)
	}
	sampler, ctr, err = h.newSampler(res.method, res.sampled(), opts.Mode, stats.NewRNG(seed), res.plan)
	if err != nil {
		emit(true, failedPrefix+err.Error())
		return
	}
	defer sampler.Close()
	if dist, _ = sampler.(*distr.Sampler); dist != nil {
		// Push the budget down to the shard fetch boundary: the
		// coordinator then caps per-fetch RPC timeouts and stops
		// retry/backoff at the deadline instead of letting one slow shard
		// run the query past it (the zero time means none).
		dist.SetDeadline(deadline)
	}
	name := sampler.Name()

	// Samples are pulled in adaptive batches (see batch.go) but folded in
	// runs cut exactly where a per-sample loop would report or stop, so
	// emitted snapshots and stopping points are those of a serial loop —
	// batching only amortizes sampler and device overheads.
	bufp := getEntryBuf()
	defer putEntryBuf(bufp)
	buf := *bufp
	size := minPullBatch
	for {
		if ctx.Err() != nil || (!deadline.IsZero() && time.Now().After(deadline)) {
			emit(true, name)
			return
		}
		want := size
		if c.accept == nil && opts.MaxSamples > 0 && want > opts.MaxSamples-r.samples {
			// Without a filter every drawn sample is accepted, so clamping
			// the pull avoids drawing past the cap.
			want = opts.MaxSamples - r.samples
		}
		n := sampler.NextBatch(buf, want)
		qo.batch(sampler, n)
		batch := accepted(c.accept, buf[:n])
		for len(batch) > 0 {
			run := opts.ReportEvery - r.samples%opts.ReportEvery
			if opts.MaxSamples > 0 && run > opts.MaxSamples-r.samples {
				run = opts.MaxSamples - r.samples
			}
			if run > len(batch) {
				run = len(batch)
			}
			c.fold(batch[:run])
			batch = batch[run:]
			r.samples += run
			r.drawn += run
			if r.samples%opts.ReportEvery == 0 {
				if !emit(false, name) {
					return
				}
				if c.converged != nil && c.converged() {
					emit(true, name)
					return
				}
			}
			if opts.MaxSamples > 0 && r.samples >= opts.MaxSamples {
				emit(true, name)
				return
			}
		}
		if n < want {
			emit(true, name)
			return
		}
		if c.need != nil {
			if need, ok := c.need(population); ok {
				limit := min(need, math.MaxInt/exactFinishRatio) * exactFinishRatio
				if rest, ok := sampler.Rest(buf[:0], limit); ok {
					if cap(rest) > cap(buf) {
						*bufp = rest[:cap(rest)] // the pool keeps the grown buffer
					}
					rest = accepted(c.accept, rest)
					h.eng.met.exactFinishes.Inc()
					h.eng.met.exactRecords.Add(uint64(len(rest)))
					c.fold(rest)
					r.samples += len(rest)
					emit(true, name)
					return
				}
			}
		}
		size = nextPullSize(size)
	}
}

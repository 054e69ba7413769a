package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"storm/internal/data"
	"storm/internal/gen"
)

// inputs is everything one run sends and checks against, generated from the
// seed before any process is spawned.
type inputs struct {
	w     workloadSpec
	seed  int64
	ds    *data.Dataset // the regenerated preloaded dataset, for truth and replay
	genS  float64       // seconds gen.OSM took
	pool  []region
	truth []regionTruth
	// counts are the exact-COUNT checks; read and mixed the statement lists
	// of the read-only phase and of the query connection under paced ingest.
	counts, read, mixed []statement
	feed                *feed
	// The feed's first pacedPosts bodies go out on the open-loop schedule
	// (schedule[i] after the mixed phase starts), the remaining satPosts at
	// saturation.
	pacedPosts, satPosts int
	schedule             []time.Duration
	durations            map[phaseKind]time.Duration
}

// statementsPerList bounds a phase's statement list; clients wrap around if
// a phase outruns it, which only repeats regions the pool repeats anyway.
const statementsPerList = 16384

func newInputs(w workloadSpec, seed int64, seconds float64) *inputs {
	in := &inputs{w: w, seed: seed, durations: map[phaseKind]time.Duration{}}
	start := time.Now()
	in.ds = gen.OSM(gen.OSMConfig{N: w.OSM, Seed: datasetSeed})
	in.genS = time.Since(start).Seconds()
	in.pool = regionPool(seed)
	setThresholds(in.pool, regionBase(in.ds, in.pool), seed)
	in.truth = regionTruths(in.ds, in.pool)
	in.counts = countStatements(in.pool)
	in.read = statements(w.Read, in.pool, seed, statementsPerList)
	in.mixed = statements(w.Mixed, in.pool, seed+1, statementsPerList)
	for _, p := range w.Phases {
		in.durations[p.Kind] = time.Duration(p.Share * seconds * float64(time.Second))
	}
	in.pacedPosts = max(1, int(math.Round(float64(w.PacedRPS)*in.durations[phaseMixed].Seconds()/float64(w.PostRecords))))
	in.satPosts = max(1, int(math.Round(float64(w.SaturateRPS)*in.durations[phaseSaturate].Seconds()/float64(w.PostRecords))))
	in.feed = newFeed(seed, in.pacedPosts+in.satPosts, w.PostRecords, w.PacedRPS)
	in.schedule = arrivals(seed, in.pacedPosts, in.durations[phaseMixed])
	return in
}

// observation pairs a statement with what the client saw.
type observation struct {
	stmt *statement
	res  queryResult
	// static is true when the statement ran before any record was ingested,
	// so the precomputed region truth applies to it.
	static bool
}

// outcome is the raw record of one run, before it is reduced to metrics.
type outcome struct {
	setupS []float64
	// warm, read and mixed are the graded query observations of the last
	// set-up's warm-up, the read-only phase and the paced-ingest phase.
	warm, read, mixed []observation
	readElapsed       time.Duration
	// lagMS is POST ack -> records counted, postMS due time -> ack, lateMS
	// how late the open-loop generator sent, pending the backlog replies
	// reported; all per paced POST.
	lagMS, postMS, lateMS, pending []float64
	// satRecords were posted in the saturation phase: acknowledged after
	// satAck, all queryable after satQueryable (both from the first POST).
	satRecords            int
	satAck, satQueryable  time.Duration
	rssMB                 float64
	procs                 int // stormd processes rssMB sums over
	ingestOps, ingestFail int
	failures              []string
	// scrapes holds /metrics at each phase boundary (traced runs only):
	// scrapes[i] before and scrapes[i+1] after phase i of the workload.
	scrapes []expvars
}

func (o *outcome) failf(format string, args ...any) {
	o.ingestFail++
	if len(o.failures) < 8 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// runner drives one live topology.
type runner struct {
	in    *inputs
	conns [clients]*conn
	// expected is the record count stormd must report once everything
	// acknowledged so far is queryable; ingested flips at the first POST.
	expected int
	ingested bool
	nextRead atomic.Int64
}

func newRunner(in *inputs, t *topology) *runner {
	r := &runner{in: in, expected: in.w.OSM}
	for i := range r.conns {
		r.conns[i] = newConn(t.front)
	}
	return r
}

func (r *runner) close() {
	for _, c := range r.conns {
		c.close()
	}
}

// queryLoop runs statements closed-loop on every given connection until the
// deadline (or until each has sent `each` statements when each > 0),
// starting at list index *next. It returns the observations and the time
// from start to the last reply.
func (r *runner) queryLoop(conns []*conn, list []statement, next *atomic.Int64, deadline time.Time, each int) ([]observation, time.Duration) {
	start := time.Now()
	per := make([][]observation, len(conns))
	var wg sync.WaitGroup
	for ci, c := range conns {
		wg.Add(1)
		go func(ci int, c *conn) {
			defer wg.Done()
			for n := 0; ; n++ {
				if each > 0 && n >= each {
					return
				}
				if each <= 0 && !time.Now().Before(deadline) {
					return
				}
				s := &list[int(next.Add(1)-1)%len(list)]
				per[ci] = append(per[ci], observation{stmt: s, res: c.query(s.Body), static: !r.ingested})
			}
		}(ci, c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []observation
	for _, p := range per {
		all = append(all, p...)
	}
	return all, elapsed
}

// warmUp is the fixed untimed-by-the-window work of a set-up: every region's
// exact COUNT (the check that stormd holds the dataset truth was computed
// from), then warmupStatements read statements to fill sample buffers and
// the contract planner's telemetry.
func (r *runner) warmUp() []observation {
	var next atomic.Int64
	each := len(r.in.counts) / clients
	obs, _ := r.queryLoop(r.conns[:], r.in.counts, &next, time.Time{}, each)
	more, _ := r.queryLoop(r.conns[:], r.in.read, &r.nextRead, time.Time{}, warmupStatements/clients)
	return append(obs, more...)
}

func (r *runner) readPhase(o *outcome) {
	d := r.in.durations[phaseRead]
	o.read, o.readElapsed = r.queryLoop(r.conns[:], r.in.read, &r.nextRead, time.Now().Add(d), 0)
}

// pollSpacing is the pause between exact-COUNT polls in the paced phase; it
// bounds the resolution of fresh-lag. satPollSpacing is the pause in the
// saturation phase, which lasts seconds: there a poll every millisecond
// would only add a fourth busy process to the drain it is timing.
const (
	pollSpacing    = time.Millisecond
	satPollSpacing = 20 * time.Millisecond
)

// mixedPhase posts the paced bodies on connection 0 on a fixed open-loop
// schedule: each send happens when it is due whether or not earlier records
// are queryable yet, and is timed from its due time. In the slack between
// sends the same connection polls an exact COUNT; a poll that sees n records
// dates every acknowledged POST whose records are among those n, which gives
// a fresh-lag sample per POST without ever delaying the schedule. Connection
// 1 runs queries closed-loop meanwhile.
func (r *runner) mixedPhase(o *outcome) {
	d := r.in.durations[phaseMixed]
	f := r.in.feed
	start := time.Now()
	r.ingested = true
	// Queries start once the first paced records are queryable, so windowed
	// statements never run against a window that predates the feed.
	visible := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-visible
		var next atomic.Int64
		o.mixed, _ = r.queryLoop(r.conns[1:], r.in.mixed, &next, start.Add(d), 0)
	}()
	c := r.conns[0]
	// outstanding are acknowledged POSTs not yet seen by a COUNT, oldest first.
	type acked struct {
		want int
		at   time.Time
	}
	var outstanding []acked
	poll := func() bool {
		n, err := c.records()
		if err != nil {
			o.failf("polling during paced ingest: %v", err)
			outstanding = nil
			return false
		}
		now := time.Now()
		for len(outstanding) > 0 && outstanding[0].want <= n {
			o.lagMS = append(o.lagMS, ms(now.Sub(outstanding[0].at)))
			outstanding = outstanding[1:]
			once.Do(func() { close(visible) })
		}
		return true
	}
	for i, offset := range r.in.schedule {
		due := start.Add(offset)
		for len(outstanding) > 0 && time.Until(due) > pollSpacing && poll() {
			time.Sleep(pollSpacing)
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		o.lateMS = append(o.lateMS, ms(time.Since(due)))
		o.ingestOps++
		accepted, pending, err := c.post(f.Bodies[i], f.LineEnds[i])
		r.expected += accepted
		if err != nil {
			o.failf("paced POST %d: %v", i, err)
			continue
		}
		now := time.Now()
		o.postMS = append(o.postMS, ms(now.Sub(due)))
		o.pending = append(o.pending, float64(pending))
		outstanding = append(outstanding, acked{r.expected, now})
	}
	for deadline := time.Now().Add(30 * time.Second); len(outstanding) > 0 && poll(); time.Sleep(pollSpacing) {
		if time.Now().After(deadline) {
			o.failf("paced ingest: %d POSTs still not queryable 30s after the last one", len(outstanding))
			break
		}
	}
	once.Do(func() { close(visible) })
	wg.Wait()
	r.checkCount(o, "paced ingest")
}

// saturatePhase posts the remaining bodies back to back on connection 0 and
// times until an exact COUNT sees every one of them.
func (r *runner) saturatePhase(o *outcome) {
	f, c := r.in.feed, r.conns[0]
	r.ingested = true
	start := time.Now()
	for i := r.in.pacedPosts; i < len(f.Bodies); i++ {
		o.ingestOps++
		accepted, _, err := c.post(f.Bodies[i], f.LineEnds[i])
		r.expected += accepted
		o.satRecords += accepted
		if err != nil {
			o.failf("saturation POST %d: %v", i, err)
		}
	}
	o.satAck = time.Since(start)
	if _, err := c.awaitRecords(r.expected, satPollSpacing, 120*time.Second); err != nil {
		o.failf("saturation: %v", err)
	}
	o.satQueryable = time.Since(start)
	r.checkCount(o, "saturation ingest")
}

// checkCount holds stormd to "final record count = base + accepted".
func (r *runner) checkCount(o *outcome, phase string) {
	o.ingestOps++
	n, err := r.conns[0].records()
	if err != nil {
		o.failf("after %s: %v", phase, err)
	} else if n != r.expected {
		o.failf("after %s: SELECT COUNT FROM osm sees %d records, want base + accepted = %d", phase, n, r.expected)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// execute runs the whole workload: setupRepeats spawn-and-warm cycles (one
// in a traced run, which does not report setup_s), then the phases against
// the last instance.
func execute(ctx context.Context, bin string, in *inputs, traced bool) (*outcome, error) {
	o := &outcome{}
	repeats := setupRepeats
	if traced {
		repeats = 1
	}
	var (
		t *topology
		r *runner
	)
	for i := 0; i < repeats; i++ {
		if t != nil {
			r.close()
			t.stop()
		}
		start := time.Now()
		var err error
		if t, err = startTopology(ctx, bin, in.w); err != nil {
			return nil, err
		}
		r = newRunner(in, t)
		o.warm = r.warmUp()
		o.setupS = append(o.setupS, time.Since(start).Seconds())
	}
	defer t.stop()
	defer r.close()

	scrape := func() error {
		if !traced {
			return nil
		}
		m, err := r.conns[0].scrape()
		if err != nil {
			return fmt.Errorf("scraping /metrics: %w", err)
		}
		o.scrapes = append(o.scrapes, m)
		return nil
	}
	if err := scrape(); err != nil {
		return nil, err
	}
	for _, p := range in.w.Phases {
		switch p.Kind {
		case phaseRead:
			r.readPhase(o)
		case phaseMixed:
			r.mixedPhase(o)
		case phaseSaturate:
			r.saturatePhase(o)
		}
		if err := scrape(); err != nil {
			return nil, err
		}
	}
	var err error
	if o.rssMB, err = t.peakRSSMB(); err != nil {
		return nil, fmt.Errorf("reading peak RSS: %w", err)
	}
	o.procs = len(t.procs)
	return o, nil
}

package engine

import (
	"math"
	"time"

	"storm/internal/obs"
	"storm/internal/sampling"
)

// metrics holds the engine's resolved metric handles. Handles are fetched
// once at engine construction, so the query hot path never touches the
// registry map; with metrics disabled (Config.NoMetrics) every handle is
// nil and each write degrades to a single nil check (see package obs).
type metrics struct {
	queriesStarted *obs.Counter
	queriesDone    *obs.Counter
	queriesActive  *obs.Gauge
	// queriesDegraded counts queries that lost at least one shard
	// mid-stream and finished over the surviving population.
	queriesDegraded *obs.Counter
	// queriesRecovered counts queries that re-admitted every shard they
	// had lost (the shards recovered mid-query) and finished back over
	// the full population.
	queriesRecovered *obs.Counter
	// queriesFailedOver counts queries that moved at least one shard
	// stream onto a surviving replica mid-query (Replicas >= 2) and kept
	// the full population — failover, not degradation.
	queriesFailedOver *obs.Counter

	// exactPlans counts estimates the exact plan answered without
	// sampling; exactRecords counts the qualifying records they read.
	exactPlans   *obs.Counter
	exactRecords *obs.Counter

	samplesDrawn      *obs.Counter
	samplerRejects    *obs.Counter
	samplerExplosions *obs.Counter
	samplerScans      *obs.Counter

	// pushdownPlans counts planner resolutions (queries and EXPLAINs)
	// that chose predicate pushdown over the rejection baseline;
	// pushdownPruned counts the subtrees node-summary pruning excluded
	// from sampler descents.
	pushdownPlans  *obs.Counter
	pushdownPruned *obs.Counter

	// contractsMet/Degraded/Missed count contract-mode queries
	// (EstimateContract) by their final guarantee verdict;
	// contractColdPlans counts the ones that ran on a plan made from
	// priors because the dataset had no telemetry yet.
	contractsMet      *obs.Counter
	contractsDegraded *obs.Counter
	contractsMissed   *obs.Counter
	contractColdPlans *obs.Counter

	// lsBuilds counts LS-tree builds: one per dataset registered with
	// IndexOptions.LSTree, plus one per dataset whose first MethodLSTree
	// query built it (that query held the dataset's read lock meanwhile).
	lsBuilds *obs.Counter

	// Every distribution self-tunes: its log-spaced bounds rescale upward
	// instead of saturating a top bucket when a cold cache, a huge
	// dataset, or a slow-converging estimate pushes observations past the
	// initial range. Batch sizes start at the engine's 16 → 1024 pull
	// growth.
	batchSize      *obs.TuningHistogram
	ciRelWidth     *obs.TuningHistogram
	queryLatencyMS *obs.TuningHistogram

	ttci []ttciMilestone
}

// ttciMilestone is one time-to-CI-width target: the histogram records how
// long queries took to first shrink their relative CI width to rel.
type ttciMilestone struct {
	rel  float64
	hist *obs.TuningHistogram
}

// ttciThresholds are the convergence milestones exported as
// storm.engine.ttci.* histograms, widest first (queries cross them in
// this order). Register additionally builds a per-dataset copy of the
// same milestones under storm.dataset.<name>.ttci.* — the contract
// planner's telemetry (see ttciPredict).
var ttciThresholds = []struct {
	rel   float64
	short string
}{
	{0.10, "ttci.rel10pct_ms"},
	{0.05, "ttci.rel5pct_ms"},
	{0.01, "ttci.rel1pct_ms"},
}

// newMetrics resolves every engine metric against reg. A nil registry
// yields all-nil handles, making every recording site a no-op.
func newMetrics(reg *obs.Registry) *metrics {
	m := &metrics{
		queriesStarted:    reg.Counter("storm.engine.queries.started"),
		queriesDone:       reg.Counter("storm.engine.queries.done"),
		queriesActive:     reg.Gauge("storm.engine.queries.active"),
		queriesDegraded:   reg.Counter("storm.engine.queries.degraded"),
		queriesRecovered:  reg.Counter("storm.engine.queries.recovered"),
		queriesFailedOver: reg.Counter("storm.engine.queries.failed_over"),
		exactPlans:        reg.Counter("storm.engine.exact.plans"),
		exactRecords:      reg.Counter("storm.engine.exact.records"),
		samplesDrawn:      reg.Counter("storm.engine.samples.drawn"),
		samplerRejects:    reg.Counter("storm.engine.sampler.rejects"),
		samplerExplosions: reg.Counter("storm.engine.sampler.explosions"),
		samplerScans:      reg.Counter("storm.engine.sampler.scans"),
		pushdownPlans:     reg.Counter("storm.engine.pushdown.plans"),
		pushdownPruned:    reg.Counter("storm.engine.pushdown.pruned_nodes"),
		contractsMet:      reg.Counter("storm.engine.contracts.met"),
		contractsDegraded: reg.Counter("storm.engine.contracts.degraded"),
		contractsMissed:   reg.Counter("storm.engine.contracts.missed"),
		contractColdPlans: reg.Counter("storm.engine.contracts.cold_plans"),
		lsBuilds:          reg.Counter("storm.engine.lstree.builds"),
		batchSize:         reg.TuningHistogram("storm.engine.batch.size", 16, 8),
		ciRelWidth:        reg.TuningHistogram("storm.engine.ci.relwidth", 1e-4, 16),
		queryLatencyMS:    reg.TuningHistogram("storm.engine.query.latency_ms", 0.1, 16),
	}
	for _, t := range ttciThresholds {
		m.ttci = append(m.ttci, ttciMilestone{rel: t.rel, hist: reg.TuningHistogram("storm.engine."+t.short, 0.1, 16)})
	}
	return m
}

// queryObs is one query's metric state: the sampler-stats cursor for
// delta flushing and the milestone cursor for time-to-CI tracking. It is
// query-goroutine-local, so nothing here is atomic — the per-draw hot
// path stays untouched and metric writes happen once per batch or per
// report point.
type queryObs struct {
	met       *metrics
	start     time.Time
	last      sampling.SamplerStats
	milestone int
	// ds holds the handle's per-dataset time-to-CI milestones (same
	// thresholds, same order as met.ttci), observed at the same cursor —
	// they feed the contract planner's per-dataset predictions. Nil when
	// the query runs without a handle context or metrics are off.
	ds []ttciMilestone
}

// beginQuery records a query start and returns its metric state; pair
// with queryObs.end.
func (m *metrics) beginQuery(start time.Time) *queryObs {
	m.queriesStarted.Inc()
	m.queriesActive.Add(1)
	return &queryObs{met: m, start: start}
}

// end records query completion and its total latency.
func (q *queryObs) end() {
	m := q.met
	m.queriesActive.Add(-1)
	m.queriesDone.Inc()
	m.queryLatencyMS.Observe(msSince(q.start))
}

// batch flushes one NextBatch round into the registry: the pull size and
// the sampler's counter deltas since the previous flush.
func (q *queryObs) batch(s sampling.Sampler, n int) {
	m := q.met
	m.batchSize.Observe(float64(n))
	cur := s.SamplerStats()
	m.samplesDrawn.Add(cur.Draws - q.last.Draws)
	m.samplerRejects.Add(cur.Rejects - q.last.Rejects)
	m.samplerExplosions.Add(cur.Explosions - q.last.Explosions)
	m.samplerScans.Add(cur.Scans - q.last.Scans)
	m.pushdownPruned.Add(cur.Pruned - q.last.Pruned)
	q.last = cur
}

// ci records one emitted snapshot's relative CI width and stamps any
// newly crossed time-to-CI milestones. Non-finite widths (an estimate of
// zero, or no samples yet) are skipped rather than polluting the
// distribution.
func (q *queryObs) ci(rel float64) {
	if math.IsNaN(rel) || math.IsInf(rel, 0) {
		return
	}
	m := q.met
	m.ciRelWidth.Observe(rel)
	for q.milestone < len(m.ttci) && rel <= m.ttci[q.milestone].rel {
		ms := msSince(q.start)
		m.ttci[q.milestone].hist.Observe(ms)
		if q.milestone < len(q.ds) {
			q.ds[q.milestone].hist.Observe(ms)
		}
		q.milestone++
	}
}

// msSince returns the elapsed time since t in (fractional) milliseconds.
func msSince(t time.Time) float64 {
	return float64(time.Since(t)) / float64(time.Millisecond)
}

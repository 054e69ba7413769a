package engine

// The statistical acceptance of the system's one invariant on the path the
// product serves: an answer's CI, population and lost-mass bounds stay
// honest over the population it claims while shards degrade, recover and
// fail over. Every run is one Handle.Estimate on a sharded handle, so what
// is checked is the driver's own re-targeting (emit) and the snapshot's own
// lost-mass interval, not a test-side re-implementation of them. The
// stream-level halves (first-sample uniformity, byte identity across
// transports) stay in internal/distr, the layer that moves the samples.
// Fixtures, seed sets, nominal rate, slack and α are the ones these suites
// have always run under; `make test-stats` runs them with -race.

import (
	"context"
	"testing"

	"storm/internal/data"
	"storm/internal/distr"
	"storm/internal/distr/distrtest"
	"storm/internal/estimator"
	"storm/internal/stats/statcheck"
)

// statFixture is the shared 6000-record fixture with the full-population
// mean of "value" over testRange (distrtest.Query's rectangle). Queries
// only read it, so one copy serves every seeded engine of a suite.
func statFixture(t *testing.T) (ds *data.Dataset, truth float64, matches int) {
	t.Helper()
	ds = distrtest.Dataset(6000)
	truth, matches = distrtest.FullTruth(ds, testRange.Rect())
	if matches < 500 {
		t.Fatalf("degenerate fixture: %d matches", matches)
	}
	return ds, truth, matches
}

// faultedAvg is one seeded run of a fault scenario: the fixture registered
// on a fresh engine as 8 in-process shards under opts' replication and
// fault plan, then one maxSamples-sample AVG(value) through the
// coordinator. The engine seed drives the cluster's and the query's seeds,
// so runs under distinct seeds are independent draws.
func faultedAvg(t *testing.T, ds *data.Dataset, seed int64, opts IndexOptions, maxSamples int) (Snapshot, *Handle) {
	t.Helper()
	opts.Shards = 8
	// NoMetrics: distr keeps every cluster that publishes to a registry
	// reachable for the life of the process, and these suites build hundreds.
	h, err := New(Config{Seed: seed, NoMetrics: true}).Register(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := h.Estimate(context.Background(), testRange, Options{
		Kind: estimator.Avg, Attr: "value", MaxSamples: maxSamples, Method: MethodDistributed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Done || snap.Samples != maxSamples {
		t.Fatalf("seed %d: run ended at %d of %d samples (done=%v, method %q)", seed, snap.Samples, maxSamples, snap.Done, snap.Method)
	}
	return snap, h
}

// crashShards scripts a permanent crash of the given shards on their
// first fetch, so the stream is exactly uniform without replacement over
// the survivors from its first sample.
func crashShards(shards ...int) *distr.FaultPlan {
	plan := &distr.FaultPlan{Shards: map[int]distr.ShardFaultPlan{}}
	for _, s := range shards {
		plan.Shards[s] = distr.ShardFaultPlan{Crash: true, CrashAfterFetches: 0}
	}
	return plan
}

// TestStatDegradedEstimateCoversSurvivingMean is the coverage acceptance
// test: across many seeds, a 95% CI produced by a query that loses 2 of 8
// shards mid-query must cover the surviving-population mean at the nominal
// rate. The 3% slack absorbs the t-approximation at 300 samples.
func TestStatDegradedEstimateCoversSurvivingMean(t *testing.T) {
	ds, _, _ := statFixture(t)
	plan := crashShards(2, 5)
	var (
		truth     float64
		surviving int
	)
	seeds := statcheck.Seeds(100, 100)
	intervals := make([]statcheck.Interval, 0, len(seeds))
	for i, seed := range seeds {
		snap, h := faultedAvg(t, ds, seed, IndexOptions{Faults: plan}, 300)
		if i == 0 {
			// The partition depends on the dataset and the shard count
			// only, so the first run's cluster names the survivors for all.
			truth, surviving = distrtest.SurvivingTruth(h.Cluster(), ds, testRange.Rect(), map[int]bool{2: true, 5: true})
			if surviving < 200 {
				t.Fatalf("degenerate fixture: %d surviving matches", surviving)
			}
		}
		if !snap.Degraded || snap.ShardsLost != 2 {
			t.Fatalf("seed %d: degradation = (%v, %d), want both crashes to have fired", seed, snap.Degraded, snap.ShardsLost)
		}
		if snap.Population != surviving {
			t.Fatalf("seed %d: effective population = %d, want surviving %d", seed, snap.Population, surviving)
		}
		intervals = append(intervals, statcheck.IntervalAround(snap.Value, snap.HalfWidth))
	}
	statcheck.Coverage(t, "degraded-ci", truth, intervals, 0.95, 0.03, statcheck.DefaultAlpha)
}

// TestStatDegradedLostMassBoundsCoverFullMean closes the loop on the
// summaries: when the shards do NOT come back, the snapshot's lost-mass
// interval — the degraded CI widened by the lost shards' [min, max] — must
// cover the TRUE FULL-POPULATION mean: the widening converts "we only know
// the survivors" into a hard statement about everything. Coverage holds at
// (at least) the survivors' nominal rate.
func TestStatDegradedLostMassBoundsCoverFullMean(t *testing.T) {
	ds, truth, _ := statFixture(t)
	plan := crashShards(2, 5)
	seeds := statcheck.Seeds(31, 100)
	intervals := make([]statcheck.Interval, 0, len(seeds))
	for _, seed := range seeds {
		snap, _ := faultedAvg(t, ds, seed, IndexOptions{Faults: plan}, 300)
		if !snap.Degraded {
			t.Fatalf("seed %d: crash never triggered", seed)
		}
		low, high := snap.LostMassLow, snap.LostMassHigh
		if low == 0 && high == 0 {
			t.Fatalf("seed %d: degraded snapshot carries no lost-mass bounds", seed)
		}
		// With lost mass present the widened interval must extend past the
		// surviving CI on at least one side; a strictly narrower interval
		// would be a sign error.
		if low > snap.Value-snap.HalfWidth && high < snap.Value+snap.HalfWidth {
			t.Fatalf("seed %d: widened interval [%v, %v] strictly inside CI [%v, %v]",
				seed, low, high, snap.Value-snap.HalfWidth, snap.Value+snap.HalfWidth)
		}
		intervals = append(intervals, statcheck.Interval{Low: low, High: high})
	}
	statcheck.Coverage(t, "lost-mass-bounds", truth, intervals, 0.95, 0.03, statcheck.DefaultAlpha)
}

// TestStatRecoveredCICoversFullMean is the headline statistical acceptance
// of recovery: across 200 seeded kill-then-recover runs, the 95% CI of an
// in-flight AVG query that lost a shard mid-stream and re-admitted it must
// cover the TRUE FULL-POPULATION mean at the nominal rate — fetch
// re-weighting rebuilds the inclusion distribution over the full
// population after rejoin. Every run must have completed the crash→readmit
// cycle (snapshot stamped Recovered), so every interval really did span the
// down→up transition. The 3% slack absorbs the t-approximation at 320
// samples and the population transition mid-stream.
func TestStatRecoveredCICoversFullMean(t *testing.T) {
	ds, truth, matches := statFixture(t)
	plan := &distr.FaultPlan{Shards: map[int]distr.ShardFaultPlan{
		2: {Crash: true, CrashAfterFetches: 1, RecoverAfter: 4},
	}}
	seeds := statcheck.Seeds(7, 200)
	intervals := make([]statcheck.Interval, 0, len(seeds))
	for _, seed := range seeds {
		snap, h := faultedAvg(t, ds, seed, IndexOptions{Faults: plan}, 320)
		if st := h.Cluster().FaultStats(); !snap.Recovered || st.Readmits != 1 {
			t.Fatalf("seed %d: recovered=%v degraded=%v readmits=%d — the crash→recover cycle did not complete",
				seed, snap.Recovered, snap.Degraded, st.Readmits)
		}
		if snap.Population != matches {
			t.Fatalf("seed %d: effective population %d, want full %d after rejoin", seed, snap.Population, matches)
		}
		intervals = append(intervals, statcheck.IntervalAround(snap.Value, snap.HalfWidth))
	}
	statcheck.Coverage(t, "recovered-ci", truth, intervals, 0.95, 0.03, statcheck.DefaultAlpha)
}

// failedOverAvg is one replica-kill run at R=2: replica 0 of shard 2 dies
// after its first fetch. The kill must have moved the stream (FailedOver)
// without degrading it or shrinking the population, so every returned
// estimate really did span the replica loss with nothing lost.
func failedOverAvg(t *testing.T, ds *data.Dataset, seed int64, matches, maxSamples int) Snapshot {
	t.Helper()
	plan := &distr.FaultPlan{Replicas: map[distr.ReplicaTarget]distr.ShardFaultPlan{
		{Shard: 2, Replica: 0}: {Crash: true, CrashAfterFetches: 1},
	}}
	snap, _ := faultedAvg(t, ds, seed, IndexOptions{Replicas: 2, Faults: plan}, maxSamples)
	if !snap.FailedOver {
		t.Fatalf("seed %d: replica kill never triggered a failover", seed)
	}
	if snap.Degraded || snap.LostMassLow != 0 || snap.LostMassHigh != 0 {
		t.Fatalf("seed %d: failed-over query degraded or carries lost-mass bounds: %+v", seed, snap)
	}
	if snap.Population != matches {
		t.Fatalf("seed %d: effective population %d, want the full %d — failover must not shrink it", seed, snap.Population, matches)
	}
	return snap
}

// TestStatFailoverCICoversFullMean is the headline statistical acceptance
// of replication: across 200 seeded replica-kill runs, the 95% CI of an
// AVG query that failed over mid-stream must cover the TRUE
// FULL-POPULATION mean at the nominal rate — with ZERO lost-mass widening,
// because nothing was lost: re-opening the remainder on the surviving
// clone with the emitted set excluded leaves the stream exactly uniform
// WOR over the complement. The 3% slack absorbs the t-approximation at 320
// samples.
func TestStatFailoverCICoversFullMean(t *testing.T) {
	ds, truth, matches := statFixture(t)
	seeds := statcheck.Seeds(17, 200)
	intervals := make([]statcheck.Interval, 0, len(seeds))
	for _, seed := range seeds {
		snap := failedOverAvg(t, ds, seed, matches, 320)
		intervals = append(intervals, statcheck.IntervalAround(snap.Value, snap.HalfWidth))
	}
	statcheck.Coverage(t, "failover-ci", truth, intervals, 0.95, 0.03, statcheck.DefaultAlpha)
}

// TestStatFailoverUnbiasedMean: the mean of independent failed-over AVG
// estimates equals the full-population truth up to sampling noise — the
// replica kill introduces no bias toward or away from the records that
// were in flight on the dead copy.
func TestStatFailoverUnbiasedMean(t *testing.T) {
	ds, truth, matches := statFixture(t)
	seeds := statcheck.Seeds(23, 150)
	values := make([]float64, 0, len(seeds))
	for _, seed := range seeds {
		values = append(values, failedOverAvg(t, ds, seed, matches, 256).Value)
	}
	// Zero slack: WOR uniformity across the failover is claimed exact.
	statcheck.MeanWithin(t, "failover-mean", truth, values, 0, statcheck.DefaultAlpha)
}

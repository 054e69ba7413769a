package distr_test

import (
	"strings"
	"testing"
	"time"

	"storm/internal/data"
	"storm/internal/distr"
	"storm/internal/distr/distrtest"
	"storm/internal/obs"
	"storm/internal/sampling/samplingtest"
	"storm/internal/stats"
	"storm/internal/stats/statcheck"
)

// TestNilAndEmptyPlansAreByteIdentical pins the regression contract: a
// cluster with no fault plan, one with an empty plan, one whose plan only
// injects recoverable transient faults, and one whose every crash
// recovers within the retry budget all emit the byte-identical batched
// sample stream — and the healthy and recovering clusters agree on a
// single wide pull too. Recoverable faults are retried against the same
// deterministic shard stream, so recovery reproduces the same data.
func TestNilAndEmptyPlansAreByteIdentical(t *testing.T) {
	ds := distrtest.Dataset(6000)
	q := distrtest.Query()
	build := func(plan *distr.FaultPlan) *distr.Cluster {
		return distrtest.Build(t, ds, distrtest.FastConfig(5, 7, plan))
	}
	recovering := &distr.FaultPlan{Shards: map[int]distr.ShardFaultPlan{
		1: {Crash: true, CrashAfterFetches: 0, RecoverAfter: 2},
		3: {Crash: true, CrashAfterFetches: 1, RecoverAfter: 1},
	}}

	base := distrtest.DrainBatched(build(nil).Sampler(q, stats.NewRNG(1)), []int{64})
	empty := distrtest.DrainBatched(build(&distr.FaultPlan{}).Sampler(q, stats.NewRNG(1)), []int{64})
	transient := distrtest.DrainBatched(build(&distr.FaultPlan{
		Shards: map[int]distr.ShardFaultPlan{distr.ShardAll: {TransientEvery: 3}},
	}).Sampler(q, stats.NewRNG(1)), []int{64})
	recCluster := build(recovering)
	recovered := distrtest.DrainBatched(recCluster.Sampler(q, stats.NewRNG(1)), []int{64})
	distrtest.SameEntries(t, base, empty, "empty plan")
	distrtest.SameEntries(t, base, transient, "recovered transient plan")
	distrtest.SameEntries(t, base, recovered, "crash recovered within retry budget")
	if st := recCluster.FaultStats(); st.Crashes != 2 || st.Readmits != 2 || st.ShardsDown != 0 {
		t.Errorf("expected 2 crash→readmit cycles with no shards left down, got %+v", st)
	}

	// Crashes that recover inside the retry budget never degrade the query,
	// so one 300-sample pull — every shard's first fetch in the same round
	// — matches a fault-free run exactly.
	rec := build(recovering)
	wide := func(c *distr.Cluster) []data.Entry {
		buf := make([]data.Entry, 300)
		return buf[:c.Sampler(q, stats.NewRNG(1)).NextBatch(buf, len(buf))]
	}
	distrtest.SameEntries(t, wide(build(nil)), wide(rec), "300-sample pull, crash recovered within retry budget")
	if st := rec.FaultStats(); st.ShardsDown != 0 || st.Crashes != st.Readmits {
		t.Errorf("every crash should have recovered within its fetch retries, got %+v", st)
	}
}

// TestCrashMidQueryDegradesGracefully is the acceptance scenario: 2 of 8
// shards crash mid-query; the coordinator finishes without error, counts
// exactly two crashes under storm.distr.faults.*, re-weights onto the
// survivors, and reports the lost population through Degradation.
func TestCrashMidQueryDegradesGracefully(t *testing.T) {
	ds := distrtest.Dataset(8000)
	q := distrtest.Query()
	reg := obs.NewRegistry()
	plan := &distr.FaultPlan{Shards: map[int]distr.ShardFaultPlan{
		2: {Crash: true, CrashAfterFetches: 1},
		5: {Crash: true, CrashAfterFetches: 1},
	}}
	cfg := distrtest.FastConfig(8, 5, plan)
	cfg.Obs = reg
	c := distrtest.Build(t, ds, cfg)
	s := c.Sampler(q, stats.NewRNG(1))
	initial := c.Count(q)

	seen := make(map[data.ID]bool)
	buf := make([]data.Entry, 96)
	emitted := 0
	for {
		n := s.NextBatch(buf, len(buf))
		for _, e := range buf[:n] {
			if !q.Contains(e.Pos) {
				t.Fatalf("sample %d outside query", e.ID)
			}
			if seen[e.ID] {
				t.Fatalf("duplicate sample %d", e.ID)
			}
			seen[e.ID] = true
		}
		emitted += n
		if n < len(buf) {
			break
		}
	}

	st := c.FaultStats()
	if st.Crashes != 2 {
		t.Errorf("crashes = %d, want 2", st.Crashes)
	}
	if st.ShardsDown != 2 {
		t.Errorf("shards down = %d, want 2", st.ShardsDown)
	}
	deg := s.Status("")
	lost, lostPop := deg.ShardsLost, deg.LostPopulation
	if lost != 2 {
		t.Errorf("degradation reports %d lost shards, want 2", lost)
	}
	if lostPop <= 0 {
		t.Errorf("lost population = %d, want > 0", lostPop)
	}
	if emitted != initial-lostPop {
		t.Errorf("emitted %d samples, want initial %d - lost %d = %d",
			emitted, initial, lostPop, initial-lostPop)
	}
	// The same totals are visible on the metrics registry.
	snap := reg.Snapshot()
	if got := snap["storm.distr.faults.crashes"]; got != uint64(2) {
		t.Errorf("storm.distr.faults.crashes = %v, want 2", got)
	}
	if got := snap["storm.distr.faults.shards_down"]; got != int64(2) {
		t.Errorf("storm.distr.faults.shards_down = %v, want 2", got)
	}
}

// TestTransientFaultsRetryAndRecover checks the retry path bookkeeping:
// periodic transient faults are retried with backoff, every fetch
// eventually succeeds, and nothing is degraded.
func TestTransientFaultsRetryAndRecover(t *testing.T) {
	ds := distrtest.Dataset(4000)
	q := distrtest.Query()
	plan := &distr.FaultPlan{Shards: map[int]distr.ShardFaultPlan{distr.ShardAll: {TransientEvery: 4}}}
	c := distrtest.Build(t, ds, distrtest.FastConfig(4, 3, plan))
	s := c.Sampler(q, stats.NewRNG(1))
	got := distrtest.DrainBatched(s, []int{128})
	if len(got) != c.Count(q) {
		t.Fatalf("drained %d of %d", len(got), c.Count(q))
	}
	st := c.FaultStats()
	if st.Transient == 0 || st.Retries == 0 || st.Recoveries == 0 {
		t.Errorf("expected transient/retry/recovery activity, got %+v", st)
	}
	if lost := s.Status("").ShardsLost; st.Crashes != 0 || st.Exhausted != 0 || lost > 0 {
		t.Errorf("recoverable faults must not degrade: %+v, shards lost=%d", st, lost)
	}
	if st.Retries < st.Recoveries {
		t.Errorf("retries %d < recoveries %d", st.Retries, st.Recoveries)
	}
}

// TestRetryExhaustionDropsShard: a shard failing every attempt exhausts
// MaxRetries and is dropped from the query (query-local degradation) but
// is not counted as crashed — the shard server is still up.
func TestRetryExhaustionDropsShard(t *testing.T) {
	ds := distrtest.Dataset(4000)
	q := distrtest.Query()
	plan := &distr.FaultPlan{Shards: map[int]distr.ShardFaultPlan{1: {TransientEvery: 1}}}
	cfg := distrtest.FastConfig(4, 3, plan)
	cfg.MaxRetries = 2
	c := distrtest.Build(t, ds, cfg)
	s := c.Sampler(q, stats.NewRNG(1))
	emitted := len(distrtest.DrainBatched(s, []int{64}))
	st := c.FaultStats()
	if st.Exhausted == 0 {
		t.Error("expected exhausted fetches")
	}
	if st.Crashes != 0 || st.ShardsDown != 0 {
		t.Errorf("retry exhaustion must not count as a crash: %+v", st)
	}
	deg := s.Status("")
	lost, lostPop := deg.ShardsLost, deg.LostPopulation
	if lost != 1 || lostPop <= 0 {
		t.Errorf("degradation = (%d, %d), want shard 1 dropped", lost, lostPop)
	}
	if emitted != c.Count(q)-lostPop {
		t.Errorf("emitted %d, want %d", emitted, c.Count(q)-lostPop)
	}
}

// TestLatencyFaults: spikes below the per-fetch deadline delay the fetch
// but succeed (counted as latency injections); spikes at or beyond the
// deadline surface as timeouts and are retried.
func TestLatencyFaults(t *testing.T) {
	ds := distrtest.Dataset(3000)
	q := distrtest.Query()

	// Small spike: succeeds, stream byte-identical to a healthy run.
	slow := &distr.FaultPlan{Shards: map[int]distr.ShardFaultPlan{distr.ShardAll: {LatencyEvery: 2, Latency: 50 * time.Microsecond}}}
	a := distrtest.Build(t, ds, distrtest.FastConfig(3, 9, slow))
	b := distrtest.Build(t, ds, distrtest.FastConfig(3, 9, nil))
	distrtest.SameEntries(t, distrtest.DrainBatched(b.Sampler(q, stats.NewRNG(1)), []int{64}),
		distrtest.DrainBatched(a.Sampler(q, stats.NewRNG(1)), []int{64}), "latency plan")
	if st := a.FaultStats(); st.Latency == 0 || st.Timeouts != 0 {
		t.Errorf("expected pure latency injections, got %+v", st)
	}

	// Spike beyond the deadline: timeout, retried; the retry draws a fresh
	// verdict, so alternating spikes still finish the stream.
	deadline := &distr.FaultPlan{Shards: map[int]distr.ShardFaultPlan{distr.ShardAll: {LatencyEvery: 2, Latency: 10 * time.Millisecond}}}
	cfg := distrtest.FastConfig(3, 9, deadline)
	cfg.FetchTimeout = time.Millisecond
	d := distrtest.Build(t, ds, cfg)
	got := len(distrtest.DrainBatched(d.Sampler(q, stats.NewRNG(1)), []int{64}))
	if got != d.Count(q) {
		t.Fatalf("drained %d of %d", got, d.Count(q))
	}
	if st := d.FaultStats(); st.Timeouts == 0 || st.Retries == 0 {
		t.Errorf("expected timeout/retry activity, got %+v", st)
	}
}

// TestCrashedShardExcludedAfterwards: crashes are cluster state. A query
// that starts after the crash sees the surviving population from its count
// round on and is NOT degraded — nothing was lost mid-query.
func TestCrashedShardExcludedAfterwards(t *testing.T) {
	ds := distrtest.Dataset(6000)
	q := distrtest.Query()
	plan := &distr.FaultPlan{Shards: map[int]distr.ShardFaultPlan{0: {Crash: true, CrashAfterFetches: 0}}}
	c := distrtest.Build(t, ds, distrtest.FastConfig(4, 5, plan))
	before := c.Count(q)
	first := c.Sampler(q, stats.NewRNG(1))
	distrtest.DrainBatched(first, []int{64}) // triggers the crash mid-query
	if first.Status("").ShardsLost == 0 {
		t.Fatal("first query should be degraded")
	}
	lostPop := first.Status("").LostPopulation

	after := c.Count(q)
	if after != before-lostPop {
		t.Errorf("post-crash count = %d, want %d - %d", after, before, lostPop)
	}
	second := c.Sampler(q, stats.NewRNG(1))
	emitted := len(distrtest.DrainBatched(second, []int{64}))
	if second.Status("").ShardsLost > 0 {
		t.Error("a query started after the crash is not degraded")
	}
	if emitted != after {
		t.Errorf("second query drained %d, want surviving %d", emitted, after)
	}
}

// TestNetChargesOnlyContactedShards: a crashed shard is fenced off before the
// count and open rounds, so it is sent nothing and the simulated network
// charges two messages for each surviving shard only.
func TestNetChargesOnlyContactedShards(t *testing.T) {
	ds := distrtest.Dataset(6000)
	q := distrtest.Query()
	plan := &distr.FaultPlan{Shards: map[int]distr.ShardFaultPlan{0: {Crash: true, CrashAfterFetches: 0}}}
	c := distrtest.Build(t, ds, distrtest.FastConfig(4, 5, plan))
	distrtest.DrainBatched(c.Sampler(q, stats.NewRNG(1)), []int{64}) // triggers the crash
	if c.FaultStats().ShardsDown != 1 {
		t.Fatalf("fixture: %d shards down, want 1", c.FaultStats().ShardsDown)
	}
	c.ResetNet()
	c.Count(q)
	if got := c.Net().Messages; got != 6 {
		t.Errorf("count round over 3 live shards charged %d messages, want 6", got)
	}
	c.ResetNet()
	var one [1]data.Entry
	if c.Sampler(q, stats.NewRNG(1)).NextBatch(one[:], 1) != 1 {
		t.Fatal("no sample from the surviving shards")
	}
	if got := c.Net().Messages; got != 8 {
		t.Errorf("open round over 3 live shards plus one fetch charged %d messages, want 8", got)
	}
}

// TestStatDegradedFirstSampleUniform: after a crash the draw distribution
// re-weights onto the surviving shards. The first sample emitted after the
// crash must be uniform over the surviving matching records — a chi-square
// check over many independent seeds, run through the statcheck harness at
// its documented false-positive budget.
func TestStatDegradedFirstSampleUniform(t *testing.T) {
	ds := distrtest.Dataset(400)
	q := distrtest.Query()
	plan := &distr.FaultPlan{Shards: map[int]distr.ShardFaultPlan{1: {Crash: true, CrashAfterFetches: 0}}}
	ref := distrtest.Build(t, ds, distrtest.FastConfig(4, 1, plan))
	survivors := make(map[data.ID]bool)
	for i, sh := range ref.Shards() {
		if i == 1 {
			continue
		}
		for _, e := range sh.Index().Tree().ReportAll(q) {
			survivors[e.ID] = true
		}
	}
	nq := len(survivors)
	if nq < 20 {
		t.Fatalf("degenerate fixture q=%d", nq)
	}
	counts := make(map[data.ID]int)
	const trials = 6000
	for i := 0; i < trials; i++ {
		c := distrtest.Build(t, ds, distrtest.FastConfig(4, int64(i), plan))
		s := c.Sampler(q, stats.NewRNG(int64(i)))
		e, ok := samplingtest.Next(s)
		if !ok {
			t.Fatal("no sample")
		}
		if !survivors[e.ID] {
			t.Fatalf("sample %d came from the crashed shard", e.ID)
		}
		counts[e.ID]++
	}
	obsCounts := make([]int, 0, nq)
	for id := range survivors {
		obsCounts = append(obsCounts, counts[id])
	}
	statcheck.Uniform(t, "degraded-first-sample", obsCounts, statcheck.DefaultAlpha)
}

// TestFaultPlanDeterminism: the same plan seed replays the same injected
// fault sequence for an identical workload.
func TestFaultPlanDeterminism(t *testing.T) {
	ds := distrtest.Dataset(4000)
	q := distrtest.Query()
	mk := func() distr.FaultStats {
		plan := &distr.FaultPlan{
			Seed:   42,
			Shards: map[int]distr.ShardFaultPlan{distr.ShardAll: {TransientProb: 0.2, LatencyProb: 0.1, Latency: 10 * time.Microsecond}},
		}
		c := distrtest.Build(t, ds, distrtest.FastConfig(4, 9, plan))
		distrtest.DrainBatched(c.Sampler(q, stats.NewRNG(1)), []int{64})
		return c.FaultStats()
	}
	a, b := mk(), mk()
	if a != b {
		t.Errorf("fault stats diverge across identical runs:\n%+v\n%+v", a, b)
	}
	if a.Injected == 0 {
		t.Error("probabilistic plan injected nothing")
	}
}

// TestParseFaultPlan exercises the operator-facing plan syntax.
func TestParseFaultPlan(t *testing.T) {
	plan, err := distr.ParseFaultPlan("1:crash-after=40,recover-after=6;3-4:transient-every=7,latency=2ms;*:latency-p=0.05")
	if err != nil {
		t.Fatal(err)
	}
	if p := plan.Shards[1]; !p.Crash || p.CrashAfterFetches != 40 || p.RecoverAfter != 6 {
		t.Errorf("shard 1 plan = %+v", p)
	}
	for _, id := range []int{3, 4} {
		if p := plan.Shards[id]; p.TransientEvery != 7 || p.Latency != 2*time.Millisecond {
			t.Errorf("shard %d plan = %+v", id, p)
		}
	}
	if p := plan.Shards[distr.ShardAll]; p.LatencyProb != 0.05 {
		t.Errorf("wildcard plan = %+v", p)
	}
	// The wildcard fills shards without explicit entries; explicit entries win.
	if got := plan.PlanFor(7); got.LatencyProb != 0.05 {
		t.Errorf("PlanFor(7) = %+v", got)
	}
	if got := plan.PlanFor(1); !got.Crash || got.LatencyProb != 0 {
		t.Errorf("PlanFor(1) = %+v", got)
	}

	if p, err := distr.ParseFaultPlan("  "); err != nil || p != nil {
		t.Errorf("blank spec: plan=%v err=%v", p, err)
	}
	for _, bad := range []string{
		"nonsense",
		"1:bogus=3",
		"x:crash-after=1",
		"1:crash-after=-2",
		"1:recover-after=-1",
		"1:transient-p=1.5",
		"5-2:latency=1ms",
		"1:latency=xyz",
		"65536:crash-after=0",
		"0-888888815:crash-after=0",
	} {
		if _, err := distr.ParseFaultPlan(bad); err == nil {
			t.Errorf("spec %q should fail to parse", bad)
		}
	}
	// Shard IDs stop below the most shards a cluster can have; a range up to
	// that bound still parses.
	if _, err := distr.ParseFaultPlan("0-888888815:crash-after=0"); err == nil || !strings.Contains(err.Error(), "shard IDs must be below 65536") {
		t.Errorf("oversized range: err = %v, want the shard-ID bound", err)
	}
	if plan, err := distr.ParseFaultPlan("65530-65535:crash-after=0"); err != nil || len(plan.Shards) != 6 {
		t.Errorf("range at the bound: plan = %v, err = %v", plan, err)
	}
}

// TestFaultPlanString pins the canonical serialization: String emits a
// spec that parses back to an identical plan, and parsing any valid spec
// then re-serializing reaches a fixpoint (the property the fuzz target
// checks at scale).
func TestFaultPlanString(t *testing.T) {
	if s := (*distr.FaultPlan)(nil).String(); s != "" {
		t.Errorf("nil plan serializes to %q, want empty", s)
	}
	for _, spec := range []string{
		"1:crash-after=40,recover-after=6;3-4:transient-every=7,latency=2ms;*:latency-p=0.05",
		"*:transient-p=0.25",
		"0:crash-after=0;2:timeout-every=3",
	} {
		plan, err := distr.ParseFaultPlan(spec)
		if err != nil {
			t.Fatalf("parse %q: %v", spec, err)
		}
		canon := plan.String()
		replan, err := distr.ParseFaultPlan(canon)
		if err != nil {
			t.Fatalf("re-parse %q (from %q): %v", canon, spec, err)
		}
		if again := replan.String(); again != canon {
			t.Errorf("String not a fixpoint: %q -> %q -> %q", spec, canon, again)
		}
	}
}

// TestSharedRegistryAggregatesFaultTotals pins the multi-dataset server
// scenario: several clusters publish to one registry (stormd builds one
// cluster per sharded dataset). Registry.Publish overwrites duplicate
// names, so naive per-cluster Funcs would expose only the most recently
// built cluster; the scrape must instead sum across all of them — here a
// faulty cluster's crashes stay visible even though a healthy cluster was
// built afterwards.
func TestSharedRegistryAggregatesFaultTotals(t *testing.T) {
	ds := distrtest.Dataset(8000)
	q := distrtest.Query()
	reg := obs.NewRegistry()

	plan := &distr.FaultPlan{Shards: map[int]distr.ShardFaultPlan{
		2: {Crash: true, CrashAfterFetches: 1},
		5: {Crash: true, CrashAfterFetches: 1},
	}}
	cfg := distrtest.FastConfig(8, 5, plan)
	cfg.Obs = reg
	faulty := distrtest.Build(t, ds, cfg)

	healthyCfg := distrtest.FastConfig(4, 9, nil)
	healthyCfg.Obs = reg
	distrtest.Build(t, distrtest.Dataset(2000), healthyCfg)

	// Drive the faulty cluster past both crash thresholds.
	s := faulty.Sampler(q, stats.NewRNG(1))
	buf := make([]data.Entry, 96)
	for s.NextBatch(buf, len(buf)) == len(buf) {
	}
	if st := faulty.FaultStats(); st.Crashes != 2 {
		t.Fatalf("cluster crashes = %d, want 2", st.Crashes)
	}

	snap := reg.Snapshot()
	if got := snap["storm.distr.faults.crashes"]; got != uint64(2) {
		t.Errorf("registry crashes = %v, want 2 despite healthy cluster registering later", got)
	}
	if got := snap["storm.distr.faults.shards_down"]; got != int64(2) {
		t.Errorf("registry shards_down = %v, want 2", got)
	}
	if got := snap["storm.distr.shards"]; got != 12 {
		t.Errorf("registry shards = %v, want 12 (8 faulty + 4 healthy)", got)
	}
}

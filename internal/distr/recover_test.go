package distr_test

import (
	"testing"

	"storm/internal/data"
	"storm/internal/distr"
	"storm/internal/distr/distrtest"
	"storm/internal/geo"
	"storm/internal/obs"
	"storm/internal/pred"
	"storm/internal/sampling/samplingtest"
	"storm/internal/stats"
	"storm/internal/stats/statcheck"
)

// TestRecoveredShardResumesStream is the tentpole mechanics test: a shard
// crashes past the fetch retry budget (a genuine mid-query loss), comes
// back on its recover-after schedule, and is re-admitted by the same
// query — which then drains the FULL population exactly once, ending not
// degraded with the effective N restored.
func TestRecoveredShardResumesStream(t *testing.T) {
	ds := distrtest.Dataset(6000)
	q := distrtest.Query()
	plan := &distr.FaultPlan{Shards: map[int]distr.ShardFaultPlan{
		1: {Crash: true, CrashAfterFetches: 1, RecoverAfter: 4},
	}}
	c := distrtest.Build(t, ds, distrtest.FastConfig(4, 5, plan))
	initial := c.Count(q)
	s := c.Sampler(q, stats.NewRNG(1))

	sawDegraded := false
	seen := make(map[data.ID]bool)
	buf := make([]data.Entry, 48)
	emitted := 0
	for {
		n := s.NextBatch(buf, len(buf))
		for _, e := range buf[:n] {
			if seen[e.ID] {
				t.Fatalf("duplicate sample %d", e.ID)
			}
			seen[e.ID] = true
		}
		emitted += n
		if st := s.Status(""); st.ShardsLost > 0 {
			sawDegraded = true
			if st.ShardsLost != 1 || st.LostPopulation <= 0 {
				t.Fatalf("mid-query degradation = (%d, %d), want shard 1 written off", st.ShardsLost, st.LostPopulation)
			}
		}
		if n < len(buf) {
			break
		}
	}

	final := s.Status("")
	if final.ShardsLost > 0 {
		t.Fatal("query should have re-admitted the recovered shard")
	}
	if final.Readmits != 1 {
		t.Errorf("readmits = %d, want 1", final.Readmits)
	}
	if final.LostPopulation != 0 {
		t.Errorf("lost population after rejoin = %d, want 0", final.LostPopulation)
	}
	if emitted != initial {
		t.Errorf("drained %d samples, want the full pre-crash population %d", emitted, initial)
	}
	st := c.FaultStats()
	if st.Crashes != 1 || st.Readmits != 1 || st.ShardsDown != 0 {
		t.Errorf("fault stats = %+v, want one crash→readmit cycle, no shards down", st)
	}
	// sawDegraded is advisory: with RecoverAfter=4 the loss and rejoin can
	// complete inside one NextBatch call, but the crash itself must have
	// genuinely written the shard off (crashes=1 above proves it).
	_ = sawDegraded
}

// TestRecoveredShardRestoresClusterState: recovery is cluster state, not
// query state. After a crash, coordinator contacts (count rounds) advance
// the recovery clock; once the shard rejoins, Count sees the full
// population again, shards_down drops back to zero, and the readmit is
// visible on the metrics registry.
func TestRecoveredShardRestoresClusterState(t *testing.T) {
	ds := distrtest.Dataset(6000)
	q := distrtest.Query()
	reg := obs.NewRegistry()
	plan := &distr.FaultPlan{Shards: map[int]distr.ShardFaultPlan{
		2: {Crash: true, CrashAfterFetches: 0, RecoverAfter: 3},
	}}
	cfg := distrtest.FastConfig(4, 5, plan)
	cfg.MaxRetries = -1 // no retries: the crash is lost immediately
	cfg.Obs = reg
	c := distrtest.Build(t, ds, cfg)
	full := c.Count(q)

	// Trigger the crash: the shard dies on its first fetch.
	s := c.Sampler(q, stats.NewRNG(1))
	buf := make([]data.Entry, 64)
	for i := 0; i < 50 && s.Status("").ShardsLost == 0; i++ {
		if s.NextBatch(buf, len(buf)) == 0 {
			break
		}
	}
	if s.Status("").ShardsLost == 0 {
		t.Fatal("crash never triggered")
	}
	if st := c.FaultStats(); st.Crashes != 1 || st.ShardsDown != 1 {
		t.Fatalf("fault stats after crash = %+v", st)
	}
	if down := c.Count(q); down >= full {
		t.Fatalf("degraded count = %d, want < full %d", down, full)
	}

	// Each count round observes the down shard once; within RecoverAfter
	// observations the shard rejoins and the full population is back.
	after := 0
	for i := 0; i < 10; i++ {
		if after = c.Count(q); after == full {
			break
		}
	}
	if after != full {
		t.Fatalf("count never recovered: %d, want %d", after, full)
	}
	st := c.FaultStats()
	if st.Readmits != 1 || st.ShardsDown != 0 {
		t.Errorf("fault stats after recovery = %+v, want readmits=1, shards_down=0", st)
	}
	snap := reg.Snapshot()
	if got := snap["storm.distr.faults.readmits"]; got != uint64(1) {
		t.Errorf("storm.distr.faults.readmits = %v, want 1", got)
	}
	if got := snap["storm.distr.faults.shards_down"]; got != int64(0) {
		t.Errorf("storm.distr.faults.shards_down = %v, want 0", got)
	}

	// One-shot cycle: a fresh query over the recovered cluster is healthy.
	fresh := c.Sampler(q, stats.NewRNG(1))
	if got, lost := len(distrtest.DrainBatched(fresh, []int{64})), fresh.Status("").ShardsLost; got != full || lost > 0 {
		t.Errorf("post-recovery query drained %d (shards lost=%d), want healthy %d", got, lost, full)
	}
}

// TestShardSummariesExact pins the coordinator's per-shard envelopes:
// after Build they hold exactly the min and max of each shard's values,
// Insert widens the envelope of the shard it routes to, and Delete leaves
// every envelope as it was (a deletion would need a rescan to shrink one,
// and a wider envelope is still a sound bound).
func TestShardSummariesExact(t *testing.T) {
	ds := distrtest.Dataset(4000)
	c := distrtest.Build(t, ds, distrtest.FastConfig(4, 5, nil))
	col, err := ds.NumericColumn("value")
	if err != nil {
		t.Fatal(err)
	}
	everything := geo.NewRect(geo.Vec{-1, -1, -1}, geo.Vec{101, 101, 101})
	envelopes := func() []pred.AttrStats {
		out := make([]pred.AttrStats, c.NumShards())
		for i := range out {
			env, ok := c.ShardSummary(i, "value")
			if !ok {
				t.Fatalf("shard %d has no envelope for value", i)
			}
			out[i] = env
		}
		return out
	}
	built := envelopes()
	for i, sh := range c.Shards() {
		want := pred.EmptyStats()
		for _, e := range sh.Index().Tree().ReportAll(everything) {
			want.Add(col[e.ID])
		}
		if built[i] != want {
			t.Errorf("shard %d envelope = %+v, want %+v", i, built[i], want)
		}
	}

	// Insert a record with an out-of-range value: exactly one shard's
	// envelope widens to cover it.
	id := ds.AppendFast(geo.Vec{50, 50, 50})
	ds.SetNumeric("value", id, 1e6)
	e := data.Entry{ID: id, Pos: geo.Vec{50, 50, 50}}
	c.Insert(e)
	inserted := envelopes()
	widened := 0
	for i, env := range inserted {
		switch {
		case env == built[i]:
		case env.Max == 1e6 && env.Min == built[i].Min && !env.HasNaN:
			widened++
		default:
			t.Errorf("after insert: shard %d envelope %+v, was %+v", i, env, built[i])
		}
	}
	if widened != 1 {
		t.Errorf("after insert: %d envelopes widened to 1e6, want 1", widened)
	}

	// Delete it again: every envelope stays as the insert left it.
	if !c.Delete(e) {
		t.Fatal("delete failed")
	}
	for i, env := range envelopes() {
		if env != inserted[i] {
			t.Errorf("after delete: shard %d envelope %+v, want the widened %+v", i, env, inserted[i])
		}
	}

	if _, ok := c.ShardSummary(99, "value"); ok {
		t.Error("out-of-range shard should have no envelope")
	}
	if _, ok := c.ShardSummary(0, "no-such-attr"); ok {
		t.Error("unknown attribute should have no envelope")
	}
}

// TestBuildIsOneRoundTripPerCopy pins the build and insert traffic: the
// envelope and box ride on each copy's BuildOK, so a 4-shard cluster at
// R=2 has exchanged exactly one request and one response per copy when
// Build returns; the coordinator then routes each insert from its own
// boxes, so an insert costs one Insert/InsertOK per copy of the shard it
// lands on and nothing else.
func TestBuildIsOneRoundTripPerCopy(t *testing.T) {
	ds := distrtest.Dataset(4000)
	c := distrtest.Build(t, ds, distrtest.FastConfig(4, 5, nil, 2))
	if got := c.Net().Messages; got != 16 {
		t.Errorf("Build exchanged %d messages, want 16 (4 shards x 2 copies x Build/BuildOK)", got)
	}
	for i := 0; i < 10; i++ {
		before := c.Net().Messages
		id := ds.Append(data.Row{Pos: geo.Vec{7 + 9*float64(i), 93 - 9*float64(i), 50}, Num: map[string]float64{"value": 1}})
		c.Insert(ds.Entry(id))
		if got := c.Net().Messages - before; got != 4 {
			t.Fatalf("insert %d exchanged %d messages, want 4 (2 copies x Insert/InsertOK)", i, got)
		}
	}
}

// TestSamplerLostMassBounds pins the query-side bound assembly: a degraded
// query exposes [lo, hi] bounds on its lost population's values from the
// coordinator envelopes; healthy queries and unknown attributes do not.
func TestSamplerLostMassBounds(t *testing.T) {
	ds := distrtest.Dataset(6000)
	q := distrtest.Query()
	plan := &distr.FaultPlan{Shards: map[int]distr.ShardFaultPlan{
		2: {Crash: true, CrashAfterFetches: 0},
	}}
	cfg := distrtest.FastConfig(4, 5, plan)
	cfg.MaxRetries = -1
	c := distrtest.Build(t, ds, cfg)

	healthy := c.Sampler(q, stats.NewRNG(1))
	if _, _, _, ok := healthy.LostMassBounds("value"); ok {
		t.Error("healthy query should expose no lost-mass bounds")
	}

	s := c.Sampler(q, stats.NewRNG(1))
	buf := make([]data.Entry, 64)
	for i := 0; i < 50 && s.Status("").ShardsLost == 0; i++ {
		if s.NextBatch(buf, len(buf)) == 0 {
			break
		}
	}
	if s.Status("").ShardsLost == 0 {
		t.Fatal("crash never triggered")
	}
	lo, hi, lostN, ok := s.LostMassBounds("value")
	if !ok {
		t.Fatal("degraded query should expose lost-mass bounds for a summarized attribute")
	}
	lostPop := s.Status("").LostPopulation
	if lostN != lostPop {
		t.Errorf("bounds report %d lost records, degradation reports %d", lostN, lostPop)
	}
	env, _ := c.ShardSummary(2, "value")
	if lo != env.Min || hi != env.Max {
		t.Errorf("bounds [%v, %v], want the lost shard's envelope [%v, %v]", lo, hi, env.Min, env.Max)
	}
	if _, _, _, ok := s.LostMassBounds("no-such-attr"); ok {
		t.Error("unknown attribute should have no bounds")
	}
}

// TestStatPostRejoinFirstSampleUniform: after a full crash→recover cycle,
// a NEW query's first sample must be uniform over the FULL matching
// population — the rejoined shard's records are neither starved nor
// favored. Chi-square over many independent cluster seeds through the
// statcheck harness.
func TestStatPostRejoinFirstSampleUniform(t *testing.T) {
	ds := distrtest.Dataset(400)
	q := distrtest.Query()
	all := make(map[data.ID]bool)
	for i := 0; i < ds.Len(); i++ {
		if q.Contains(ds.Pos(uint64(i))) {
			all[uint64(i)] = true
		}
	}
	nq := len(all)
	if nq < 20 {
		t.Fatalf("degenerate fixture q=%d", nq)
	}
	plan := &distr.FaultPlan{Shards: map[int]distr.ShardFaultPlan{
		1: {Crash: true, CrashAfterFetches: 0, RecoverAfter: 2},
	}}
	counts := make(map[data.ID]int)
	const trials = 6000
	for i := 0; i < trials; i++ {
		cfg := distrtest.FastConfig(4, int64(i), plan)
		cfg.MaxRetries = -1
		c := distrtest.Build(t, ds, cfg)
		// First query: trigger the crash (shard 1 dies on its first fetch).
		first := c.Sampler(q, stats.NewRNG(stats.MixSeed(int64(i))))
		first.NextBatch(make([]data.Entry, 64), 64)
		if st := first.Status(""); st.ShardsLost == 0 && st.Readmits == 0 {
			t.Fatalf("trial %d: crash never triggered", i)
		}
		// Count rounds double as liveness probes until the shard rejoins.
		recovered := false
		for j := 0; j < 10; j++ {
			c.Count(q)
			if st := c.FaultStats(); st.ShardsDown == 0 {
				recovered = true
				break
			}
		}
		if !recovered {
			t.Fatalf("trial %d: shard never rejoined", i)
		}
		// Second query: first sample over the recovered full population.
		e, ok := samplingtest.Next(c.Sampler(q, stats.NewRNG(int64(i))))
		if !ok {
			t.Fatalf("trial %d: no sample", i)
		}
		if !all[e.ID] {
			t.Fatalf("trial %d: sample %d outside query", i, e.ID)
		}
		counts[e.ID]++
	}
	obsCounts := make([]int, 0, nq)
	for id := range all {
		obsCounts = append(obsCounts, counts[id])
	}
	statcheck.Uniform(t, "post-rejoin-first-sample", obsCounts, statcheck.DefaultAlpha)
}

package distr_test

// The replication/failover test suite (DESIGN.md §4.8). Mechanics tests
// pin the exact-stream invariants — a failed-over drain still delivers
// every matching record exactly once, replica 0 reproduces the
// pre-replication stream byte for byte, plain fault plans keep their
// all-copies semantics — and the TestStatFailover* checks are the
// statistical acceptance at this layer: post-failover streams stay
// exactly uniform WOR over the FULL population. What that buys the
// answer (nominal CI coverage with zero lost-mass widening, an unbiased
// mean across the kill) is checked where answers are made, in
// internal/engine's TestStatFailover* suites. All run under
// `make test-stats` with -race.

import (
	"testing"

	"storm/internal/data"
	"storm/internal/distr"
	"storm/internal/distr/distrtest"
	"storm/internal/gen"
	"storm/internal/geo"
	"storm/internal/sampling/samplingtest"
	"storm/internal/stats"
	"storm/internal/stats/statcheck"
)

// killReplica returns a plan crashing one copy of one shard after the
// given number of fetches — the canonical failover scenario. A plain
// shard target would crash every copy (see FaultPlan); scripting the
// single replica is what leaves a survivor to fail over to.
func killReplica(shard, replica, afterFetches int) *distr.FaultPlan {
	return &distr.FaultPlan{Replicas: map[distr.ReplicaTarget]distr.ShardFaultPlan{
		{Shard: shard, Replica: replica}: {Crash: true, CrashAfterFetches: afterFetches},
	}}
}

// TestFailoverFullDrainIntact is the tentpole mechanics test: at R=2,
// killing the serving copy of a shard mid-stream moves the remainder
// onto the survivor and the drain still delivers the FULL matching
// population exactly once — no duplicates, no losses, no degradation.
func TestFailoverFullDrainIntact(t *testing.T) {
	ds := distrtest.Dataset(6000)
	q := distrtest.Query()
	cfg := distrtest.FastConfig(4, 5, killReplica(1, 0, 1), 2)
	cfg.MaxRetries = -1
	c := distrtest.Build(t, ds, cfg)
	full := c.Count(q)

	s := c.Sampler(q, stats.NewRNG(1))
	seen := make(map[data.ID]bool)
	for _, e := range distrtest.DrainBatched(s, []int{48}) {
		if seen[e.ID] {
			t.Fatalf("duplicate sample %d across the failover", e.ID)
		}
		seen[e.ID] = true
	}
	if len(seen) != full {
		t.Errorf("drained %d samples, want the full population %d", len(seen), full)
	}
	st := s.Status("")
	if st.ShardsLost > 0 {
		t.Error("failover must not degrade the query: a copy survived")
	}
	if st.Failovers == 0 {
		t.Fatal("replica kill never triggered a failover")
	}
	if st.LostPopulation != 0 {
		t.Errorf("lost population = %d, want 0 (no mass is lost on failover)", st.LostPopulation)
	}
	if _, _, _, ok := s.LostMassBounds("value"); ok {
		t.Error("failed-over query must expose no lost-mass bounds (nothing was lost)")
	}
	if rs := c.ReplicaStats(); rs.Failovers == 0 {
		t.Errorf("cluster replica stats = %+v, want failovers counted", rs)
	}
}

// TestFailoverMatchesSingleCopyStream pins backward compatibility: with
// no faults, an R=2 cluster serves every query from replica 0 and the
// sample stream is byte-identical to the R=1 cluster under the same
// seed — replication is invisible until a copy dies.
func TestFailoverMatchesSingleCopyStream(t *testing.T) {
	ds := distrtest.Dataset(5000)
	q := distrtest.Query()
	sizes := []int{1, 7, 32, 3}
	single := distrtest.Build(t, ds, distrtest.FastConfig(4, 9, nil))
	double := distrtest.Build(t, ds, distrtest.FastConfig(4, 9, nil, 2))
	want := distrtest.DrainBatched(single.Sampler(q, stats.NewRNG(1)), sizes)
	got := distrtest.DrainBatched(double.Sampler(q, stats.NewRNG(1)), sizes)
	distrtest.SameEntries(t, want, got, "R=1 vs R=2 healthy stream")
}

// TestFailoverPlainPlanStillDegrades pins the fault-plan semantics the
// earlier suites rely on: a PLAIN shard target scripts every copy of the
// shard independently, so a plain crash at R=2 takes down both copies
// and the query genuinely degrades — replication does not quietly
// reinterpret existing plans as single-copy kills.
func TestFailoverPlainPlanStillDegrades(t *testing.T) {
	ds := distrtest.Dataset(6000)
	q := distrtest.Query()
	plan := &distr.FaultPlan{Shards: map[int]distr.ShardFaultPlan{
		1: {Crash: true, CrashAfterFetches: 0},
	}}
	cfg := distrtest.FastConfig(4, 5, plan, 2)
	cfg.MaxRetries = -1
	c := distrtest.Build(t, ds, cfg)

	s := c.Sampler(q, stats.NewRNG(1))
	buf := make([]data.Entry, 64)
	for i := 0; i < 50 && s.Status("").ShardsLost == 0; i++ {
		if s.NextBatch(buf, len(buf)) == 0 {
			break
		}
	}
	if s.Status("").ShardsLost == 0 {
		t.Fatal("plain crash plan at R=2 should take down every copy and degrade")
	}
	if st := s.Status(""); st.ShardsLost != 1 || st.LostPopulation <= 0 {
		t.Errorf("degradation = (%d, %d), want shard 1 fully written off", st.ShardsLost, st.LostPopulation)
	}
}

// TestFailoverShardStatusReplicaLiveness is the placement/observability
// regression: ShardStatus reports per-replica liveness (one copy down,
// the shard itself still up), and polling it is a coordinator
// observation that advances every down replica's recovery clock — the
// /shards endpoint heals the cluster just by being watched.
func TestFailoverShardStatusReplicaLiveness(t *testing.T) {
	ds := distrtest.Dataset(6000)
	q := distrtest.Query()
	plan := &distr.FaultPlan{Replicas: map[distr.ReplicaTarget]distr.ShardFaultPlan{
		{Shard: 1, Replica: 0}: {Crash: true, CrashAfterFetches: 0, RecoverAfter: 3},
	}}
	cfg := distrtest.FastConfig(4, 5, plan, 2)
	cfg.MaxRetries = -1
	c := distrtest.Build(t, ds, cfg)

	// Trigger the crash: shard 1's serving copy dies on its first fetch
	// and the stream fails over.
	s := c.Sampler(q, stats.NewRNG(1))
	distrtest.DrainBatched(s, []int{64})
	if s.Status("").Failovers == 0 {
		t.Fatal("replica kill never triggered a failover")
	}

	st := c.ShardStatus()
	if len(st) != 4 {
		t.Fatalf("ShardStatus lists %d shards, want 4", len(st))
	}
	for i, sh := range st {
		if len(sh.Replicas) != 2 {
			t.Fatalf("shard %d has %d replica statuses, want 2: %+v", i, len(sh.Replicas), sh)
		}
		if sh.Down {
			t.Errorf("shard %d marked down with a live copy: %+v", i, sh)
		}
	}
	if !st[1].Replicas[0].Down {
		t.Fatalf("shard 1 replica 0 not marked down after its crash: %+v", st[1])
	}
	if st[1].Replicas[1].Down {
		t.Fatalf("shard 1 replica 1 (the survivor) marked down: %+v", st[1])
	}

	// Each ShardStatus poll observes the down replica once; within
	// RecoverAfter polls it rejoins.
	recovered := false
	for i := 0; i < 10 && !recovered; i++ {
		st = c.ShardStatus()
		recovered = !st[1].Replicas[0].Down
	}
	if !recovered {
		t.Fatal("replica 0 never rejoined: status polls must advance the recovery clock")
	}
}

// TestFailoverByteIdenticalTCP: the same replica kill produces the SAME
// sample stream over the loopback transport and over real TCP sockets.
// Failover verdicts are observation-count-based, never wall-clock-based,
// so the transport cannot leak into the stream (the property every
// deterministic-replay suite in this package leans on).
func TestFailoverByteIdenticalTCP(t *testing.T) {
	ds := distrtest.Dataset(4000)
	q := distrtest.Query()
	cfg := distrtest.FastConfig(4, 9, killReplica(1, 0, 1), 2)
	cfg.MaxRetries = -1
	sizes := []int{1, 7, 32, 3}

	local := distrtest.Build(t, ds, cfg)
	remote := distrtest.BuildTCP(t, ds, cfg, 4)

	ls := local.Sampler(q, stats.NewRNG(1))
	rs := remote.Sampler(q, stats.NewRNG(1))
	want := distrtest.DrainBatched(ls, sizes)
	got := distrtest.DrainBatched(rs, sizes)
	distrtest.SameEntries(t, want, got, "loopback vs TCP failover stream")
	lst, rst := ls.Status(""), rs.Status("")
	if lst.Failovers == 0 || rst.Failovers == 0 {
		t.Fatalf("failovers = %d (loopback), %d (TCP), want both > 0", lst.Failovers, rst.Failovers)
	}
	if lst.ShardsLost > 0 || rst.ShardsLost > 0 {
		t.Errorf("shards lost = %d/%d, want neither (a copy survived)", lst.ShardsLost, rst.ShardsLost)
	}
}

// TestStatFailoverFirstSampleUniform: a query whose serving copy of one
// shard dies on its very first fetch must still deliver a FIRST sample
// uniform over the full matching population — failover re-opens the
// remainder on the survivor with the emitted set excluded, which
// preserves the inclusion distribution exactly. Chi-square over many
// independently seeded clusters.
func TestStatFailoverFirstSampleUniform(t *testing.T) {
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
	counts := make(map[data.ID]int)
	const trials = 6000
	for i := 0; i < trials; i++ {
		cfg := distrtest.FastConfig(4, int64(i), killReplica(1, 0, 0), 2)
		cfg.MaxRetries = -1
		c := distrtest.Build(t, ds, cfg)
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
	statcheck.Uniform(t, "failover-first-sample", obsCounts, statcheck.DefaultAlpha)
}

// TestStatFailoverWindowedChurnUniform exercises the ingest-drain +
// failover interaction in one trial: a `LAST <dur>`-style windowed query
// whose serving replica dies mid-drain, with churn (mirrored inserts)
// arriving while the stream is open. The window was resolved once, at
// query start, so the new arrivals — their event times land past the
// window's Hi anchor, the streaming steady state — stay outside the
// running query even when a failover re-opens its remainder on the
// surviving copy. The stream must finish exactly uniform over the
// records the window matched at open, and a later, wider-window query
// must see the mirrored churn on the failed-over placement. (Records
// backfilled INTO a resolved window mid-query are a distr-layer
// visibility question the engine never poses: inserts serialize against
// running queries under the handle's write lock.)
func TestStatFailoverWindowedChurnUniform(t *testing.T) {
	// The query rectangle narrowed to the resolved windows [65, 90] and
	// [65, 100], as the coordinator sends them.
	win, wider := distrtest.Query(), distrtest.Query()
	win.Min[2], win.Max[2] = 65, 90
	wider.Min[2] = 65
	base := distrtest.Dataset(800)
	all := make(map[data.ID]bool)
	widerN := 0
	for i := 0; i < base.Len(); i++ {
		p := base.Pos(uint64(i))
		if win.Contains(p) {
			all[uint64(i)] = true
		}
		if wider.Contains(p) {
			widerN++
		}
	}
	nq := len(all)
	if nq < 20 {
		t.Fatalf("degenerate fixture: %d windowed matches", nq)
	}

	counts := make(map[data.ID]int)
	const trials = 3000
	for i := 0; i < trials; i++ {
		// Fresh fixture per trial: churn mutates it. The generator seed is
		// fixed, so every trial's PRE-churn window population is identical
		// and first-sample counts accumulate over one shared support.
		ds := distrtest.Dataset(800)
		cfg := distrtest.FastConfig(4, int64(i), killReplica(1, 0, 0), 2)
		cfg.MaxRetries = -1
		c := distrtest.Build(t, ds, cfg)

		s := c.Sampler(win, stats.NewRNG(int64(i)))
		first, ok := samplingtest.Next(s)
		if !ok {
			t.Fatalf("trial %d: no sample", i)
		}
		if !all[first.ID] {
			t.Fatalf("trial %d: first sample %d outside the window population", i, first.ID)
		}
		counts[first.ID]++

		// Churn mid-drain: two new arrivals past the window's Hi anchor
		// (inside the query rect — they mirror to both copies of their
		// shards) and one stale record from before the window.
		arrivals := 0
		for _, pos := range []geo.Vec{{30, 30, 95}, {50, 40, 95}, {30, 30, 10}} {
			id := ds.AppendFast(pos)
			ds.SetNumeric("value", id, 1.0)
			c.Insert(data.Entry{ID: id, Pos: pos})
			if pos[2] > win.Max[2] {
				arrivals++
			}
		}

		// The open stream finishes over its open-time window population
		// exactly: no duplicates, no churn leakage across the failover
		// reopen, no degradation.
		seen := map[data.ID]bool{first.ID: true}
		for _, e := range distrtest.DrainBatched(s, []int{32}) {
			if seen[e.ID] {
				t.Fatalf("trial %d: duplicate sample %d", i, e.ID)
			}
			if !all[e.ID] {
				t.Fatalf("trial %d: sample %d joined a running stream (churn leak)", i, e.ID)
			}
			seen[e.ID] = true
		}
		if len(seen) != nq {
			t.Fatalf("trial %d: drained %d, want the open-time window population %d", i, len(seen), nq)
		}
		if s.Status("").ShardsLost > 0 {
			t.Fatalf("trial %d: windowed drain degraded across the replica kill", i)
		}

		// A fresh query whose window covers the arrivals sees the churn:
		// the base wider-window population plus the mirrored inserts,
		// served across the failed-over placement.
		fresh := c.Sampler(wider, stats.NewRNG(stats.MixSeed(int64(i))))
		if got := len(distrtest.DrainBatched(fresh, []int{32})); got != widerN+arrivals {
			t.Fatalf("trial %d: post-churn drain = %d, want %d", i, got, widerN+arrivals)
		}
	}
	obsCounts := make([]int, 0, nq)
	for id := range all {
		obsCounts = append(obsCounts, counts[id])
	}
	statcheck.Uniform(t, "failover-windowed-first-sample", obsCounts, statcheck.DefaultAlpha)
}

// TestFailoverThreeReplicasSurvivesDoubleKill: at R=3, losing two copies
// of the same shard in sequence still fails over (twice) rather than
// degrading — the failover budget is len(replicas)-1 per fetch, so the
// query walks the whole replica ring before writing anything off.
func TestFailoverThreeReplicasSurvivesDoubleKill(t *testing.T) {
	ds := distrtest.Dataset(6000)
	q := distrtest.Query()
	plan := &distr.FaultPlan{Replicas: map[distr.ReplicaTarget]distr.ShardFaultPlan{
		{Shard: 1, Replica: 0}: {Crash: true, CrashAfterFetches: 1},
		{Shard: 1, Replica: 1}: {Crash: true, CrashAfterFetches: 2},
	}}
	cfg := distrtest.FastConfig(4, 5, plan, 3)
	cfg.MaxRetries = -1
	c := distrtest.Build(t, ds, cfg)
	full := c.Count(q)

	s := c.Sampler(q, stats.NewRNG(1))
	got := len(distrtest.DrainBatched(s, []int{48}))
	if got != full {
		t.Errorf("drained %d, want the full population %d", got, full)
	}
	st := s.Status("")
	if st.ShardsLost > 0 {
		t.Error("double replica kill at R=3 must not degrade: a copy survived")
	}
	if st.Failovers < 2 {
		t.Errorf("failovers = %d, want >= 2 (two copies died in sequence)", st.Failovers)
	}
}

// TestFailoverReplicaPlacementDistinctHosts pins the placement
// invariant failover correctness rests on: every shard's replica set
// lands on DISTINCT hosts (or as many as exist), so one host death
// cannot take out a whole replica set while others remain.
func TestFailoverReplicaPlacementDistinctHosts(t *testing.T) {
	ds := gen.Uniform(2000, 11, geo.Range{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100, MinT: 0, MaxT: 100})
	c := distrtest.BuildTCP(t, ds, distrtest.FastConfig(8, 5, nil, 2), 4)
	for _, sh := range c.ShardStatus() {
		if len(sh.Replicas) != 2 {
			t.Fatalf("shard %d has %d replicas, want 2: %+v", sh.Shard, len(sh.Replicas), sh)
		}
		if sh.Replicas[0].Addr == sh.Replicas[1].Addr {
			t.Errorf("shard %d replicas share host %s", sh.Shard, sh.Replicas[0].Addr)
		}
	}
}

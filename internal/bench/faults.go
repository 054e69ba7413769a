package bench

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"storm/internal/data"
	"storm/internal/distr"
	"storm/internal/engine"
	"storm/internal/estimator"
	"storm/internal/geo"
)

// faultResult is one scenario of the fault ablations (A7, A8, A13): the
// final snapshot of the one query it ran, plus what the tables print beside
// it.
type faultResult struct {
	engine.Snapshot
	// HealthyPop is the matching count before any fault fired.
	HealthyPop int
	WallMS     float64
	// Cluster is the scenario's own shard cluster, for the fault and
	// replication counters the run left behind.
	Cluster *distr.Cluster
}

// faultRun registers ds as a sharded dataset under the fault plan and runs
// one k-sample AVG(altitude) over q through engine.Handle.Estimate — the
// path stormd serves, so population re-targeting, lost-mass bounds and the
// degraded / recovered / failed-over stamps are the product's own.
func faultRun(ds *data.Dataset, q geo.Range, shards, replicas, k int, seed int64, plan *distr.FaultPlan) (faultResult, error) {
	eng := engine.New(engine.Config{Seed: seed, Obs: Obs, NoMetrics: Obs == nil})
	h, err := eng.Register(ds, engine.IndexOptions{Shards: shards, Replicas: replicas, Faults: plan})
	if err != nil {
		return faultResult{}, err
	}
	defer eng.Unregister(ds.Name())
	res := faultResult{Cluster: h.Cluster(), HealthyPop: h.Cluster().Count(q.Rect())}
	start := time.Now()
	res.Snapshot, err = h.Estimate(context.Background(), q, engine.Options{
		Kind: estimator.Avg, Attr: "altitude", MaxSamples: k, Method: engine.MethodDistributed,
	})
	res.WallMS = float64(time.Since(start).Microseconds()) / 1000
	return res, err
}

// hottestShards ranks the cluster's shards that hold records matching q
// by how many they hold, most first; shards holding none are left out. With
// shards cut from one STR order a selective query concentrates on few
// shards, so killing spatially irrelevant ones would measure nothing (the
// query never fetches from them, so a crash-after-n fault never fires);
// the cut depends only on the dataset, the fanout and the shard count, so
// the healthy run's ranking holds for every run beside it.
func hottestShards(c *distr.Cluster, q geo.Range) []int {
	rect := q.Rect()
	var order []int
	matching := make([]int, c.NumShards())
	for i, sh := range c.Shards() {
		if matching[i] = sh.Index().Count(rect); matching[i] > 0 {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return matching[order[a]] > matching[order[b]] })
	return order
}

// crashPlan scripts a mid-query crash of every copy of each given shard
// after it has served crashAfter fetches; recoverAfter > 0 brings it back
// after that many coordinator observations.
func crashPlan(seed int64, crashAfter, recoverAfter int, shards ...int) *distr.FaultPlan {
	plan := &distr.FaultPlan{Seed: seed, Shards: map[int]distr.ShardFaultPlan{}}
	for _, shard := range shards {
		plan.Shards[shard] = distr.ShardFaultPlan{Crash: true, CrashAfterFetches: crashAfter, RecoverAfter: recoverAfter}
	}
	return plan
}

// A7Config sizes the fault ablation: kill k of Shards shards mid-query and
// measure the accuracy and latency cost of degrading onto the survivors.
type A7Config struct {
	N      int
	K      int // samples per query
	Shards int
	Kill   []int // shards killed per run; each must be < Shards
	// CrashAfter is how many fetches a doomed shard serves before dying
	// (the "mid-query" part of the scenario).
	CrashAfter int
	Seed       int64
}

func (c A7Config) withDefaults() A7Config {
	if c.N == 0 {
		c.N = 500_000
	}
	if c.K == 0 {
		c.K = 5000
	}
	if c.Shards == 0 {
		c.Shards = 8
	}
	if len(c.Kill) == 0 {
		c.Kill = []int{0, 1, 2, 4}
	}
	if c.CrashAfter == 0 {
		// The batched coordinator issues one demand-sized fetch per shard
		// per ~1k-sample round, so a few fetches is already "mid-query".
		c.CrashAfter = 2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// A7Point is one kill-count measurement.
type A7Point struct {
	// Killed is how many shards the run crashed: the kill count asked for,
	// capped at the shards holding matches (less one when every shard
	// holds some, so one survives).
	Killed int
	// Population is the estimator's effective N after degradation (the
	// surviving matching count); HealthyPop is the pre-crash count.
	Population int
	HealthyPop int
	// Value and HalfWidth are the final AVG estimate and its 95% CI
	// half-width; RelWidth is HalfWidth/|Value|.
	Value     float64
	HalfWidth float64
	RelWidth  float64
	WallMS    float64
	// Crashes/Retries/Timeouts echo the storm.distr.faults.* counters for
	// the run, tying each column back to the injected events.
	Crashes  uint64
	Retries  uint64
	Timeouts uint64
}

// A7 measures graceful degradation: an AVG query over an 8-shard cluster
// while the k shards holding the most matches crash mid-query. The
// coordinator re-weights onto the survivors and the driver shrinks the
// effective population, so the query completes with an honest (wider) CI
// instead of stalling; the CI-width and latency columns quantify the cost
// of each lost shard.
func A7(cfg A7Config) ([]A7Point, error) {
	cfg = cfg.withDefaults()
	ds := osmData(cfg.N, cfg.Seed)
	q := queryFor(ds, 0.2)

	// The healthy run is the kill=0 row and ranks the shards for the rest.
	healthy, err := faultRun(ds, q, cfg.Shards, 1, cfg.K, cfg.Seed, nil)
	if err != nil {
		return nil, err
	}
	hot := hottestShards(healthy.Cluster, q)

	var out []A7Point
	for _, kill := range cfg.Kill {
		kill = min(kill, len(hot), cfg.Shards-1) // always leave a survivor
		res := healthy
		if kill > 0 {
			plan := crashPlan(cfg.Seed, cfg.CrashAfter, 0, hot[:kill]...)
			if res, err = faultRun(ds, q, cfg.Shards, 1, cfg.K, cfg.Seed, plan); err != nil {
				return nil, err
			}
		}
		rel := math.Inf(1)
		if res.Value != 0 {
			rel = res.HalfWidth / math.Abs(res.Value)
		}
		st := res.Cluster.FaultStats()
		out = append(out, A7Point{
			Killed:     kill,
			Population: res.Population,
			HealthyPop: res.HealthyPop,
			Value:      res.Value,
			HalfWidth:  res.HalfWidth,
			RelWidth:   rel,
			WallMS:     res.WallMS,
			Crashes:    st.Crashes,
			Retries:    st.Retries,
			Timeouts:   st.Timeouts,
		})
	}
	return out, nil
}

// A8Config sizes the recovery ablation: the query's hottest shard crashes
// mid-stream, and the three modes compare never coming back (degraded,
// with lost-mass bounds), coming back mid-query (re-admitted), and never
// crashing at all.
type A8Config struct {
	N      int
	K      int // samples per query
	Shards int
	// CrashAfter is how many fetches the doomed shard serves before dying;
	// RecoverAfter is the recovery clock for the "recover" mode (coordinator
	// observations of the down shard before it rejoins).
	CrashAfter   int
	RecoverAfter int
	Seed         int64
}

func (c A8Config) withDefaults() A8Config {
	if c.N == 0 {
		c.N = 500_000
	}
	if c.K == 0 {
		c.K = 5000
	}
	if c.Shards == 0 {
		c.Shards = 8
	}
	if c.CrashAfter == 0 {
		c.CrashAfter = 2
	}
	if c.RecoverAfter == 0 {
		c.RecoverAfter = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// A8Point is one mode's measurement.
type A8Point struct {
	Mode string
	// Population is the estimator's final effective N; HealthyPop the
	// pre-crash matching count. A recovered run ends with the two equal.
	Population int
	HealthyPop int
	Value      float64
	HalfWidth  float64
	// LostLow/LostHigh are the lost-mass worst-case bounds on the
	// full-population mean (degraded mode only; zero elsewhere).
	LostLow  float64
	LostHigh float64
	WallMS   float64
	Crashes  uint64
	Readmits uint64
}

// A8 measures kill-then-recover: an AVG query whose hottest shard crashes
// mid-stream. "degraded" never gets it back and reports the honest
// surviving-population CI plus worst-case lost-mass bounds over the full
// population; "recover" re-admits the shard mid-query and converges back
// onto the full population; "healthy" is the no-fault baseline.
func A8(cfg A8Config) ([]A8Point, error) {
	cfg = cfg.withDefaults()
	ds := osmData(cfg.N, cfg.Seed)
	q := queryFor(ds, 0.2)

	// "healthy" runs first: its cluster names the hottest shard, which the
	// other two modes crash.
	var out []A8Point
	var target int
	for _, mode := range []string{"healthy", "degraded", "recover"} {
		var plan *distr.FaultPlan
		switch mode {
		case "degraded":
			plan = crashPlan(cfg.Seed, cfg.CrashAfter, 0, target)
		case "recover":
			plan = crashPlan(cfg.Seed, cfg.CrashAfter, cfg.RecoverAfter, target)
		}
		res, err := faultRun(ds, q, cfg.Shards, 1, cfg.K, cfg.Seed, plan)
		if err != nil {
			return nil, err
		}
		if mode == "healthy" {
			target = hottestShards(res.Cluster, q)[0]
		}
		st := res.Cluster.FaultStats()
		if mode == "recover" && !res.Recovered {
			return nil, fmt.Errorf("bench: recover mode did not complete its crash→readmit cycle (readmits=%d, degraded=%v)",
				st.Readmits, res.Degraded)
		}
		out = append(out, A8Point{
			Mode:       mode,
			Population: res.Population,
			HealthyPop: res.HealthyPop,
			Value:      res.Value,
			HalfWidth:  res.HalfWidth,
			LostLow:    res.LostMassLow,
			LostHigh:   res.LostMassHigh,
			WallMS:     res.WallMS,
			Crashes:    st.Crashes,
			Readmits:   st.Readmits,
		})
	}
	return out, nil
}

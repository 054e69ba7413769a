package bench

import (
	"fmt"

	"storm/internal/distr"
)

// A13Config sizes the replication ablation: the query's hottest shard
// loses a copy mid-stream, and the three modes compare an unreplicated
// cluster degrading onto the survivors against an R=2 cluster failing the
// stream over to the surviving replica, with the no-fault baseline.
type A13Config struct {
	N      int
	K      int // samples per query
	Shards int
	// CrashAfter is how many fetches the doomed copy serves before dying
	// (the "mid-query" part of the scenario).
	CrashAfter int
	Seed       int64
}

func (c A13Config) withDefaults() A13Config {
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
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// A13Point is one mode's measurement.
type A13Point struct {
	Mode     string
	Replicas int
	// Population is the estimator's final effective N; HealthyPop the
	// pre-crash matching count. A failover run ends with the two equal —
	// the population stays intact — where a degraded run shrinks it.
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
	// Failovers echoes storm.distr.replicas.failovers for the run: streams
	// reopened on a surviving copy instead of degrading.
	Failovers uint64
	Degraded  bool
}

// A13 measures what replication buys: an AVG query whose hottest shard
// loses a copy mid-stream. "r1-degraded" has no second copy, so the
// coordinator re-weights onto the survivors and reports the honest
// shrunken-population CI plus worst-case lost-mass bounds; "r2-failover"
// reopens the dead copy's remainder on the surviving replica and finishes
// over the full population with the healthy CI width; "healthy" is the
// no-fault baseline. The failover run must end non-degraded with the full
// population or the ablation reports an error rather than a table.
func A13(cfg A13Config) ([]A13Point, error) {
	cfg = cfg.withDefaults()
	ds := osmData(cfg.N, cfg.Seed)
	q := queryFor(ds, 0.2)

	// "healthy" runs first: its cluster names the hottest shard, whose copy
	// the other two modes crash.
	var out []A13Point
	var target int
	for _, mode := range []struct {
		name     string
		replicas int
	}{{"healthy", 1}, {"r1-degraded", 1}, {"r2-failover", 2}} {
		var plan *distr.FaultPlan
		switch mode.name {
		case "r1-degraded":
			// A plain shard target scripts every copy, so at R=1 this is
			// the copy: the shard is gone and the query degrades.
			plan = crashPlan(cfg.Seed, cfg.CrashAfter, 0, target)
		case "r2-failover":
			// A '<shard>.<replica>' target scripts one copy: replica 0 dies
			// mid-stream and the fetch path fails over to replica 1.
			plan = &distr.FaultPlan{Seed: cfg.Seed, Replicas: map[distr.ReplicaTarget]distr.ShardFaultPlan{
				{Shard: target, Replica: 0}: {Crash: true, CrashAfterFetches: cfg.CrashAfter},
			}}
		}
		res, err := faultRun(ds, q, cfg.Shards, mode.replicas, cfg.K, cfg.Seed, plan)
		if err != nil {
			return nil, err
		}
		if mode.name == "healthy" {
			target = hottestShards(res.Cluster, q)[0]
		}
		p := A13Point{
			Mode:       mode.name,
			Replicas:   mode.replicas,
			Population: res.Population,
			HealthyPop: res.HealthyPop,
			Value:      res.Value,
			HalfWidth:  res.HalfWidth,
			LostLow:    res.LostMassLow,
			LostHigh:   res.LostMassHigh,
			WallMS:     res.WallMS,
			Crashes:    res.Cluster.FaultStats().Crashes,
			Failovers:  res.Cluster.ReplicaStats().Failovers,
			Degraded:   res.Degraded,
		}
		switch mode.name {
		case "r1-degraded":
			if !p.Degraded {
				return nil, fmt.Errorf("bench A13: r1-degraded mode did not degrade (crashes=%d)", p.Crashes)
			}
		case "r2-failover":
			if p.Degraded || p.Failovers == 0 || p.Population != p.HealthyPop {
				return nil, fmt.Errorf("bench A13: r2-failover mode did not fail over cleanly (degraded=%v, failovers=%d, pop=%d/%d)",
					p.Degraded, p.Failovers, p.Population, p.HealthyPop)
			}
		}
		out = append(out, p)
	}
	return out, nil
}

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
	"storm/internal/pred"
	"storm/internal/stats"
	"storm/internal/wire"
)

// A10Config sizes the predicate-pushdown ablation: the same seeded WHERE
// aggregate runs with node-summary pruning and with the rejection
// baseline across a sweep of predicate selectivities.
type A10Config struct {
	N             int       // dataset size
	K             int       // samples drawn per query
	Selectivities []float64 // fractions of records each predicate keeps
	Shards        int       // shards for the wire-identity leg
	Hosts         int       // TCP shard hosts for the wire-identity leg
	WireK         int       // samples drained in the wire-identity leg
	Seed          int64
}

func (c A10Config) withDefaults() A10Config {
	if c.N == 0 {
		c.N = 200_000
	}
	if c.K == 0 {
		c.K = 1_000
	}
	if len(c.Selectivities) == 0 {
		c.Selectivities = []float64{0.5, 0.1, 0.01, 0.001}
	}
	if c.Shards == 0 {
		c.Shards = 8
	}
	if c.Hosts == 0 {
		c.Hosts = 4
	}
	if c.WireK == 0 {
		c.WireK = 2_000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// A10Point is one (selectivity, strategy) measurement.
type A10Point struct {
	// Selectivity is the requested qualifying fraction; Qualifying the
	// exact count the threshold realized.
	Selectivity float64
	Qualifying  int
	Strategy    string // "pushdown" or "rejection"
	Samples     int
	// Draws is the total sampler work consumed — delivered plus rejected
	// draws — the quantity rejection inflates by ~1/selectivity and
	// pruning keeps near the delivered count.
	Draws uint64
	// Rejects is the discarded share of Draws; Pruned the subtrees the
	// node summaries excluded from descents (pushdown only).
	Rejects uint64
	Pruned  uint64
	// LogicalIO is the query's attributed logical page accesses.
	LogicalIO uint64
	WallMS    float64
}

// A10Result is the ablation's output: the sweep table plus the
// wire-identity verification of the distributed pushdown path.
type A10Result struct {
	Points []A10Point
	// WireIdentical reports that the predicate-pushdown sample stream
	// drained through real TCP shard hosts was byte-identical to the
	// loopback cluster's under the same seed.
	WireIdentical bool
}

// a10Data builds a dataset whose numeric attribute is spatially
// correlated — value tracks the x coordinate with small noise — so STR
// leaves carry tight value digests and node-summary pruning has
// structure to exploit. A spatially uncorrelated attribute is pushdown's
// worst case (every leaf envelope spans the whole value range and
// nothing prunes); correlation is the common case for sensor readings,
// elevations, densities and timestamps-as-attributes.
func a10Data(n int, seed int64) *data.Dataset {
	ds := data.NewDataset("a10")
	ds.AddNumericColumn("value")
	rng := stats.NewRNG(seed)
	for i := 0; i < n; i++ {
		pos := geo.Vec{rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 100}
		id := ds.AppendFast(pos)
		ds.SetNumeric("value", id, 10*pos.X()+rng.NormFloat64()*2)
	}
	return ds
}

// a10Threshold returns the value cutoff whose ≥-predicate keeps the
// requested fraction of records (empirical quantile, exact by scan).
func a10Threshold(ds *data.Dataset, frac float64) float64 {
	col, _ := ds.NumericColumn("value")
	sorted := append([]float64(nil), col...)
	sort.Float64s(sorted)
	idx := int(math.Round(float64(len(sorted)) * (1 - frac)))
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// A10 measures what predicate pushdown buys: for each selectivity the
// identical seeded AVG(value) WHERE value ≥ τ query runs once with
// node-summary pruning and once as the rejection baseline, and the table
// reports sampler work, pruned subtrees, and logical I/O. It then drains
// the same pushdown predicate through a loopback cluster and through
// real TCP shard hosts and verifies the streams byte-identical — the
// wire really ships the predicate, not a coordinator-side filter.
func A10(cfg A10Config) (A10Result, error) {
	cfg = cfg.withDefaults()
	ds := a10Data(cfg.N, cfg.Seed)
	all := geo.Range{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100, MinT: 0, MaxT: 100}

	eng := engine.New(engine.Config{Seed: cfg.Seed, BufferPoolPages: 4096, Obs: Obs})
	h, err := eng.Register(ds, engine.IndexOptions{})
	if err != nil {
		return A10Result{}, err
	}
	drawn := eng.Obs().Counter("storm.engine.samples.drawn")
	rejects := eng.Obs().Counter("storm.engine.sampler.rejects")
	pruned := eng.Obs().Counter("storm.engine.pushdown.pruned_nodes")

	var res A10Result
	for _, sel := range cfg.Selectivities {
		terms := []pred.Term{{Attr: "value", Lo: a10Threshold(ds, sel), Hi: math.Inf(1)}}
		for _, strat := range []engine.PushdownStrategy{engine.PushdownForce, engine.PushdownOff} {
			d0, r0, p0 := drawn.Value(), rejects.Value(), pruned.Value()
			start := time.Now()
			snap, err := h.Estimate(context.Background(), all, engine.Options{
				Kind: estimator.Avg, Attr: "value",
				Where: terms, Pushdown: strat,
				Method: engine.MethodRSTree, MaxSamples: cfg.K, Seed: cfg.Seed,
			})
			if err != nil {
				return A10Result{}, err
			}
			elapsed := time.Since(start)
			if !snap.Done {
				return A10Result{}, fmt.Errorf("bench A10: query did not finish at selectivity %g", sel)
			}
			dd, rd := drawn.Value()-d0, rejects.Value()-r0
			res.Points = append(res.Points, A10Point{
				Selectivity: sel,
				Qualifying:  snap.Population,
				Strategy:    strat.String(),
				Samples:     snap.Samples,
				Draws:       dd + rd,
				Rejects:     rd,
				Pruned:      pruned.Value() - p0,
				LogicalIO:   snap.IO.Logical,
				WallMS:      float64(elapsed.Microseconds()) / 1e3,
			})
		}
	}

	identical, err := a10WireIdentity(cfg, ds, all.Rect())
	if err != nil {
		return A10Result{}, err
	}
	res.WireIdentical = identical
	return res, nil
}

// a10WireIdentity drains the same seeded pushdown predicate through the
// loopback cluster and through TCP shard hosts and compares the streams.
func a10WireIdentity(cfg A10Config, ds *data.Dataset, q geo.Rect) (bool, error) {
	terms := []pred.Term{{Attr: "value", Lo: a10Threshold(ds, 0.1), Hi: math.Inf(1)}}
	dcfg := distr.Config{Shards: cfg.Shards, Seed: cfg.Seed, Obs: Obs}

	local, err := distr.Build(ds, dcfg)
	if err != nil {
		return false, err
	}
	defer local.Close()

	addrs := make([]string, cfg.Hosts)
	for i := range addrs {
		h := distr.NewHost()
		h.AddDataset(ds)
		srv, err := wire.NewServer("127.0.0.1:0", h)
		if err != nil {
			return false, err
		}
		defer srv.Close()
		addrs[i] = srv.Addr()
	}
	remote, err := distr.BuildRemote(ds, dcfg, addrs)
	if err != nil {
		return false, err
	}
	defer remote.Close()

	drain := func(c *distr.Cluster) []data.ID {
		s := c.SamplerWhere(q, stats.NewRNG(cfg.Seed), terms)
		defer s.Close()
		buf := make([]data.Entry, 256)
		ids := make([]data.ID, 0, cfg.WireK)
		for len(ids) < cfg.WireK {
			want := cfg.WireK - len(ids)
			if want > len(buf) {
				want = len(buf)
			}
			got := s.NextBatch(buf, want)
			for _, e := range buf[:got] {
				ids = append(ids, e.ID)
			}
			if got < want {
				break
			}
		}
		return ids
	}
	lids, tids := drain(local), drain(remote)
	if len(lids) != len(tids) {
		return false, fmt.Errorf("bench A10: TCP predicate stream length %d != loopback %d", len(tids), len(lids))
	}
	for i := range lids {
		if lids[i] != tids[i] {
			return false, fmt.Errorf("bench A10: TCP predicate stream diverged from loopback at sample %d", i)
		}
	}
	return true, nil
}

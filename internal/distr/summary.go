// Per-shard value envelopes: the coordinator's digests that turn a
// degraded confidence interval into a worst-case bound over the full
// pre-crash population.
//
// When a shard crashes mid-query, the estimate keeps covering the
// surviving population only (DESIGN.md §4.3's lost-mass caveat). But the
// coordinator knows each shard's value envelope — per numeric column, the
// min/max of every value the shard has held and whether any was NaN.
// Whatever the lost shard's unreachable records held, every value lies in
// [Min, Max], so the surviving CI can be widened into hard bounds on the
// full-population aggregate (see estimator.LostMassBounds for the
// arithmetic).
//
// The coordinator is the envelope's only owner. Each copy's BuildOK
// carries the built shard's root digest, which the cluster unions across
// copies and rebuilds; Insert widens it with every routed record's values
// before mirroring, whether or not the copies ack. Nothing shrinks it — a
// deletion would need a rescan — so the bounds stay sound, possibly
// loose, under any update mix, and are answered locally while the shard
// is unreachable, exactly when they are needed.
package distr

import (
	"math"

	"storm/internal/pred"
	"storm/internal/wire"
)

// envelope is one shard's value envelope, keyed by the numeric columns its
// copies' BuildOKs name. Columns added to the dataset after Build have no
// entry: an envelope over the inserted values alone would miss the base
// records.
type envelope map[string]pred.AttrStats

// widenBuilt unions a copy's BuildOK digest into shard's envelope.
func (c *Cluster) widenBuilt(shard int, ok *wire.BuildOK) {
	c.mu.Lock()
	defer c.mu.Unlock()
	env := c.env[shard]
	for _, a := range ok.Attrs {
		st, seen := env[a.Name]
		if !seen {
			st = pred.EmptyStats()
		}
		st.Merge(a.AttrStats)
		env[a.Name] = st
	}
}

// widenInserted folds a record routed to shard into its envelope.
func (c *Cluster) widenInserted(shard int, num []wire.NumAttr) {
	c.mu.Lock()
	defer c.mu.Unlock()
	env := c.env[shard]
	for _, a := range num {
		if st, ok := env[a.Name]; ok {
			st.Add(a.Val)
			env[a.Name] = st
		}
	}
}

// ShardSummary returns shard's value envelope for attr, or ok = false when
// the shard or attribute is unknown. It reads the coordinator's own copy,
// so it answers whether or not the shard is reachable.
func (c *Cluster) ShardSummary(shard int, attr string) (st pred.AttrStats, ok bool) {
	if shard < 0 || shard >= len(c.env) {
		return pred.AttrStats{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok = c.env[shard][attr]
	return st, ok
}

// LostMassBounds returns hard bounds [lo, hi] on the attribute values of
// this query's lost population — the lostPop matching records stranded on
// shards the query wrote off — from the coordinator's per-shard
// envelopes. ok is false when the query is not degraded, or a lost shard's
// envelope for the attribute is missing, empty, infinite or has held a NaN
// (a NULL contributes nothing to an aggregate, so lost NULLs would make
// the lost record count overstate the lost contributing mass). Callers
// combine [lo, hi] with the surviving-population CI via
// estimator.LostMassBounds to bound the full pre-crash aggregate.
func (s *Sampler) LostMassBounds(attr string) (lo, hi float64, lostPop int, ok bool) {
	if s.lostPop <= 0 || len(s.lost) == 0 {
		return 0, 0, 0, false
	}
	lo, hi = math.Inf(1), math.Inf(-1)
	for shard, st := range s.lost {
		if st.remaining <= 0 {
			continue
		}
		env, found := s.cluster.ShardSummary(shard, attr)
		if !found || env.HasNaN || env.Empty() || math.IsInf(env.Min, 0) || math.IsInf(env.Max, 0) {
			return 0, 0, 0, false
		}
		if env.Min < lo {
			lo = env.Min
		}
		if env.Max > hi {
			hi = env.Max
		}
	}
	if math.IsInf(lo, 1) || math.IsInf(hi, -1) {
		return 0, 0, 0, false
	}
	return lo, hi, s.lostPop, true
}

// Per-shard envelopes: the coordinator's bounding boxes that route
// inserts, and its value digests that turn a degraded confidence interval
// into a worst-case bound over the full pre-crash population.
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
// carries the built shard tree's root box and digest, which the cluster
// unions across copies and rebuilds; Insert routes by the boxes and
// widens the chosen shard's box and digest with the record before
// mirroring, whether or not the copies ack. Nothing shrinks an envelope —
// a deletion would need a rescan — so routing never asks a shard, and the
// value bounds stay sound, possibly loose, under any update mix, answered
// locally while the shard is unreachable, exactly when they are needed.
package distr

import (
	"math"

	"storm/internal/geo"
	"storm/internal/pred"
	"storm/internal/wire"
)

// envelope is one shard's coordinator-side metadata: the box covering
// every position the shard has held, and the value envelope keyed by the
// numeric columns its copies' BuildOKs name. Columns added to the dataset
// after Build have no entry: an envelope over the inserted values alone
// would miss the base records.
type envelope struct {
	box   geo.Rect
	attrs map[string]pred.AttrStats
}

// widenBuilt unions a copy's BuildOK box and digest into shard's envelope.
func (c *Cluster) widenBuilt(shard int, ok *wire.BuildOK) {
	c.mu.Lock()
	defer c.mu.Unlock()
	env := &c.env[shard]
	env.box = env.box.Extend(ok.Box)
	for _, a := range ok.Attrs {
		st, seen := env.attrs[a.Name]
		if !seen {
			st = pred.EmptyStats()
		}
		st.Merge(a.AttrStats)
		env.attrs[a.Name] = st
	}
}

// route picks the live shard whose box grows least to cover p — with
// contiguous STR leaf runs, the shard owning its neighborhood; the
// first in shard order on ties — and widens its envelope with p and the
// record's values num. It returns -1 when no live shard can take p (none
// is live, or p has a NaN coordinate).
func (c *Cluster) route(live []int, p geo.Vec, num []wire.NumAttr) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	best, bestGrow := -1, math.Inf(1)
	for _, i := range live {
		if grow := c.env[i].box.Enlargement(geo.RectFromPoint(p)); grow < bestGrow {
			best, bestGrow = i, grow
		}
	}
	if best < 0 {
		return -1
	}
	env := &c.env[best]
	env.box = env.box.ExtendPoint(p)
	for _, a := range num {
		if st, ok := env.attrs[a.Name]; ok {
			st.Add(a.Val)
			env.attrs[a.Name] = st
		}
	}
	return best
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
	st, ok = c.env[shard].attrs[attr]
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

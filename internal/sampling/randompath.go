package sampling

import (
	"storm/internal/data"
	"storm/internal/geo"
	"storm/internal/iosim"
	"storm/internal/pred"
	"storm/internal/rtree"
	"storm/internal/stats"
)

// RandomPath adapts Olken's random-path sampling to R-trees with subtree
// counts, the method the paper cites as the best prior art. Each sample is
// obtained by one or more random root-to-leaf walks:
//
//  1. At an internal node, pick a Q-intersecting child with probability
//     proportional to its subtree count, accumulating the correction factor
//     W(u)/count(child-universe) along the way.
//  2. At the leaf, pick an entry uniformly.
//  3. Accept the walk with the accumulated correction probability and only
//     if the entry actually lies inside Q; otherwise restart.
//
// The acceptance/rejection correction makes the accepted samples exactly
// uniform on P ∩ Q even though different root-to-leaf paths have different
// branching normalizers. Each walk touches O(log N) nodes; k samples touch
// Ω(k) distinct leaf pages, which is why the method loses badly to the
// LS/RS-trees on disk-resident data (paper Figure 3a).
//
// With a predicate filter attached (NewRandomPathWhere), children whose
// attribute digests rule the predicate out are excluded from the descent
// alongside the non-Q-intersecting ones, and the correction factor is
// accumulated over the surviving weight: the same telescoping argument
// makes every accepted walk land on each reachable entry with identical
// probability 1/W_elig(root), and pruned subtrees hold no qualifying
// records, so the leaf-level predicate check keeps the accepted stream
// exactly uniform over the qualifying records.
type RandomPath struct {
	tree   *rtree.Tree
	query  geo.Rect
	rng    *stats.RNG
	filter *rtree.TreeFilter
	elig   []*rtree.Node  // per-node scratch: eligible children of the walk
	batch  *iosim.Batcher // coalesces a pull's node charges; NextBatch flushes it
	seen   *IDSet
	// remaining is the exact number of matching records left to emit; -1
	// until first computed.
	remaining int
	// MaxWalks bounds the number of restart attempts per sample.
	MaxWalks int
	walks    uint64
	draws    uint64
}

// NewRandomPath returns a RandomPath sampler over the tree and range,
// charging the tree's device.
func NewRandomPath(t *rtree.Tree, q geo.Rect, rng *stats.RNG) *RandomPath {
	return NewRandomPathWhere(t, q, rng, nil, nil)
}

// NewRandomPathWhere returns a RandomPath sampler that additionally prunes
// by attribute predicate: subtrees with a None digest verdict are excluded
// from the weighted descent and leaf picks failing the predicate are
// rejected, so accepted samples are uniform over the qualifying records.
// Node charges go to acct, or to the tree's device when acct is nil. A nil
// filter and a nil acct is exactly NewRandomPath.
func NewRandomPathWhere(t *rtree.Tree, q geo.Rect, rng *stats.RNG, f *rtree.TreeFilter, acct iosim.Accountant) *RandomPath {
	if acct == nil {
		acct = t.Device()
	}
	return &RandomPath{
		tree: t, query: q, rng: rng,
		filter:    f,
		batch:     iosim.NewBatcher(acct),
		seen:      NewIDSet(t.Len()),
		remaining: -1,
		MaxWalks:  1 << 22,
	}
}

// Name implements Sampler.
func (s *RandomPath) Name() string { return "RandomPath" }

// Close implements Sampler; RandomPath holds nothing to release.
func (s *RandomPath) Close() error { return nil }

// SamplerStats implements Sampler: every walk that did not return a sample
// (rejected descent, duplicate) counts as a rejection.
func (s *RandomPath) SamplerStats() SamplerStats {
	st := SamplerStats{Draws: s.draws, Rejects: s.walks - s.draws}
	if s.filter != nil {
		st.Pruned = s.filter.Pruned
	}
	return st
}

// NextBatch implements Sampler: repeated root-to-leaf walks with the
// pull's node charges coalesced (one device lock per flush rather than per
// visited node).
func (s *RandomPath) NextBatch(dst []data.Entry, k int) int {
	if k > len(dst) {
		k = len(dst)
	}
	if k <= 0 {
		return 0
	}
	got := 0
	for got < k {
		e, ok := s.next()
		if !ok {
			break
		}
		dst[got] = e
		got++
	}
	s.batch.Flush()
	return got
}

// next is the per-draw body: walks restart until one is accepted.
func (s *RandomPath) next() (data.Entry, bool) {
	if s.remaining < 0 {
		s.remaining = s.tree.CountWhere(s.query, s.filter)
	}
	if s.remaining == 0 {
		return data.Entry{}, false
	}
	for tries := 0; tries < s.MaxWalks; tries++ {
		s.walks++
		e, ok := s.walk()
		if !ok {
			continue
		}
		if s.seen.Contains(e.ID) {
			continue
		}
		s.seen.Add(e.ID)
		s.remaining--
		s.draws++
		return e, true
	}
	return data.Entry{}, false
}

// walk performs one random root-to-leaf descent; ok is false on rejection.
func (s *RandomPath) walk() (data.Entry, bool) {
	n := s.tree.Root()
	s.batch.Access(n.PageID())
	if n.Count() == 0 {
		return data.Entry{}, false
	}
	accept := 1.0
	first := true
	for !n.IsLeaf() {
		// Weight the eligible children by subtree count: Q-intersecting
		// and, with a predicate attached, not provably disqualified by
		// the child's attribute digests (pruned subtrees hold zero
		// qualifying records, so excluding them loses no mass).
		s.elig = s.elig[:0]
		var total int
		for _, c := range n.Children() {
			if !c.MBR().Intersects(s.query) {
				continue
			}
			if s.filter.Verdict(c) == pred.None {
				continue
			}
			s.elig = append(s.elig, c)
			total += c.Count()
		}
		if total == 0 {
			return data.Entry{}, false
		}
		if !first {
			// Correction factor: the probability of accepting this
			// node's branch so the overall sample is uniform. The
			// root level contributes only the constant 1/W_0 shared
			// by every path, so it is skipped.
			accept *= float64(total) / float64(n.Count())
		}
		first = false
		pick := s.rng.Intn(total)
		var next *rtree.Node
		for _, c := range s.elig {
			if pick < c.Count() {
				next = c
				break
			}
			pick -= c.Count()
		}
		n = next
		s.batch.Access(n.PageID())
	}
	entries := n.Entries()
	if len(entries) == 0 {
		return data.Entry{}, false
	}
	e := entries[s.rng.Intn(len(entries))]
	if !s.query.Contains(e.Pos) {
		return data.Entry{}, false
	}
	if !s.filter.Match(e.ID) {
		return data.Entry{}, false
	}
	if accept < 1 && s.rng.Float64() >= accept {
		return data.Entry{}, false
	}
	return e, true
}

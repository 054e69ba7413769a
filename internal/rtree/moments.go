package rtree

import (
	"math"
	"sync"

	"storm/internal/estimator"
	"storm/internal/geo"
	"storm/internal/iosim"
)

// Moments is what an exact mean-family answer reads from a range: how many
// records qualify, and the count, mean and M2 of their present (non-NaN)
// values of one attribute.
type Moments struct {
	Records int
	Values  estimator.Welford
}

// Moments is the exact plan's descent of q: the walk of Count (with a
// filter, of CountWhere, pruning and short-cutting alike, and charged the
// same way) that also folds the values of attribute attr (an AttrIndex)
// over the partial leaves it tests. A subtree fully inside q, and proven
// to qualify by its digests, is counted from its stored count and appended
// to covered, its values unread: CoveredValues reads them. The returned
// Records is exact. Values covers the partial leaves only, and only while
// at most limit records have qualified: past that the plan that asked can
// no longer take the answer, and the walk just counts.
func (s *Summaries) Moments(q geo.Rect, f *TreeFilter, attr, limit int, covered []*Node) (Moments, []*Node) {
	t := s.tree
	acct := t.beginDescent()
	defer t.endDescent(acct)
	mask := getMask()
	defer maskPool.Put(mask)
	var m Moments
	t.descend(acct, t.root, &q, f, func(n *Node) {
		m.Records += n.count
		covered = append(covered, n)
	}, func(n *Node, f *TreeFilter) {
		switch {
		case m.Records <= limit:
			fs := cutFaces(&q, &n.mbr)
			s.leafMoments(n, &fs, f, attr, &m, mask)
		case f == nil:
			m.Records += countLeaf(n, &q)
		default:
			m.Records += f.countLeaf(n, &q)
		}
	})
	return m, covered
}

// CoveredValues returns the moments of attribute attr's present values
// under the given nodes — the covered subtrees a Moments descent counted
// but did not read — charging every node below them to acct (the tree's
// device when nil); the descent charged the nodes themselves. It stops
// early, with ok false, once done is closed (a nil done never closes).
func (s *Summaries) CoveredValues(nodes []*Node, attr int, acct iosim.Accountant, done <-chan struct{}) (w estimator.Welford, ok bool) {
	if acct == nil {
		acct = s.tree.cfg.Device
	}
	var m Moments
	mask := getMask()
	defer maskPool.Put(mask)
	for _, n := range nodes {
		if !s.coveredValues(n, attr, acct, &m, mask, done) {
			return m.Values, false
		}
	}
	return m.Values, true
}

func (s *Summaries) coveredValues(n *Node, attr int, acct iosim.Accountant, m *Moments, mask *[]uint64, done <-chan struct{}) bool {
	select {
	case <-done:
		return false
	default:
	}
	if n.leaf {
		s.leafMoments(n, &faces{}, nil, attr, m, mask)
		return true
	}
	for _, c := range n.children {
		acct.Access(c.page)
		if !s.coveredValues(c, attr, acct, m, mask, done) {
			return false
		}
	}
	return true
}

// maskPool recycles the exact plan's per-leaf entry masks.
var maskPool sync.Pool

func getMask() *[]uint64 {
	if p, ok := maskPool.Get().(*[]uint64); ok {
		return p
	}
	return new([]uint64)
}

// leafMoments is the fused leaf kernel of the exact plan: it masks each of
// leaf n's entries by the faces fs (cut from the query, see cutFaces) and,
// with a filter, by its predicate, over the leaf-order values Summaries
// caches, then adds the masked records and the moments of their present
// values of attr to m. The face and sum loops are branch-free: a masked-out
// or NaN value enters the sums as +0, never as NaN × 0. The mask is
// scratch, grown to the leaf.
func (s *Summaries) leafMoments(n *Node, fs *faces, f *TreeFilter, attr int, m *Moments, scratch *[]uint64) {
	es := n.entries
	vs := s.cached(n).vals[attr]
	if cap(*scratch) < len(es) {
		*scratch = make([]uint64, len(es))
	}
	mask := (*scratch)[:len(es)]
	switch fs.n {
	case 0:
		for i := range mask {
			mask[i] = 1
		}
	case 1:
		a := fs.f[0]
		for i := range es {
			mask[i] = uint64(a.in(&es[i].Pos))
		}
	case 2:
		a, b := fs.f[0], fs.f[1]
		for i := range es {
			p := &es[i].Pos
			mask[i] = uint64(a.in(p) & b.in(p))
		}
	default:
		for i := range es {
			mask[i] = uint64(fs.in(&es[i].Pos))
		}
	}
	if f != nil {
		f.maskLeaf(n, mask)
	}
	records, w := maskedMoments(vs, mask)
	m.Records += records
	m.Values.Merge(w)
}

// maskedMoments returns how many entries the mask keeps and the count,
// mean and M2 of their present values in vs. It sums deviations from the
// first such value K, which keeps M2 = Σd² − (Σd)²/n within 2(n+1)
// rounding errors of the exact value, since a data point lies within √M2
// of the mean.
func maskedMoments(vs []float64, mask []uint64) (records int, w estimator.Welford) {
	var kept uint64
	i0 := 0
	for ; i0 < len(vs); i0++ {
		if mask[i0] != 0 {
			if vs[i0] == vs[i0] {
				break
			}
			kept++
		}
	}
	if i0 == len(vs) {
		return int(kept), w
	}
	k := vs[i0]
	var n uint64
	var sum, sq float64
	for i := i0; i < len(vs); i++ {
		v, b := vs[i], mask[i]
		p := b & uint64(b2i(v == v))
		d := math.Float64frombits(math.Float64bits(v-k) & -p)
		kept, n, sum, sq = kept+b, n+p, sum+d, sq+d*d
	}
	c := float64(n)
	return int(kept), estimator.FromMoments(int(n), k+sum/c, math.Max(0, sq-sum*sum/c))
}

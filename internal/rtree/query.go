package rtree

import (
	"storm/internal/data"
	"storm/internal/geo"
	"storm/internal/iosim"
	"storm/internal/pred"
)

// Search reports every entry whose position lies inside q, invoking fn for
// each. fn returning false stops the search early. Every visited node is
// charged as one logical page access, making Search the cost reference for
// the paper's "RangeReport" baseline.
func (t *Tree) Search(q geo.Rect, fn func(data.Entry) bool) {
	t.search(t.cfg.Device, t.root, q, nil, fn)
}

// search reports the entries under n inside q that pass f's predicate (a
// nil f passes all), pruning the subtrees f's digests rule out.
func (t *Tree) search(acct iosim.Accountant, n *Node, q geo.Rect, f *TreeFilter, fn func(data.Entry) bool) bool {
	acct.Access(n.page)
	v := f.Verdict(n)
	if v == pred.None {
		return true
	}
	if n.leaf {
		for _, e := range n.entries {
			if q.Contains(e.Pos) && (v == pred.All || f.Match(e.ID)) && !fn(e) {
				return false
			}
		}
		return true
	}
	for _, c := range n.children {
		if c.mbr.Intersects(q) && !t.search(acct, c, q, f, fn) {
			return false
		}
	}
	return true
}

// ReportAll returns all entries inside q. This is the QueryFirst baseline's
// first phase and costs O(r(N) + q) node/entry touches.
func (t *Tree) ReportAll(q geo.Rect) []data.Entry {
	return t.ReportAllWhereTo(t.cfg.Device, q, nil)
}

// Count returns |P ∩ q| exactly. Subtrees fully inside q contribute their
// stored counts without descending, so the cost is proportional to the size
// of the canonical set rather than to the answer. Visited nodes are charged
// in descent order through a run-length batcher: the device sees the access
// sequence of a node-by-node charge and is locked once per flush. It is
// CountWhere without a filter, kept a direct recursion because every
// request pays it.
func (t *Tree) Count(q geo.Rect) int {
	acct := t.beginDescent()
	defer t.endDescent(acct)
	return t.count(acct, t.root, &q)
}

func (t *Tree) count(acct *iosim.Batcher, n *Node, q *geo.Rect) int {
	acct.Access(n.page)
	if q.ContainsRect(n.mbr) {
		return n.count
	}
	if n.leaf {
		return countLeaf(n, q)
	}
	total := 0
	for _, c := range n.children {
		if c.mbr.Intersects(*q) {
			total += t.count(acct, c, q)
		}
	}
	return total
}

// descend is the one filtered counting descent of q, CountWhere's and the
// exact plan's. It charges each node it visits to acct, prunes the subtrees
// f's digests rule out (a nil f rules out none), hands full each subtree
// inside q whose digests prove every record qualifies, and hands leaf each
// other leaf it reaches with the filter its entries still need: nil once
// the leaf's digests prove they all pass.
func (t *Tree) descend(acct *iosim.Batcher, n *Node, q *geo.Rect, f *TreeFilter, full func(*Node), leaf func(*Node, *TreeFilter)) {
	acct.Access(n.page)
	v := f.Verdict(n)
	switch {
	case v == pred.None:
	case v == pred.All && q.ContainsRect(n.mbr):
		full(n)
	case n.leaf && v == pred.All:
		leaf(n, nil)
	case n.leaf:
		leaf(n, f)
	default:
		for _, c := range n.children {
			if c.mbr.Intersects(*q) {
				t.descend(acct, c, q, f, full, leaf)
			}
		}
	}
}

// face is one bound of a query as the test !(s*p[d] < w): s = 1,
// w = q.Min[d] for a lower bound and s = -1, w = -q.Max[d] for an upper one
// (negation is exact, so !(-p < -max) is !(p > max) for every p, NaN and -0
// included).
type face struct {
	d    int
	s, w float64
}

// in is 1 when p passes the face and 0 otherwise: a flag set, not a jump
// (over a boundary leaf a short-circuit test mispredicts on about every
// other entry). It is the one position test of the leaf kernels.
func (c face) in(p *geo.Vec) int { return b2i(!(c.s*p[c.d] < c.w)) }

// faces lists the faces of a query that cut one leaf's box.
type faces struct {
	n int
	f [2 * geo.Dims]face
}

// cutFaces returns the bounds of q that cut box. A bound is left out only
// when the box proves it redundant: q.Min[d] <= box.Min[d] (or box.Max[d]
// <= q.Max[d]), so every entry under the box passes it. A NaN on either
// side proves nothing and keeps the face (a NaN bound's test passes every
// point, as in geo.Rect.Contains).
func cutFaces(q, box *geo.Rect) faces {
	var fs faces
	for d := 0; d < geo.Dims; d++ {
		if lo := q.Min[d]; !(lo <= box.Min[d]) {
			fs.f[fs.n] = face{d, 1, lo}
			fs.n++
		}
		if hi := q.Max[d]; !(box.Max[d] <= hi) {
			fs.f[fs.n] = face{d, -1, -hi}
			fs.n++
		}
	}
	return fs
}

// in is 1 when p passes every face and 0 otherwise: q.Contains(p) for the
// q the faces were cut from, for any p under their box.
func (fs *faces) in(p *geo.Vec) int {
	ok := 1
	for k := 0; k < fs.n; k++ {
		ok &= fs.f[k].in(p)
	}
	return ok
}

// countLeaf returns how many of leaf n's entries lie inside q — the one
// leaf counting loop of Count, CountWhere and Canonical. It tests only the
// faces of q that cut the leaf's box. A query whose time axis is
// unbounded, the common case, cuts a boundary leaf on one or two, and
// those get loops with the faces held in registers: over a 64-entry leaf
// they run twice as fast as the loop over fs.
func countLeaf(n *Node, q *geo.Rect) int {
	es := n.entries
	fs := cutFaces(q, &n.mbr)
	total := 0
	switch fs.n {
	case 0:
		return len(es)
	case 1:
		a := fs.f[0]
		for i := range es {
			total += a.in(&es[i].Pos)
		}
	case 2:
		a, b := fs.f[0], fs.f[1]
		for i := range es {
			p := &es[i].Pos
			total += a.in(p) & b.in(p)
		}
	default:
		for i := range es {
			total += fs.in(&es[i].Pos)
		}
	}
	return total
}

// b2i compiles to a flag set, not a jump.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// beginDescent returns a batcher in front of the tree's device for one
// read-only descent; endDescent flushes it and keeps it for the next one.
func (t *Tree) beginDescent() *iosim.Batcher {
	if b, ok := t.descents.Get().(*iosim.Batcher); ok {
		return b
	}
	return iosim.NewBatcher(t.cfg.Device)
}

func (t *Tree) endDescent(b *iosim.Batcher) {
	b.Flush()
	t.descents.Put(b)
}

// CanonicalPart is one element of a canonical decomposition of a range
// query: either a node whose subtree lies fully inside the query, or a
// partially intersecting leaf whose entries must be filtered individually.
type CanonicalPart struct {
	Node *Node
	// Full is true when every entry under Node satisfies the query.
	Full bool
	// Matching is the number of entries under Node that satisfy the
	// query: Node.Count() when Full, otherwise the filtered leaf count.
	Matching int
}

// Canonical computes the canonical set R_Q for a range query: the maximal
// nodes fully contained in q plus the partially-covered leaves. The total
// Matching across parts equals Count(q). The parts' subtrees are pairwise
// disjoint, which is what lets the RS-tree draw without-replacement samples
// from per-part buffers independently.
func (t *Tree) Canonical(q geo.Rect) []CanonicalPart {
	var parts []CanonicalPart
	t.canonical(t.root, q, &parts)
	return parts
}

func (t *Tree) canonical(n *Node, q geo.Rect, parts *[]CanonicalPart) {
	t.Charge(n)
	if !n.mbr.Intersects(q) {
		return
	}
	if q.ContainsRect(n.mbr) {
		if n.count > 0 {
			*parts = append(*parts, CanonicalPart{Node: n, Full: true, Matching: n.count})
		}
		return
	}
	if n.leaf {
		if m := countLeaf(n, &q); m > 0 {
			*parts = append(*parts, CanonicalPart{Node: n, Full: false, Matching: m})
		}
		return
	}
	for _, c := range n.children {
		t.canonical(c, q, parts)
	}
}

// CanonicalSize returns r(N), the number of canonical parts for q, without
// materializing them. Used by the query optimizer's cost model.
func (t *Tree) CanonicalSize(q geo.Rect) int {
	n := 0
	t.canonicalSize(t.root, q, &n)
	return n
}

func (t *Tree) canonicalSize(n *Node, q geo.Rect, acc *int) {
	if !n.mbr.Intersects(q) {
		return
	}
	if q.ContainsRect(n.mbr) || n.leaf {
		*acc++
		return
	}
	for _, c := range n.children {
		t.canonicalSize(c, q, acc)
	}
}

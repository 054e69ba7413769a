package rtree

import (
	"storm/internal/data"
	"storm/internal/geo"
	"storm/internal/iosim"
)

// Search reports every entry whose position lies inside q, invoking fn for
// each. fn returning false stops the search early. Every visited node is
// charged as one logical page access, making Search the cost reference for
// the paper's "RangeReport" baseline.
func (t *Tree) Search(q geo.Rect, fn func(data.Entry) bool) {
	t.search(t.cfg.Device, t.root, q, fn)
}

// SearchTo is Search with page accesses charged to acct instead of the
// tree's shared device — per-query I/O attribution for samplers that range-
// report (pass an iosim.Counter forwarding to the shared device).
func (t *Tree) SearchTo(acct iosim.Accountant, q geo.Rect, fn func(data.Entry) bool) {
	if acct == nil {
		acct = t.cfg.Device
	}
	t.search(acct, t.root, q, fn)
}

func (t *Tree) search(acct iosim.Accountant, n *Node, q geo.Rect, fn func(data.Entry) bool) bool {
	acct.Access(n.page)
	if n.leaf {
		for _, e := range n.entries {
			if q.Contains(e.Pos) {
				if !fn(e) {
					return false
				}
			}
		}
		return true
	}
	for _, c := range n.children {
		if !c.mbr.Intersects(q) {
			continue
		}
		if !t.search(acct, c, q, fn) {
			return false
		}
	}
	return true
}

// ReportAll returns all entries inside q. This is the QueryFirst baseline's
// first phase and costs O(r(N) + q) node/entry touches.
func (t *Tree) ReportAll(q geo.Rect) []data.Entry {
	return t.ReportAllTo(t.cfg.Device, q)
}

// ReportAllTo is ReportAll with page accesses charged to acct.
func (t *Tree) ReportAllTo(acct iosim.Accountant, q geo.Rect) []data.Entry {
	var out []data.Entry
	t.SearchTo(acct, q, func(e data.Entry) bool {
		out = append(out, e)
		return true
	})
	return out
}

// Count returns |P ∩ q| exactly. Subtrees fully inside q contribute their
// stored counts without descending, so the cost is proportional to the size
// of the canonical set rather than to the answer. Visited nodes are charged
// in descent order through a run-length batcher: the device sees the access
// sequence of a node-by-node charge and is locked once per flush.
func (t *Tree) Count(q geo.Rect) int {
	acct := t.beginDescent()
	defer t.endDescent(acct)
	return t.count(acct, t.root, q)
}

func (t *Tree) count(acct *iosim.Batcher, n *Node, q geo.Rect) int {
	acct.Access(n.page)
	if q.ContainsRect(n.mbr) {
		return n.count
	}
	total := 0
	if n.leaf {
		for i := range n.entries {
			total += in(&q, &n.entries[i].Pos)
		}
		return total
	}
	for _, c := range n.children {
		if c.mbr.Intersects(q) {
			total += t.count(acct, c, q)
		}
	}
	return total
}

// in is q.Contains(p) as 1 or 0, computed without a data-dependent branch:
// over a boundary leaf the short-circuit form mispredicts on about every
// other entry. Each axis is !(p < min) & !(p > max), never p >= min &&
// p <= max, so that a NaN coordinate or bound passes exactly as it passes
// geo.Rect.Contains (every comparison with NaN is false).
func in(q *geo.Rect, p *geo.Vec) int {
	return b2i(!(p[0] < q.Min[0])) & b2i(!(p[0] > q.Max[0])) &
		b2i(!(p[1] < q.Min[1])) & b2i(!(p[1] > q.Max[1])) &
		b2i(!(p[2] < q.Min[2])) & b2i(!(p[2] > q.Max[2]))
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
		m := 0
		for _, e := range n.entries {
			if q.Contains(e.Pos) {
				m++
			}
		}
		if m > 0 {
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

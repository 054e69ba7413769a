package rtree

import (
	"sort"

	"storm/internal/data"
)

// InsertBatch adds a batch of entries in one pass — the streaming ingest
// drain path. The batch is sorted by Hilbert value once,
// routed down the tree as contiguous runs (each internal node partitions
// its run among its children with binary searches on the sorted keys),
// and appended to each target leaf in a single splice; overflowing nodes
// split into as many evenly-filled siblings as needed. Against per-entry
// Insert this removes the per-record descent, the per-record placement
// search, and the per-record leaf shift, which is what lets the drain
// keep up with producer-side append rates (see package ingest).
//
// The entries slice is reordered in place. A single entry costs several
// times a per-entry Insert (key and sort allocations), so callers holding
// one record call Insert.
func (t *Tree) InsertBatch(entries []data.Entry) {
	if len(entries) == 0 {
		return
	}
	keys := t.sortHilbert(entries)

	siblings := t.batchInsert(t.root, entries, keys)
	if len(siblings) > 0 {
		// Grow upward: pack the root and its new siblings into evenly
		// filled parents until one node remains (multiple levels when a
		// large batch fans a small tree out by more than one). Even
		// chunks, not greedy fanout groups: a greedy pack can leave a
		// 1-child straggler, violating minimum fill.
		level := append([]*Node{t.root}, siblings...)
		for len(level) > 1 {
			level = t.packEven(level)
			t.height++
		}
		t.root = level[0]
	}
	t.size += len(entries)
}

// batchInsert merges the Hilbert-sorted run (es, ks) into the subtree at
// n and returns the sibling nodes created by overflow splits, in order,
// at n's level. Counts, MBRs and LHVs along the path are rebuilt on the
// way back up.
func (t *Tree) batchInsert(n *Node, es []data.Entry, ks []uint64) []*Node {
	t.Charge(n)
	n.version++
	if n.leaf {
		n.entries = append(n.entries, es...)
		n.keys = append(n.keys, ks...)
		if len(n.entries) <= t.cfg.Fanout {
			n.recompute()
			t.chargeWrite(n)
			return nil
		}
		return t.splitLeafEven(n)
	}

	// Partition the run among the children exactly as per-entry
	// chooseChild would: child i receives the keys <= its LHV that no
	// earlier child claimed; whatever exceeds every LHV falls through to
	// the last child. ks is sorted, so each share is a contiguous prefix
	// of the remainder, found by binary search.
	rebuilt := make([]*Node, 0, len(n.children))
	lo := 0
	for ci, c := range n.children {
		hi := len(es)
		if ci < len(n.children)-1 {
			lhv := c.lhv
			hi = lo + sort.Search(len(ks)-lo, func(j int) bool { return ks[lo+j] > lhv })
		}
		rebuilt = append(rebuilt, c)
		if hi > lo {
			rebuilt = append(rebuilt, t.batchInsert(c, es[lo:hi], ks[lo:hi])...)
			lo = hi
		}
	}
	n.children = rebuilt
	if len(n.children) <= t.cfg.Fanout {
		n.recompute()
		t.chargeWrite(n)
		return nil
	}
	return t.splitInternalEven(n)
}

// splitLeafEven redistributes an overflowing leaf's entries into the
// fewest evenly-sized leaves that respect the fanout, keeping the first
// chunk in n and returning the rest as new siblings. The merged contents
// are re-sorted by Hilbert key first so chunk boundaries cut the curve,
// not the arrival order (minimum fill holds: with m = ceil(len/fanout)
// chunks, every chunk has more than fanout/2 entries).
func (t *Tree) splitLeafEven(n *Node) []*Node {
	sortByKey(n.entries, n.keys)
	total := len(n.entries)
	m := (total + t.cfg.Fanout - 1) / t.cfg.Fanout
	es, ks := n.entries, n.keys
	siblings := make([]*Node, 0, m-1)
	lo := total/m + min1(total%m) // chunk 0 stays in n
	for i := 1; i < m; i++ {
		hi := lo + total/m
		if i < total%m {
			hi++
		}
		dst := t.newNode(true)
		dst.entries = append(dst.entries, es[lo:hi]...)
		dst.keys = append(dst.keys, ks[lo:hi]...)
		siblings = append(siblings, dst)
		lo = hi
	}
	n.entries = es[:total/m+min1(total%m)]
	n.keys = ks[:len(n.entries)]
	n.recompute()
	t.chargeWrite(n)
	for _, s := range siblings {
		s.recompute()
		t.chargeWrite(s)
	}
	return siblings
}

// min1 returns 1 when rem > 0, else 0 — the first chunk's share of the
// remainder in the even split.
func min1(rem int) int {
	if rem > 0 {
		return 1
	}
	return 0
}

// packEven groups an ordered run of same-level nodes under the fewest
// evenly-filled parents that respect the fanout (every parent gets at
// least fanout/2 children when more than one is needed).
func (t *Tree) packEven(children []*Node) []*Node {
	total := len(children)
	m := (total + t.cfg.Fanout - 1) / t.cfg.Fanout
	out := make([]*Node, 0, m)
	lo := 0
	for i := 0; i < m; i++ {
		hi := lo + total/m
		if i < total%m {
			hi++
		}
		p := t.newNode(false)
		p.children = append(p.children, children[lo:hi]...)
		p.recompute()
		t.chargeWrite(p)
		out = append(out, p)
		lo = hi
	}
	return out
}

// splitInternalEven redistributes an overflowing internal node's children
// into the fewest evenly-sized nodes that respect the fanout, keeping the
// first chunk in n and returning the rest as new siblings.
func (t *Tree) splitInternalEven(n *Node) []*Node {
	children := n.children
	total := len(children)
	m := (total + t.cfg.Fanout - 1) / t.cfg.Fanout
	siblings := make([]*Node, 0, m-1)
	lo := total/m + min1(total%m) // chunk 0 stays in n
	for i := 1; i < m; i++ {
		hi := lo + total/m
		if i < total%m {
			hi++
		}
		dst := t.newNode(false)
		dst.children = append(dst.children, children[lo:hi]...)
		siblings = append(siblings, dst)
		lo = hi
	}
	n.children = children[:total/m+min1(total%m)]
	n.recompute()
	t.chargeWrite(n)
	for _, s := range siblings {
		s.recompute()
		t.chargeWrite(s)
	}
	return siblings
}

package rtree

import (
	"slices"
	"sort"

	"storm/internal/data"
	"storm/internal/geo"
)

// InsertBatch adds entries to the tree — the one way a record enters it,
// whether a drain's batch, a shard host's mirrored record or Delete's
// orphans. Each entry is placed by its Hilbert value, the Hilbert R-tree's
// one rule: the first child whose LHV covers the key, else the last child.
// The batch is sorted by (key, record ID) once and routed down the tree as
// contiguous runs (each internal node partitions its run among its children
// with binary searches on the sorted keys), each run is appended to its
// leaf in one splice, and overflowing nodes split into as many
// evenly-filled siblings as needed. A batch of one skips the sort and,
// unless a node splits, allocates nothing.
//
// The entries slice is reordered in place.
func (t *Tree) InsertBatch(entries []data.Entry) {
	var keys []uint64
	switch len(entries) {
	case 0:
		return
	case 1:
		one := [1]uint64{t.hilbertValue(entries[0].Pos)}
		keys = one[:]
	default:
		keys = t.sortHilbert(entries)
	}

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
// at n's level. A node that does not split takes the run into its count,
// MBR and LHV directly; one that splits is rebuilt from its contents.
// Either way its version moves, invalidating what was derived from it.
func (t *Tree) batchInsert(n *Node, es []data.Entry, ks []uint64) []*Node {
	t.Charge(n)
	n.version++
	if n.leaf {
		n.entries = append(n.entries, es...)
		n.keys = append(n.keys, ks...)
		if len(n.entries) > t.cfg.Fanout {
			return t.splitLeafEven(n)
		}
		t.absorb(n, es, ks)
		return nil
	}

	// Partition the run among the children: child i receives the keys <=
	// its LHV that no earlier child claimed; whatever exceeds every LHV
	// falls through to the last child. ks is sorted, so each share is a
	// contiguous prefix of the remainder, found by binary search, and the
	// scan stops at the child that takes the last key. A child's split
	// siblings go in right after it, and the scan skips them.
	for ci, lo := 0, 0; lo < len(es); ci++ {
		c := n.children[ci]
		hi := len(es)
		if ci < len(n.children)-1 {
			lhv := c.lhv
			hi = lo + sort.Search(len(ks)-lo, func(j int) bool { return ks[lo+j] > lhv })
		}
		if hi == lo {
			continue
		}
		siblings := t.batchInsert(c, es[lo:hi], ks[lo:hi])
		n.children = slices.Insert(n.children, ci+1, siblings...)
		ci += len(siblings)
		lo = hi
	}
	if len(n.children) > t.cfg.Fanout {
		return t.splitInternalEven(n)
	}
	t.absorb(n, es, ks)
	return nil
}

// absorb adds the run (es, ks), now stored under n, to n's count, MBR and
// LHV and charges n's write. Min, max and sum are exact, so the result is
// what recompute would give.
func (t *Tree) absorb(n *Node, es []data.Entry, ks []uint64) {
	n.count += len(es)
	for i, e := range es {
		n.mbr = n.mbr.ExtendPoint(e.Pos)
		n.lhv = max(n.lhv, ks[i])
	}
	t.chargeWrite(n)
}

// recompute rebuilds n's MBR, count and LHV from its direct contents —
// for a leaf, from its cached keys; the max, not the last key: after an
// STR bulk load a leaf's keys are not Hilbert-sorted (see BulkLoad).
func (n *Node) recompute() {
	n.mbr = geo.EmptyRect()
	n.version++
	n.lhv = 0
	if n.leaf {
		n.count = len(n.entries)
		n.mbr = geo.Bounds(n.entries, entryPos)
		for _, k := range n.keys {
			n.lhv = max(n.lhv, k)
		}
		return
	}
	n.count = 0
	for _, c := range n.children {
		n.mbr = n.mbr.Extend(c.mbr)
		n.count += c.count
		n.lhv = max(n.lhv, c.lhv)
	}
}

// sortHilbert orders entries by Hilbert value of their position and returns
// the values in the same order.
func (t *Tree) sortHilbert(entries []data.Entry) []uint64 {
	keys := make([]uint64, len(entries))
	for i, e := range entries {
		keys[i] = t.hilbertValue(e.Pos)
	}
	sortByKey(entries, keys)
	return keys
}

// sortBuf is the most keys sortByKey sorts in stack buffers: a split leaf
// holds a fanout's worth plus its run, and most drain batches fit too.
const sortBuf = 256

// sortByKey reorders entries and their keys together into (key, record ID)
// order, in place. Up to sortBuf keys it allocates nothing.
func sortByKey(entries []data.Entry, keys []uint64) {
	var buf, tmp [sortBuf]Keyed
	order := buf[:0]
	if len(keys) > sortBuf {
		order = make([]Keyed, 0, len(keys))
	}
	for i, k := range keys {
		order = append(order, Keyed{Key: k, Idx: i})
	}
	sortKeys(order, entries, radixMin, tmp[:])
	// Position j takes the entry at order[j].Idx: move each cycle of that
	// permutation once, marking its positions done.
	for i := range order {
		if order[i].Idx < 0 {
			continue
		}
		e := entries[i]
		for j := i; ; {
			src := order[j].Idx
			keys[j], order[j].Idx = order[j].Key, -1
			if src == i {
				entries[j] = e
				break
			}
			entries[j] = entries[src]
			j = src
		}
	}
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
		// Room for a full leaf and one more: the sibling takes inserts
		// without regrowing until it next splits.
		dst.entries = append(make([]data.Entry, 0, t.cfg.Fanout+1), es[lo:hi]...)
		dst.keys = append(make([]uint64, 0, t.cfg.Fanout+1), ks[lo:hi]...)
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

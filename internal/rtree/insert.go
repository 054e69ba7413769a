package rtree

import (
	"sort"

	"storm/internal/data"
	"storm/internal/geo"
)

// Insert adds one entry to the tree, placed by its Hilbert value: the
// descent takes the first child whose LHV covers the key, the entry joins
// its leaf in key order, and an overflowing node splits at its midpoint,
// so the leaf level stays in curve order.
func (t *Tree) Insert(e data.Entry) {
	h := t.hilbertValue(e.Pos)
	sibling := t.insert(t.root, e, h)
	if sibling != nil {
		// Root split: grow the tree by one level.
		newRoot := t.newNode(false)
		newRoot.children = []*Node{t.root, sibling}
		newRoot.recompute()
		t.chargeWrite(newRoot)
		t.root = newRoot
		t.height++
	}
	t.size++
}

// insert recursively places e under n and returns a split sibling when n
// overflows (nil otherwise).
func (t *Tree) insert(n *Node, e data.Entry, h uint64) *Node {
	t.Charge(n)
	n.version++
	if n.leaf {
		// Keep leaf entries sorted by Hilbert value, searching the cached
		// keys rather than re-quantizing each probed entry.
		idx := sort.Search(len(n.keys), func(i int) bool {
			return n.keys[i] >= h
		})
		n.entries = append(n.entries, data.Entry{})
		copy(n.entries[idx+1:], n.entries[idx:])
		n.entries[idx] = e
		n.keys = append(n.keys, 0)
		copy(n.keys[idx+1:], n.keys[idx:])
		n.keys[idx] = h
		n.count++
		n.mbr = n.mbr.ExtendPoint(e.Pos)
		if h > n.lhv {
			n.lhv = h
		}
		t.chargeWrite(n)
		if len(n.entries) > t.cfg.Fanout {
			return t.splitLeaf(n)
		}
		return nil
	}

	childIdx := chooseChild(n, h)
	child := n.children[childIdx]
	sibling := t.insert(child, e, h)
	n.count++
	n.mbr = n.mbr.ExtendPoint(e.Pos)
	if h > n.lhv {
		n.lhv = h
	}
	if sibling != nil {
		// Place the sibling immediately after the split child to keep
		// Hilbert order among children.
		n.children = append(n.children, nil)
		copy(n.children[childIdx+2:], n.children[childIdx+1:])
		n.children[childIdx+1] = sibling
		t.chargeWrite(n)
		if len(n.children) > t.cfg.Fanout {
			return t.splitInternal(n)
		}
	}
	return nil
}

// chooseChild selects the child of n that receives key h: the first child
// whose largest Hilbert value is >= h, else the last child.
func chooseChild(n *Node, h uint64) int {
	for i, c := range n.children {
		if c.lhv >= h {
			return i
		}
	}
	return len(n.children) - 1
}

// splitLeaf splits an overflowing leaf at the midpoint of its Hilbert-sorted
// entries (the key cache splits with them) and returns the new right
// sibling.
func (t *Tree) splitLeaf(n *Node) *Node {
	mid := len(n.entries) / 2
	right := t.newNode(true)
	right.entries = append(right.entries, n.entries[mid:]...)
	n.entries = n.entries[:mid]
	right.keys = append(right.keys, n.keys[mid:]...)
	n.keys = n.keys[:mid]
	n.recompute()
	right.recompute()
	t.chargeWrite(n)
	t.chargeWrite(right)
	return right
}

// splitInternal splits an overflowing internal node at its midpoint.
func (t *Tree) splitInternal(n *Node) *Node {
	mid := len(n.children) / 2
	right := t.newNode(false)
	right.children = append(right.children, n.children[mid:]...)
	n.children = n.children[:mid]
	n.recompute()
	right.recompute()
	t.chargeWrite(n)
	t.chargeWrite(right)
	return right
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
		for i, e := range n.entries {
			n.mbr = n.mbr.ExtendPoint(e.Pos)
			n.lhv = max(n.lhv, n.keys[i])
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

package rtree

import "storm/internal/data"

// Delete removes the entry with the given ID and position. It returns true
// if the entry was found. Underflowing nodes are dissolved and their
// remaining entries reinserted (Guttman's CondenseTree), so the minimum
// fill invariant holds after every delete.
func (t *Tree) Delete(e data.Entry) bool {
	var orphans []data.Entry
	found := t.delete(t.root, e, &orphans)
	if !found {
		return false
	}
	t.size--

	// Shrink the root while it has a single internal child.
	for !t.root.leaf && len(t.root.children) == 1 {
		old := t.root
		t.root = t.root.children[0]
		t.cfg.Device.Invalidate(old.page)
		t.height--
	}

	// Reinsert entries from dissolved nodes as one batch. delete() already
	// took them out of the counts, so they must not move the net size.
	t.size -= len(orphans)
	t.InsertBatch(orphans)
	return true
}

// delete removes e from the subtree rooted at n, collecting entries of
// dissolved children into orphans. Returns whether the entry was found.
func (t *Tree) delete(n *Node, e data.Entry, orphans *[]data.Entry) bool {
	t.Charge(n)
	if n.leaf {
		for i, cur := range n.entries {
			if cur.ID == e.ID && cur.Pos == e.Pos {
				n.entries = append(n.entries[:i], n.entries[i+1:]...)
				n.keys = append(n.keys[:i], n.keys[i+1:]...)
				n.recompute()
				t.chargeWrite(n)
				return true
			}
		}
		return false
	}
	for i, c := range n.children {
		if !c.mbr.Contains(e.Pos) {
			continue
		}
		if !t.delete(c, e, orphans) {
			continue
		}
		// Dissolve an underflowing child (but never the root's last
		// leaf, which may legitimately hold fewer than minFill).
		if t.underflowed(c) {
			n.children = append(n.children[:i], n.children[i+1:]...)
			t.cfg.Device.Invalidate(c.page)
			t.collectEntries(c, orphans)
		}
		n.recompute()
		t.chargeWrite(n)
		return true
	}
	return false
}

// underflowed reports whether a non-root node violates minimum fill.
func (t *Tree) underflowed(n *Node) bool {
	if n.leaf {
		return len(n.entries) < t.minFill
	}
	return len(n.children) < 2
}

// collectEntries appends every data entry under n to out.
func (t *Tree) collectEntries(n *Node, out *[]data.Entry) {
	if n.leaf {
		*out = append(*out, n.entries...)
		return
	}
	for _, c := range n.children {
		t.collectEntries(c, out)
	}
}

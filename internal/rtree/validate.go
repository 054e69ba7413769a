package rtree

import (
	"fmt"

	"storm/internal/geo"
)

// Validate checks the structural invariants of the tree and returns the
// first violation found, or nil. It is exercised by the test suite after
// bulk loads and random insert/delete sequences:
//
//   - every node's MBR tightly covers its contents,
//   - every node's count equals the number of entries in its subtree,
//   - leaves all sit at the same depth,
//   - non-root nodes respect fanout bounds,
//   - every leaf's key cache holds its entries' Hilbert values,
//   - each node's LHV is the max Hilbert value below it.
func (t *Tree) Validate() error {
	if t.root == nil {
		return fmt.Errorf("rtree: nil root")
	}
	depth, count, err := t.validate(t.root, true)
	if err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("rtree: tree size %d but root subtree has %d entries", t.size, count)
	}
	if depth != t.height {
		return fmt.Errorf("rtree: tree height %d but leaves at depth %d", t.height, depth)
	}
	return nil
}

func (t *Tree) validate(n *Node, isRoot bool) (depth, count int, err error) {
	if n.leaf {
		if !isRoot && len(n.entries) > t.cfg.Fanout {
			return 0, 0, fmt.Errorf("rtree: leaf overflow: %d entries > fanout %d", len(n.entries), t.cfg.Fanout)
		}
		mbr := geo.EmptyRect()
		var lhv uint64
		if len(n.keys) != len(n.entries) {
			return 0, 0, fmt.Errorf("rtree: leaf key cache holds %d keys for %d entries", len(n.keys), len(n.entries))
		}
		for i, e := range n.entries {
			mbr = mbr.ExtendPoint(e.Pos)
			h := t.hilbertValue(e.Pos)
			if n.keys[i] != h {
				return 0, 0, fmt.Errorf("rtree: leaf key cache %d != Hilbert value %d for entry %d", n.keys[i], h, e.ID)
			}
			if h > lhv {
				lhv = h
			}
		}
		if len(n.entries) > 0 && (mbr.Min != n.mbr.Min || mbr.Max != n.mbr.Max) {
			return 0, 0, fmt.Errorf("rtree: leaf MBR %v does not match contents %v", n.mbr, mbr)
		}
		if n.count != len(n.entries) {
			return 0, 0, fmt.Errorf("rtree: leaf count %d != %d entries", n.count, len(n.entries))
		}
		if n.lhv != lhv {
			return 0, 0, fmt.Errorf("rtree: leaf LHV %d != computed %d", n.lhv, lhv)
		}
		return 1, n.count, nil
	}

	if len(n.children) > t.cfg.Fanout {
		return 0, 0, fmt.Errorf("rtree: internal overflow: %d children > fanout %d", len(n.children), t.cfg.Fanout)
	}
	if !isRoot && len(n.children) < 2 {
		return 0, 0, fmt.Errorf("rtree: internal node with %d children", len(n.children))
	}
	mbr := geo.EmptyRect()
	total := 0
	childDepth := -1
	var lhv uint64
	for _, c := range n.children {
		d, cnt, err := t.validate(c, false)
		if err != nil {
			return 0, 0, err
		}
		if childDepth == -1 {
			childDepth = d
		} else if d != childDepth {
			return 0, 0, fmt.Errorf("rtree: unbalanced: child depths %d and %d", childDepth, d)
		}
		mbr = mbr.Extend(c.mbr)
		total += cnt
		if c.lhv > lhv {
			lhv = c.lhv
		}
	}
	if mbr.Min != n.mbr.Min || mbr.Max != n.mbr.Max {
		return 0, 0, fmt.Errorf("rtree: internal MBR %v does not match children %v", n.mbr, mbr)
	}
	if n.count != total {
		return 0, 0, fmt.Errorf("rtree: internal count %d != children sum %d", n.count, total)
	}
	if n.lhv != lhv {
		return 0, 0, fmt.Errorf("rtree: internal LHV %d != children max %d", n.lhv, lhv)
	}
	return childDepth + 1, total, nil
}

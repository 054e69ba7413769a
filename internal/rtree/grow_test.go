package rtree_test

import (
	"fmt"
	"slices"
	"testing"

	"storm/internal/data"
	"storm/internal/distr"
	"storm/internal/geo"
	"storm/internal/iosim"
	"storm/internal/lstree"
	"storm/internal/rstree"
	"storm/internal/rtree"
	"storm/internal/stats"
)

// TestPackedLeavesGrowApart: every bulk load packs its leaves as windows of
// one sorted list — BulkLoad, rstree.Build, the engine's BuildSorted over a
// dataset's order, each LS-tree level, the shards a distr.Host builds. A
// leaf that grows past its window must move out rather than write over the
// next leaf's entries: after a Delete and an InsertBatch of two records
// into one full leaf, the tree must validate and every other leaf must hold
// exactly the entries it held before; after deletes and inserts across
// every leaf, it must validate and hold exactly the records it was given,
// less the deleted, plus the inserted.
func TestPackedLeavesGrowApart(t *testing.T) {
	const fanout = 8
	rng := stats.NewRNG(21)
	pos := make([]geo.Vec, 6000)
	for i := range pos {
		pos[i] = geo.Vec{rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 1000}
	}
	ds, err := data.FromColumns("d", pos, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	type named struct {
		name string
		tree *rtree.Tree
	}
	var trees []named
	bulk := rtree.MustNew(rtree.Config{Fanout: fanout})
	bulk.BulkLoad(ds.Entries())
	trees = append(trees, named{"BulkLoad", bulk})
	rs, err := rstree.Build(ds.Entries(), rstree.Config{Fanout: fanout})
	if err != nil {
		t.Fatal(err)
	}
	trees = append(trees, named{"rstree.Build", rs.Tree()})
	order := rtree.STROrderDataset(fanout, ds)
	rsOrder, err := rstree.BuildSorted(order.Entries, rstree.Config{Fanout: fanout, Bounds: order.Bounds})
	if err != nil {
		t.Fatal(err)
	}
	trees = append(trees, named{"rstree.BuildSorted dataset order", rsOrder.Tree()})
	ls, err := lstree.Build(ds.Entries(), lstree.Config{Fanout: fanout, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if ls.Levels() < 3 {
		t.Fatalf("fixture: %d LS-tree levels, want at least 3", ls.Levels())
	}
	for i := range ls.Levels() {
		trees = append(trees, named{fmt.Sprintf("lstree level %d", i), ls.Level(i)})
	}
	cluster, err := distr.Build(ds, distr.Config{Shards: 2, Fanout: fanout, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	for i, sh := range cluster.Shards() {
		trees = append(trees, named{fmt.Sprintf("host shard %d", i), sh.Index().Tree()})
	}

	for _, c := range trees {
		t.Run(c.name, func(t *testing.T) {
			growOneLeaf(t, c.tree, fanout)
			churn(t, c.tree)
		})
	}
}

// growOneLeaf deletes one record from a full leaf that is not the last and
// inserts two at the position of another of its records, which the
// Hilbert rule routes to the same leaf, then checks the tree and every
// other leaf.
func growOneLeaf(t *testing.T, tree *rtree.Tree, fanout int) {
	t.Helper()
	var leaves []*rtree.Node
	var walk func(n *rtree.Node)
	walk = func(n *rtree.Node) {
		if n.IsLeaf() {
			leaves = append(leaves, n)
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(tree.Root())
	before := map[iosim.PageID][]data.Entry{}
	for _, l := range leaves {
		before[l.PageID()] = slices.Clone(l.Entries())
	}

	target, at, victim := pickLeaf(tree, leaves, fanout)
	if target == nil {
		t.Fatal("no full leaf before the last that its own keys route to")
	}
	page, n := target.PageID(), tree.Len()
	if !tree.Delete(victim) {
		t.Fatalf("delete of %d missed", victim.ID)
	}
	tree.InsertBatch([]data.Entry{{ID: 1_000_000, Pos: at}, {ID: 1_000_001, Pos: at}})
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if tree.Len() != n+1 {
		t.Fatalf("%d records after the updates, want %d", tree.Len(), n+1)
	}
	leaves = leaves[:0]
	walk(tree.Root())
	for _, l := range leaves {
		if was, ok := before[l.PageID()]; ok && l.PageID() != page && !slices.Equal(l.Entries(), was) {
			t.Fatalf("growing leaf %d changed leaf %d", page, l.PageID())
		}
	}
}

// pickLeaf finds a full leaf, not the last in tree order, that a record's
// key routes back to (the first child whose LHV covers the key, else the
// last child), the position of that record, and another of the leaf's
// records whose deletion leaves its LHV, and so the routing, as it is.
func pickLeaf(tree *rtree.Tree, leaves []*rtree.Node, fanout int) (*rtree.Node, geo.Vec, data.Entry) {
	for _, l := range leaves[:len(leaves)-1] {
		if len(l.Entries()) != fanout {
			continue
		}
		keys := l.HilbertKeys()
		for j, k := range keys {
			n := tree.Root()
			for !n.IsLeaf() {
				kids := n.Children()
				i := 0
				for i < len(kids)-1 && kids[i].LHV() < k {
					i++
				}
				n = kids[i]
			}
			if n != l {
				continue
			}
			for v, vk := range keys {
				if v != j && vk < l.LHV() {
					return l, l.Entries()[j].Pos, l.Entries()[v]
				}
			}
		}
	}
	return nil, geo.Vec{}, data.Entry{}
}

// churn deletes every third record of the tree and inserts a new one beside
// every third, then checks the tree and its record IDs.
func churn(t *testing.T, tree *rtree.Tree) {
	t.Helper()
	var entries []data.Entry
	tree.Search(tree.Bounds(), func(e data.Entry) bool {
		entries = append(entries, e)
		return true
	})
	want := map[data.ID]bool{}
	for _, e := range entries {
		want[e.ID] = true
	}
	for i, e := range entries {
		switch i % 3 {
		case 0:
			if !tree.Delete(e) {
				t.Fatalf("delete of %d missed", e.ID)
			}
			delete(want, e.ID)
		case 1:
			id := data.ID(2_000_000 + i)
			tree.InsertBatch([]data.Entry{{ID: id, Pos: e.Pos}})
			want[id] = true
		}
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	n := 0
	tree.Search(tree.Bounds(), func(e data.Entry) bool {
		if !want[e.ID] {
			t.Fatalf("tree holds %d, which it should not (or twice)", e.ID)
		}
		delete(want, e.ID)
		n++
		return true
	})
	if len(want) != 0 {
		t.Fatalf("tree lost %d records (holds %d)", len(want), n)
	}
}

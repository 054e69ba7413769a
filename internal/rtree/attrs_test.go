package rtree

import (
	"math"
	"slices"
	"testing"

	"storm/internal/data"
	"storm/internal/geo"
	"storm/internal/iosim"
	"storm/internal/pred"
	"storm/internal/stats"
)

// attrDataset builds a dataset of n records with one "speed" column equal
// to the record's x coordinate (spatially correlated, so node digests are
// tight) and one "noise" column.
func attrDataset(t *testing.T, n int, seed int64) *data.Dataset {
	t.Helper()
	ds := data.NewDataset("attrs")
	ds.AddNumericColumn("speed")
	ds.AddNumericColumn("noise")
	rng := stats.NewRNG(seed)
	for i := 0; i < n; i++ {
		pos := geo.Vec{rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 100}
		id := ds.AppendFast(pos)
		if err := ds.SetNumeric("speed", id, pos[0]); err != nil {
			t.Fatal(err)
		}
		if err := ds.SetNumeric("noise", id, rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

func compilePred(t *testing.T, ds *data.Dataset, terms ...pred.Term) *pred.Compiled {
	t.Helper()
	c, err := pred.Normalize(terms).Compile(ds)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// bruteCountWhere counts ds records in q matching c the slow way.
func bruteCountWhere(ds *data.Dataset, q geo.Rect, c *pred.Compiled) int {
	n := 0
	for i := 0; i < ds.Len(); i++ {
		id := data.ID(i)
		if q.Contains(ds.Pos(id)) && c.Match(id) {
			n++
		}
	}
	return n
}

func TestSummariesTightAndInvalidated(t *testing.T) {
	ds := attrDataset(t, 2000, 7)
	tr := MustNew(Config{Fanout: 8})
	tr.BulkLoad(ds.Entries())
	sums := NewSummaries(tr, ds)
	sums.Precompute()

	var check func(n *Node)
	check = func(n *Node) {
		st := sums.Stats(n)
		i, ok := sums.AttrIndex("speed")
		if !ok {
			t.Fatal("speed not summarized")
		}
		want := pred.EmptyStats()
		col, _ := ds.NumericColumn("speed")
		var collect func(m *Node)
		collect = func(m *Node) {
			for _, e := range m.Entries() {
				want.Add(col[e.ID])
			}
			for _, c := range m.Children() {
				collect(c)
			}
		}
		collect(n)
		if st[i] != want {
			t.Fatalf("digest not tight: node has %+v, subtree holds %+v", st[i], want)
		}
		for _, c := range n.Children() {
			check(c)
		}
	}
	check(tr.Root())

	// Mutations must invalidate digests along the touched path.
	id := ds.AppendFast(geo.Vec{50, 50, 50})
	if err := ds.SetNumeric("speed", id, 12345); err != nil {
		t.Fatal(err)
	}
	if err := ds.SetNumeric("noise", id, 0); err != nil {
		t.Fatal(err)
	}
	tr.InsertBatch([]data.Entry{ds.Entry(id)})
	i, _ := sums.AttrIndex("speed")
	if got := sums.Stats(tr.Root())[i].Max; got != 12345 {
		t.Fatalf("insert did not refresh root digest: max = %v, want 12345", got)
	}
	tr.Delete(ds.Entry(id))
	if got := sums.Stats(tr.Root())[i].Max; got >= 12345 {
		t.Fatalf("delete did not refresh root digest: max = %v", got)
	}
}

func TestCountWhereMatchesBrute(t *testing.T) {
	ds := attrDataset(t, 3000, 11)
	tr := MustNew(Config{Fanout: 8})
	tr.BulkLoad(ds.Entries())
	sums := NewSummaries(tr, ds)
	sums.Precompute()

	queries := []geo.Rect{
		{Min: geo.Vec{0, 0, 0}, Max: geo.Vec{100, 100, 100}},
		{Min: geo.Vec{10, 10, 10}, Max: geo.Vec{60, 70, 90}},
		{Min: geo.Vec{40, 40, 0}, Max: geo.Vec{45, 45, 100}},
	}
	preds := [][]pred.Term{
		{{Attr: "speed", Lo: 0, Hi: 10, HiOpen: true}},
		{{Attr: "speed", Lo: 90, Hi: math.Inf(1)}},
		{{Attr: "speed", Lo: 20, Hi: 80}, {Attr: "noise", Lo: 0.5, Hi: math.Inf(1), LoOpen: true}},
		{{Attr: "speed", Lo: 200, Hi: 300}}, // nothing matches
	}
	for qi, q := range queries {
		for pi, terms := range preds {
			c := compilePred(t, ds, terms...)
			f := NewTreeFilter(c, sums)
			got := tr.CountWhere(q, f)
			want := bruteCountWhere(ds, q, c)
			if got != want {
				t.Errorf("query %d pred %d: CountWhere = %d, want %d", qi, pi, got, want)
			}
			rep := tr.ReportAllWhereTo(nil, q, NewTreeFilter(c, sums))
			if len(rep) != want {
				t.Errorf("query %d pred %d: ReportAllWhereTo returned %d, want %d", qi, pi, len(rep), want)
			}
			for _, e := range rep {
				if !q.Contains(e.Pos) || !c.Match(e.ID) {
					t.Fatalf("query %d pred %d: reported non-matching entry %v", qi, pi, e)
				}
			}
		}
	}

	// Low-selectivity predicates must actually prune on the correlated
	// attribute.
	c := compilePred(t, ds, pred.Term{Attr: "speed", Lo: 0, Hi: 1, HiOpen: true})
	f := NewTreeFilter(c, sums)
	tr.CountWhere(queries[0], f)
	if f.Pruned == 0 {
		t.Error("correlated low-selectivity predicate pruned nothing")
	}
}

func TestTreeFilterNilAndMissingAttr(t *testing.T) {
	ds := attrDataset(t, 500, 3)
	tr := MustNew(Config{Fanout: 8})
	tr.BulkLoad(ds.Entries())
	q := geo.Rect{Min: geo.Vec{0, 0, 0}, Max: geo.Vec{100, 100, 100}}
	if got, want := tr.CountWhere(q, nil), tr.Count(q); got != want {
		t.Errorf("nil filter CountWhere = %d, want Count %d", got, want)
	}
	// A filter with no summaries still filters records, just without
	// pruning.
	c := compilePred(t, ds, pred.Term{Attr: "speed", Lo: 0, Hi: 50})
	f := NewTreeFilter(c, nil)
	if got, want := tr.CountWhere(q, f), bruteCountWhere(ds, q, c); got != want {
		t.Errorf("summary-less CountWhere = %d, want %d", got, want)
	}
	if f.Pruned != 0 {
		t.Errorf("summary-less filter claimed %d prunes", f.Pruned)
	}
}

// runLog is an accountant that records what a descent charges and how: the
// page sequence, expanded from the runs, and the calls it arrived in.
type runLog struct {
	pages             []iosim.PageID
	accesses, flushes int
}

func (l *runLog) Access(p iosim.PageID) bool {
	l.accesses++
	l.pages = append(l.pages, p)
	return true
}
func (l *runLog) Write(iosim.PageID)      {}
func (l *runLog) Invalidate(iosim.PageID) {}
func (l *runLog) AccessBatch(pages []iosim.PageID, counts []int) uint64 {
	l.flushes++
	for i, p := range pages {
		for j := 0; j < counts[i]; j++ {
			l.pages = append(l.pages, p)
		}
	}
	return 0
}

// TestCountChargesInRunsTheSameSequence pins both halves of how Count and
// CountWhere charge: the device sees the pages a node-by-node descent would
// charge, in that order, and sees them only through batch flushes — a few per
// descent, never one call (one device lock) per node.
func TestCountChargesInRunsTheSameSequence(t *testing.T) {
	ds := attrDataset(t, 20000, 5)
	log := &runLog{}
	tr := MustNew(Config{Fanout: 8, Device: log})
	tr.BulkLoad(ds.Entries())
	sums := NewSummaries(tr, ds)
	sums.Precompute()
	c := compilePred(t, ds, pred.Term{Attr: "speed", Lo: 20, Hi: 80})

	// The descents as they charged before batching: one Access per node.
	var nodeByNode func(n *Node, q geo.Rect, f *TreeFilter, out *[]iosim.PageID)
	nodeByNode = func(n *Node, q geo.Rect, f *TreeFilter, out *[]iosim.PageID) {
		*out = append(*out, n.page)
		v := f.Verdict(n)
		if v == pred.None || (v == pred.All && q.ContainsRect(n.mbr)) || n.leaf {
			return
		}
		for _, ch := range n.children {
			if ch.mbr.Intersects(q) {
				nodeByNode(ch, q, f, out)
			}
		}
	}
	queries := []geo.Rect{
		{Min: geo.Vec{0, 0, 0}, Max: geo.Vec{100, 100, 100}},
		{Min: geo.Vec{10, 10, 10}, Max: geo.Vec{60, 70, 90}},
		{Min: geo.Vec{40, 40, 0}, Max: geo.Vec{45, 45, 100}},
		{Min: geo.Vec{200, 200, 200}, Max: geo.Vec{300, 300, 300}}, // disjoint
	}
	for qi, q := range queries {
		for _, where := range []bool{false, true} {
			var f *TreeFilter
			if where {
				f = NewTreeFilter(c, sums)
			}
			var want []iosim.PageID
			nodeByNode(tr.root, q, f, &want)
			*log = runLog{}
			if where {
				tr.CountWhere(q, NewTreeFilter(c, sums))
			} else {
				tr.Count(q)
			}
			if !slices.Equal(log.pages, want) {
				t.Errorf("query %d where=%v: charged %d pages, node-by-node descent charges %d (or another order)", qi, where, len(log.pages), len(want))
			}
			if log.accesses != 0 {
				t.Errorf("query %d where=%v: %d single-page Access calls, want every charge in a batch flush", qi, where, log.accesses)
			}
			if max := len(want)/64 + 1; log.flushes == 0 || log.flushes > max {
				t.Errorf("query %d where=%v: %d flushes for %d pages, want 1..%d", qi, where, log.flushes, len(want), max)
			}
		}
	}
}

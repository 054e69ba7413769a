package rtree

import (
	"math"
	"testing"

	"storm/internal/data"
	"storm/internal/geo"
	"storm/internal/pred"
	"storm/internal/stats"
)

// columns is an AttrSource and pred.ColumnSource over fixed slices, so a
// test can hand the summaries and the predicate a column shorter than the
// IDs in the tree.
type columns map[string][]float64

func (c columns) NumericColumns() []string {
	names := make([]string, 0, len(c))
	for n := range c {
		names = append(names, n)
	}
	return names
}

func (c columns) NumericColumn(name string) ([]float64, error) { return c[name], nil }

// refCount is the reference both kernels must reproduce: every entry the
// tree holds, tested with in and (when c is set) Compiled.Match.
func refCount(entries []data.Entry, q geo.Rect, c *pred.Compiled) int {
	n := 0
	for i := range entries {
		if in(&q, &entries[i].Pos) == 1 && (c == nil || c.Match(entries[i].ID)) {
			n++
		}
	}
	return n
}

// TestCountKernelsMatchReference holds Count, CountWhere and Canonical's
// leaf counts to a brute-force loop over every entry, on a tree built to
// hit the face kernel's edge cases: duplicate points on a coarse grid,
// entries with NaN coordinates (so their leaf boxes are NaN), query bounds
// at ±Inf, NaN and -0, values with NaN, a column shorter than the IDs,
// and insert/delete churn between rounds, so leaf values must follow the
// version bumps.
func TestCountKernelsMatchReference(t *testing.T) {
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	rng := stats.NewRNG(17)
	ds := data.NewDataset("kernels")
	ds.AddNumericColumn("v")
	grid := func() float64 { return float64(rng.Intn(9)) - 4 } // duplicates, -4..4
	coord := func() float64 {
		switch rng.Intn(40) {
		case 0:
			return nan
		case 1:
			return negZero
		}
		return grid()
	}
	add := func() data.Entry {
		id := ds.AppendFast(geo.Vec{coord(), coord(), coord()})
		v := grid() + rng.Float64()
		if rng.Intn(20) == 0 {
			v = nan
		}
		if err := ds.SetNumeric("v", id, v); err != nil {
			t.Fatal(err)
		}
		return ds.Entry(id)
	}
	for i := 0; i < 3000; i++ {
		add()
	}
	live := ds.Entries()
	// Digests live on the nodes, so each source summarizes its own copy
	// of the tree. short resolves "v" for the first half of the IDs only,
	// for the whole test: records past it, churned-in ones included, never
	// match.
	full, _ := ds.NumericColumn("v")
	short := columns{"v": full[:1500:1500]}
	var trees []*Tree
	var sources []struct {
		name string
		cols pred.ColumnSource
		tree *Tree
		sums *Summaries
	}
	for _, src := range []struct {
		name string
		cols AttrSource
	}{{"dataset", ds}, {"short", short}} {
		tr := MustNew(Config{Fanout: 8})
		tr.BulkLoad(live)
		sums := NewSummaries(tr, src.cols)
		sums.Precompute()
		trees = append(trees, tr)
		sources = append(sources, struct {
			name string
			cols pred.ColumnSource
			tree *Tree
			sums *Summaries
		}{src.name, src.cols, tr, sums})
	}
	tr := trees[0]

	queries := []geo.Rect{
		{Min: geo.Vec{-inf, -inf, -inf}, Max: geo.Vec{inf, inf, inf}},
		{Min: geo.Vec{-2, -inf, -inf}, Max: geo.Vec{inf, inf, inf}},
		{Min: geo.Vec{-inf, -inf, -inf}, Max: geo.Vec{inf, 1, inf}},
		{Min: geo.Vec{-1, -2, -inf}, Max: geo.Vec{2, 3, inf}},
		{Min: geo.Vec{negZero, negZero, -inf}, Max: geo.Vec{0, 0, inf}},
		{Min: geo.Vec{0, 0, 0}, Max: geo.Vec{negZero, negZero, negZero}},
		{Min: geo.Vec{nan, -1, nan}, Max: geo.Vec{2, nan, nan}},
		{Min: geo.Vec{nan, nan, nan}, Max: geo.Vec{nan, nan, nan}},
		{Min: geo.Vec{-3, -3, -3}, Max: geo.Vec{3, 3, 3}},
		{Min: geo.Vec{1, 1, 1}, Max: geo.Vec{1, 1, 1}},
		{Min: geo.Vec{-inf, 2, -1}, Max: geo.Vec{0.5, inf, 1}},
		{Min: geo.Vec{5, 5, 5}, Max: geo.Vec{6, 6, 6}},
	}
	for i := 0; i < 20; i++ {
		a, b := geo.Vec{grid(), grid(), grid()}, geo.Vec{grid(), grid(), grid()}
		var q geo.Rect
		for d := 0; d < geo.Dims; d++ {
			q.Min[d], q.Max[d] = math.Min(a[d], b[d])-rng.Float64(), math.Max(a[d], b[d])
		}
		queries = append(queries, q)
	}
	preds := [][]pred.Term{
		{{Attr: "v", Lo: 0, Hi: inf}},
		{{Attr: "v", Lo: -1, Hi: 2, LoOpen: true, HiOpen: true}},
		{{Attr: "v", Lo: negZero, Hi: 0}},
		{{Attr: "v", Lo: -inf, Hi: -2.5}},
		{{Attr: "v", Lo: nan, Hi: 1}},
		{{Attr: "v", Lo: -10, Hi: 10}},
		{{Attr: "v", Lo: -2, Hi: inf}, {Attr: "v", Lo: -inf, Hi: 1, HiOpen: true}}, // the multi-term loop
	}

	check := func(round int) {
		t.Helper()
		for qi, q := range queries {
			if got, want := tr.Count(q), refCount(live, q, nil); got != want {
				t.Fatalf("round %d query %d %v: Count = %d, want %d", round, qi, q, got, want)
			}
			parts := 0
			for _, p := range tr.Canonical(q) {
				parts += p.Matching
			}
			if want := refCount(live, q, nil); parts != want {
				t.Fatalf("round %d query %d %v: Canonical matches %d, want %d", round, qi, q, parts, want)
			}
			for pi, terms := range preds {
				for _, src := range sources {
					c, err := pred.Predicate{Terms: terms}.Compile(src.cols)
					if err != nil {
						t.Fatal(err)
					}
					want := refCount(live, q, c)
					if got := src.tree.CountWhere(q, NewTreeFilter(c, src.sums)); got != want {
						t.Fatalf("round %d query %d %v pred %d %s: CountWhere = %d, want %d", round, qi, q, pi, src.name, got, want)
					}
					if got := src.tree.CountWhere(q, NewTreeFilter(c, nil)); got != want {
						t.Fatalf("round %d query %d pred %d %s: summary-less CountWhere = %d, want %d", round, qi, pi, src.name, got, want)
					}
				}
			}
		}
	}
	check(0)
	for round := 1; round <= 3; round++ {
		for i := 0; i < 150; i++ {
			e := add()
			for _, tr := range trees {
				tr.InsertBatch([]data.Entry{e})
			}
			live = append(live, e)
		}
		for i := 0; i < 150; i++ {
			j := rng.Intn(len(live))
			if p := live[j].Pos; p != p {
				continue // Delete matches Pos by ==, which NaN never is
			}
			for _, tr := range trees {
				if !tr.Delete(live[j]) {
					t.Fatalf("round %d: entry %v not found for delete", round, live[j])
				}
			}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if round == 2 { // the slab path again, over a churned tree
			for _, src := range sources {
				src.sums.Precompute()
			}
		}
		check(round)
	}
}

// FuzzCountLeaf holds countLeaf, and TreeFilter.countLeaf's face-and-value
// loop, to in and Compiled.Match over one leaf of any query box, entry
// positions, values and column length. Each raw byte picks a coordinate or
// value from a palette of duplicates, ±0, ±Inf and NaN.
func FuzzCountLeaf(f *testing.F) {
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	f.Add(0.0, 0.0, -inf, 2.0, 2.0, inf, 0.5, inf, uint8(1), uint8(0), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add(negZero, -inf, nan, 0.0, inf, nan, negZero, 0.0, uint8(2), uint8(3), []byte{0, 3, 4, 255, 7, 7, 7, 7, 1, 1, 2, 2, 9, 0})
	f.Add(nan, nan, nan, nan, nan, nan, nan, 1.0, uint8(0), uint8(1), []byte{8, 8, 8, 8, 8, 8, 8, 8})
	f.Add(1.0, 1.0, 1.0, 0.0, 0.0, 0.0, -inf, inf, uint8(0), uint8(255), []byte{5, 6, 7, 0, 5, 6, 7, 1})
	palette := []float64{nan, -inf, inf, negZero, 0, 1, 2, 3, -1, -2, 0.5}
	f.Fuzz(func(t *testing.T, q0, q1, q2, q3, q4, q5, lo, hi float64, open, short uint8, raw []byte) {
		q := geo.Rect{Min: geo.Vec{q0, q1, q2}, Max: geo.Vec{q3, q4, q5}}
		pick := func(b byte) float64 { return palette[int(b)%len(palette)] }
		n := &Node{leaf: true, mbr: geo.EmptyRect(), version: 1}
		var col []float64
		for i := 0; i+4 <= len(raw) && len(n.entries) < 256; i += 4 {
			p := geo.Vec{pick(raw[i]), pick(raw[i+1]), pick(raw[i+2])}
			n.entries = append(n.entries, data.Entry{ID: data.ID(len(n.entries)), Pos: p})
			n.mbr = n.mbr.ExtendPoint(p)
			col = append(col, pick(raw[i+3]))
		}
		if got, want := countLeaf(n, &q), refCount(n.entries, q, nil); got != want {
			t.Fatalf("countLeaf(%v) over %v = %d, want %d", q, n.entries, got, want)
		}
		src := columns{"v": col[:len(col)-min(int(short), len(col))]}
		c, err := pred.Predicate{Terms: []pred.Term{{Attr: "v", Lo: lo, Hi: hi, LoOpen: open&1 != 0, HiOpen: open&2 != 0}}}.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		tf := NewTreeFilter(c, NewSummaries(nil, src))
		if got, want := tf.countLeaf(n, &q), refCount(n.entries, q, c); got != want {
			t.Fatalf("TreeFilter.countLeaf(%v, v in %v..%v open %d) = %d, want %d", q, lo, hi, open, got, want)
		}
	})
}

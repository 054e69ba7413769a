package rtree

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"storm/internal/data"
	"storm/internal/geo"
	"storm/internal/iosim"
	"storm/internal/pred"
	"storm/internal/stats"
)

// genEntries produces n clustered points in [0,1000)^2 x [0,1000).
func genEntries(n int, seed int64) []data.Entry {
	rng := stats.NewRNG(seed)
	out := make([]data.Entry, n)
	for i := range out {
		// A mix of clusters and uniform background.
		var p geo.Vec
		if rng.Bernoulli(0.7) {
			cx := float64(rng.Intn(5)) * 200
			cy := float64(rng.Intn(5)) * 200
			p = geo.Vec{cx + rng.NormFloat64()*20, cy + rng.NormFloat64()*20, rng.Uniform(0, 1000)}
		} else {
			p = geo.Vec{rng.Uniform(0, 1000), rng.Uniform(0, 1000), rng.Uniform(0, 1000)}
		}
		out[i] = data.Entry{ID: data.ID(i), Pos: p}
	}
	return out
}

// bruteRange returns entries inside q by linear scan.
func bruteRange(entries []data.Entry, q geo.Rect) []data.Entry {
	var out []data.Entry
	for _, e := range entries {
		if q.Contains(e.Pos) {
			out = append(out, e)
		}
	}
	return out
}

func idsOf(entries []data.Entry) []uint64 {
	ids := make([]uint64, len(entries))
	for i, e := range entries {
		ids[i] = e.ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func sameIDs(a, b []data.Entry) bool {
	x, y := idsOf(a), idsOf(b)
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

func testQueries() []geo.Rect {
	return []geo.Rect{
		geo.NewRect(geo.Vec{100, 100, 0}, geo.Vec{300, 300, 1000}),
		geo.NewRect(geo.Vec{0, 0, 0}, geo.Vec{1000, 1000, 1000}),
		geo.NewRect(geo.Vec{500, 500, 500}, geo.Vec{510, 510, 510}),
		geo.NewRect(geo.Vec{-100, -100, -100}, geo.Vec{-1, -1, -1}), // empty
		geo.NewRect(geo.Vec{190, 190, 100}, geo.Vec{210, 210, 900}),
	}
}

// buildBoth packs the entries in both leaf orders: STR (BulkLoad) and
// (Hilbert key, ID).
func buildBoth(t *testing.T, entries []data.Entry) []*Tree {
	t.Helper()
	str := MustNew(Config{Fanout: 16})
	str.BulkLoad(entries)
	hil := MustNew(Config{Fanout: 16})
	sorted := slices.Clone(entries)
	hil.quantizeFor(sorted)
	hil.sortHilbert(sorted)
	hil.Pack(sorted)
	return []*Tree{str, hil}
}

func TestBulkLoadMatchesBrute(t *testing.T) {
	entries := genEntries(5000, 1)
	for _, tree := range buildBoth(t, entries) {
		if err := tree.Validate(); err != nil {
			t.Fatalf("invalid tree after bulk load: %v", err)
		}
		if tree.Len() != len(entries) {
			t.Fatalf("Len = %d", tree.Len())
		}
		for _, q := range testQueries() {
			got := tree.ReportAll(q)
			want := bruteRange(entries, q)
			if !sameIDs(got, want) {
				t.Errorf("range %v: got %d entries, want %d", q, len(got), len(want))
			}
			if c := tree.Count(q); c != len(want) {
				t.Errorf("Count(%v) = %d, want %d", q, c, len(want))
			}
		}
	}
}

// in is q.Contains(p) as 1 or 0 in the leaf kernel's branch-free form, the
// reference the kernel's face test is held to. Each axis is !(p < min) &
// !(p > max), never p >= min && p <= max, so that a NaN coordinate or bound
// passes exactly as it passes geo.Rect.Contains (every comparison with NaN
// is false).
func in(q *geo.Rect, p *geo.Vec) int {
	return b2i(!(p[0] < q.Min[0])) & b2i(!(p[0] > q.Max[0])) &
		b2i(!(p[1] < q.Min[1])) & b2i(!(p[1] > q.Max[1])) &
		b2i(!(p[2] < q.Min[2])) & b2i(!(p[2] > q.Max[2]))
}

// TestInMatchesRectContains pins the branch-free leaf test of Count and
// CountWhere to geo.Rect.Contains: in, and the faces cut for a box around
// the point, on points on every face, edge and corner, just outside each
// face, NaN coordinates (which Contains admits, as every comparison with
// NaN is false) and ±Inf bounds.
func TestInMatchesRectContains(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	box := geo.NewRect(geo.Vec{0, 0, 0}, geo.Vec{1, 2, 3})
	var points []geo.Vec
	for _, x := range []float64{-0.5, 0, 0.5, 1, 1.5, nan} {
		for _, y := range []float64{-1, 0, 1, 2, 2.5, nan} {
			for _, z := range []float64{-inf, 0, 1.5, 3, 3.5, inf, nan} {
				points = append(points, geo.Vec{x, y, z})
			}
		}
	}
	rects := []geo.Rect{
		box,
		{Min: geo.Vec{-inf, -inf, -inf}, Max: geo.Vec{inf, inf, inf}},
		{Min: geo.Vec{0, -inf, 0}, Max: geo.Vec{inf, 2, 3}},
		{Min: geo.Vec{1, 2, 3}, Max: geo.Vec{1, 2, 3}},
		{Min: geo.Vec{nan, 0, 0}, Max: geo.Vec{1, nan, 3}},
		geo.EmptyRect(),
	}
	for _, q := range rects {
		for _, p := range points {
			want := 0
			if q.Contains(p) {
				want = 1
			}
			if got := in(&q, &p); got != want {
				t.Errorf("in(%v, %v) = %d, Contains says %d", q, p, got, want)
			}
			// A box of p alone, and box grown to hold p: every face of q
			// cuts the first, some are redundant for the second.
			for _, under := range []geo.Rect{geo.RectFromPoint(p), box.ExtendPoint(p)} {
				f := cutFaces(&q, &under)
				if got := f.in(&p); got != want {
					t.Errorf("cutFaces(%v, %v).in(%v) = %d, Contains says %d", q, under, p, got, want)
				}
			}
		}
	}

	// Through the leaf scans: the finite points around the box plus one far
	// point, so that no node's MBR is contained and every leaf is filtered.
	// Attribute v alternates 0/1: v >= 0 takes the all-match leaf loop and
	// v = 1 the per-record one.
	ds := data.NewDataset("faces")
	ds.AddNumericColumn("v")
	for _, p := range append(points, geo.Vec{9, 9, 9}) {
		if math.IsNaN(p[0]+p[1]+p[2]) || math.IsInf(p[2], 0) {
			continue
		}
		id := ds.AppendFast(p)
		if err := ds.SetNumeric("v", id, float64(id%2)); err != nil {
			t.Fatal(err)
		}
	}
	tree := MustNew(Config{Fanout: 8})
	tree.BulkLoad(ds.Entries())
	sums := NewSummaries(tree, ds)
	sums.Precompute()
	if got, want := tree.Count(box), len(bruteRange(ds.Entries(), box)); got != want {
		t.Errorf("Count(box) = %d, want %d", got, want)
	}
	for _, term := range []pred.Term{{Attr: "v", Lo: 0, Hi: inf}, {Attr: "v", Lo: 1, Hi: 1}} {
		c := compilePred(t, ds, term)
		if got, want := tree.CountWhere(box, NewTreeFilter(c, sums)), bruteCountWhere(ds, box, c); got != want {
			t.Errorf("CountWhere(box, %+v) = %d, want %d", term, got, want)
		}
	}
}

func TestEmptyTree(t *testing.T) {
	tree := MustNew(Config{Fanout: 8})
	q := geo.NewRect(geo.Vec{0, 0, 0}, geo.Vec{1, 1, 1})
	if got := tree.ReportAll(q); len(got) != 0 {
		t.Errorf("empty tree reported %d entries", len(got))
	}
	if tree.Count(q) != 0 {
		t.Error("empty tree count should be 0")
	}
	if err := tree.Validate(); err != nil {
		t.Errorf("empty tree invalid: %v", err)
	}
	if parts := tree.Canonical(q); len(parts) != 0 {
		t.Errorf("empty tree canonical set should be empty, got %d", len(parts))
	}
}

// TestInsertMatchesBrute grows an empty tree by InsertBatch runs of 1, 2, 7
// and 300 entries, deleting a tenth of the live entries after each round
// (enough to dissolve nodes, whose orphans go back in as one batch), and
// validates the tree after every step and checks it against brute force
// after every round. With bounds and without: the unit box clamps nearly
// every key to one corner, and the degenerate keys must still give a valid,
// complete tree.
func TestInsertMatchesBrute(t *testing.T) {
	entries := genEntries(3000, 2)
	for _, bounds := range []geo.Rect{geo.NewRect(geo.Vec{-200, -200, 0}, geo.Vec{1200, 1200, 1000}), {}} {
		tree := MustNew(Config{Fanout: 8, Bounds: bounds})
		rng := stats.NewRNG(5)
		var live []data.Entry
		validate := func(step string) {
			t.Helper()
			if err := tree.Validate(); err != nil {
				t.Fatalf("bounds %v: invalid after %s: %v", bounds, step, err)
			}
			if tree.Len() != len(live) {
				t.Fatalf("bounds %v: Len = %d after %s, want %d", bounds, tree.Len(), step, len(live))
			}
		}
		dissolved := 0
		for next := 0; next < len(entries); {
			for _, run := range []int{1, 2, 7, 300} {
				hi := min(next+run, len(entries))
				tree.InsertBatch(slices.Clone(entries[next:hi]))
				live = append(live, entries[next:hi]...)
				next = hi
				validate(fmt.Sprintf("a run of %d", run))
			}
			for range len(live) / 10 {
				j := rng.Intn(len(live))
				nodes := tree.NodeCount()
				if !tree.Delete(live[j]) {
					t.Fatalf("bounds %v: entry %d not found", bounds, live[j].ID)
				}
				if tree.NodeCount() < nodes {
					dissolved++
				}
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
				validate("a delete")
			}
			for _, q := range testQueries() {
				if got, want := tree.ReportAll(q), bruteRange(live, q); !sameIDs(got, want) {
					t.Fatalf("bounds %v range %v: got %d, want %d", bounds, q, len(got), len(want))
				}
			}
		}
		if dissolved == 0 {
			t.Errorf("bounds %v: no delete dissolved a node", bounds)
		}
	}
}

// TestHilbertBounds pins the one bounds rule — set bounds, else the
// entries' MBR, else the unit box — and that a pack without bounds keys
// its leaves exactly as a pack over its own MBR does.
func TestHilbertBounds(t *testing.T) {
	entries := genEntries(2000, 12)
	mbr := EntryBounds(entries)
	set := geo.NewRect(geo.Vec{-1, -1, -1}, geo.Vec{2, 2, 2})
	unit := geo.NewRect(geo.Vec{0, 0, 0}, geo.Vec{1, 1, 1})
	origin := []data.Entry{{ID: 1}}
	for _, c := range []struct {
		bounds  geo.Rect
		entries []data.Entry
		want    geo.Rect
	}{
		{set, entries, set},
		{geo.Rect{}, entries, mbr},
		{geo.EmptyRect(), entries, mbr},
		{geo.Rect{}, nil, unit},
		{geo.Rect{}, origin, unit},
	} {
		if got := HilbertBounds(c.bounds, c.entries); got != c.want {
			t.Errorf("HilbertBounds(%v, %d entries) = %v, want %v", c.bounds, len(c.entries), got, c.want)
		}
	}
	sorted := STROrder(16, entries)[0]
	derived, explicit := MustNew(Config{Fanout: 16}), MustNew(Config{Fanout: 16, Bounds: mbr})
	derived.Pack(sorted)
	explicit.Pack(slices.Clone(sorted))
	var keys func(n *Node) []uint64
	keys = func(n *Node) []uint64 {
		out := append([]uint64{n.LHV()}, n.HilbertKeys()...)
		for _, c := range n.Children() {
			out = append(out, keys(c)...)
		}
		return out
	}
	a, b := keys(derived.Root()), keys(explicit.Root())
	if len(a) != len(b) {
		t.Fatalf("key walks differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("key %d: derived %d, explicit %d", i, a[i], b[i])
		}
	}
}

func TestDelete(t *testing.T) {
	entries := genEntries(2000, 3)
	for _, tree := range buildBoth(t, entries) {
		rng := stats.NewRNG(99)
		// Delete a random half.
		perm := rng.Perm(len(entries))
		deleted := make(map[data.ID]bool)
		for _, i := range perm[:1000] {
			if !tree.Delete(entries[i]) {
				t.Fatalf("Delete(%v) not found", entries[i])
			}
			deleted[entries[i].ID] = true
		}
		if err := tree.Validate(); err != nil {
			t.Fatalf("invalid after deletes: %v", err)
		}
		if tree.Len() != 1000 {
			t.Fatalf("Len = %d, want 1000", tree.Len())
		}
		var remaining []data.Entry
		for _, e := range entries {
			if !deleted[e.ID] {
				remaining = append(remaining, e)
			}
		}
		for _, q := range testQueries() {
			got := tree.ReportAll(q)
			want := bruteRange(remaining, q)
			if !sameIDs(got, want) {
				t.Errorf("after delete, range %v: got %d, want %d", q, len(got), len(want))
			}
		}
		// Deleting a missing entry returns false.
		if tree.Delete(data.Entry{ID: 999999, Pos: geo.Vec{1, 1, 1}}) {
			t.Error("deleting a missing entry should return false")
		}
	}
}

func TestDeleteEverything(t *testing.T) {
	entries := genEntries(500, 4)
	for _, tree := range buildBoth(t, entries) {
		for _, e := range entries {
			if !tree.Delete(e) {
				t.Fatalf("entry %d not found", e.ID)
			}
		}
		if tree.Len() != 0 {
			t.Fatalf("Len = %d after deleting everything", tree.Len())
		}
		if err := tree.Validate(); err != nil {
			t.Fatalf("invalid after emptying: %v", err)
		}
		q := geo.NewRect(geo.Vec{0, 0, 0}, geo.Vec{1000, 1000, 1000})
		if got := tree.ReportAll(q); len(got) != 0 {
			t.Errorf("emptied tree reported %d entries", len(got))
		}
	}
}

func TestCanonicalPartition(t *testing.T) {
	entries := genEntries(4000, 5)
	for _, tree := range buildBoth(t, entries) {
		for _, q := range testQueries() {
			parts := tree.Canonical(q)
			total := 0
			seen := make(map[data.ID]bool)
			for _, p := range parts {
				total += p.Matching
				// Collect all matching entries under the part.
				var collect func(n *Node)
				collect = func(n *Node) {
					if n.IsLeaf() {
						for _, e := range n.Entries() {
							if q.Contains(e.Pos) {
								if seen[e.ID] {
									t.Fatalf("entry %d in two canonical parts", e.ID)
								}
								seen[e.ID] = true
							}
						}
						return
					}
					for _, c := range n.Children() {
						collect(c)
					}
				}
				collect(p.Node)
				if p.Full && p.Matching != p.Node.Count() {
					t.Errorf("full part matching %d != count %d", p.Matching, p.Node.Count())
				}
			}
			want := tree.Count(q)
			if total != want {
				t.Errorf("canonical matching sum = %d, want %d", total, want)
			}
			if len(seen) != want {
				t.Errorf("canonical parts cover %d entries, want %d", len(seen), want)
			}
		}
	}
}

func TestCanonicalSize(t *testing.T) {
	entries := genEntries(4000, 6)
	tree := MustNew(Config{Fanout: 16})
	tree.BulkLoad(entries)
	for _, q := range testQueries() {
		// CanonicalSize counts leaves/nodes in the decomposition, which
		// must be at least the number of non-empty parts.
		size := tree.CanonicalSize(q)
		parts := tree.Canonical(q)
		if size < len(parts) {
			t.Errorf("CanonicalSize %d < parts %d", size, len(parts))
		}
	}
}

// Property: inserting a run of 1, 2, 7 or 300 entries around an arbitrary
// point and deleting them again, one by one in random order, keeps the tree
// valid at every step and leaves range results unchanged.
func TestInsertDeleteRoundTrip(t *testing.T) {
	base := genEntries(800, 7)
	tree := MustNew(Config{Fanout: 8})
	tree.BulkLoad(base)
	q := geo.NewRect(geo.Vec{0, 0, 0}, geo.Vec{1000, 1000, 1000})
	before := len(tree.ReportAll(q))

	f := func(x, y, tt float64, seed int64, run uint8) bool {
		clamp := func(v float64) float64 {
			if v != v || v < -1e6 {
				return 0
			}
			if v > 1e6 {
				return 1e6
			}
			return v
		}
		rng := stats.NewRNG(seed)
		batch := make([]data.Entry, []int{1, 2, 7, 300}[run%4])
		for i := range batch {
			batch[i] = data.Entry{
				ID: data.ID(1_000_000 + i),
				Pos: geo.Vec{clamp(x + rng.NormFloat64()*50), clamp(y + rng.NormFloat64()*50),
					clamp(tt + rng.NormFloat64()*50)},
			}
		}
		tree.InsertBatch(slices.Clone(batch))
		if err := tree.Validate(); err != nil {
			t.Logf("validate after a run of %d: %v", len(batch), err)
			return false
		}
		for _, i := range rng.Perm(len(batch)) {
			if !tree.Delete(batch[i]) {
				return false
			}
			if err := tree.Validate(); err != nil {
				t.Logf("validate after a delete: %v", err)
				return false
			}
		}
		return tree.Len() == len(base) && len(tree.ReportAll(q)) == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSearchEarlyStop(t *testing.T) {
	entries := genEntries(1000, 8)
	tree := MustNew(Config{Fanout: 16})
	tree.BulkLoad(entries)
	q := geo.NewRect(geo.Vec{0, 0, 0}, geo.Vec{1000, 1000, 1000})
	n := 0
	tree.Search(q, func(data.Entry) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Errorf("early stop visited %d entries, want 10", n)
	}
}

func TestIOAccounting(t *testing.T) {
	dev := iosim.NewDevice(0, iosim.DefaultCostModel())
	tree := MustNew(Config{Fanout: 16, Device: dev})
	tree.BulkLoad(genEntries(5000, 9))
	dev.ResetStats()
	q := geo.NewRect(geo.Vec{100, 100, 0}, geo.Vec{300, 300, 1000})
	tree.ReportAll(q)
	if got := dev.Stats().Logical; got == 0 {
		t.Error("range query should charge page accesses")
	}
	// Counting a fully contained range touches far fewer pages than
	// reporting it.
	dev.ResetStats()
	tree.Count(q)
	countIO := dev.Stats().Logical
	dev.ResetStats()
	tree.ReportAll(q)
	reportIO := dev.Stats().Logical
	if countIO > reportIO {
		t.Errorf("count I/O (%d) should not exceed report I/O (%d)", countIO, reportIO)
	}
}

func TestFanoutValidation(t *testing.T) {
	if _, err := New(Config{Fanout: 2}); err == nil {
		t.Error("fanout 2 should be rejected")
	}
}

func TestDuplicatePositions(t *testing.T) {
	// Many records at the same point must all be stored and reported.
	entries := make([]data.Entry, 100)
	for i := range entries {
		entries[i] = data.Entry{ID: data.ID(i), Pos: geo.Vec{5, 5, 5}}
	}
	for _, tree := range buildBoth(t, entries) {
		q := geo.NewRect(geo.Vec{5, 5, 5}, geo.Vec{5, 5, 5})
		if got := len(tree.ReportAll(q)); got != 100 {
			t.Errorf("duplicate positions: got %d, want 100", got)
		}
	}
}

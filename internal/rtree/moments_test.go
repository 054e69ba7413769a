package rtree

import (
	"math"
	"testing"

	"storm/internal/data"
	"storm/internal/geo"
	"storm/internal/pred"
	"storm/internal/stats"
)

// FuzzExactMoments holds the exact plan's descent (Summaries.Moments plus
// CoveredValues) to ReportAllWhereTo and a Welford pass over the reported
// records' present values: the same records, and mean and variance within
// the benchmark's closeTo. The tree is built from a seeded grid with
// duplicate points, NaN coordinates and NaN values, churned by inserts and
// deletes after its summaries were computed (so the descent reads stale
// ones), and queried with or without a predicate: one term, two terms, or
// a term on a column the summaries do not hold. mode&8 packs 300-entry
// leaves; capped below the population the walk must still count exactly.
func FuzzExactMoments(f *testing.F) {
	f.Add(int64(1), uint16(600), -2.0, -2.0, 3.0, 3.0, 0.0, 2.0, uint8(0), uint8(0))
	f.Add(int64(2), uint16(1500), -4.0, -1.0, 1.5, 4.0, -1.0, 1.0, uint8(1), uint8(40))
	f.Add(int64(3), uint16(900), -3.5, -3.5, 3.5, 3.5, -0.5, 3.0, uint8(2), uint8(120))
	f.Add(int64(4), uint16(1200), -1.0, -4.0, 4.0, 0.5, -2.0, 0.0, uint8(3), uint8(60))
	f.Add(int64(5), uint16(1900), -4.5, -4.5, 4.5, 4.5, 1.0, 4.0, uint8(9), uint8(200))
	f.Add(int64(6), uint16(50), math.Inf(-1), -1.0, math.NaN(), 2.0, math.NaN(), 1.0, uint8(1), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, size uint16, x0, y0, x1, y1, lo, hi float64, mode, churn uint8) {
		rng := stats.NewRNG(seed)
		ds := data.NewDataset("moments")
		for _, c := range []string{"v", "w"} {
			ds.AddNumericColumn(c)
		}
		grid := func() float64 { return float64(rng.Intn(9)) - 4 }
		add := func() data.Entry {
			p := geo.Vec{grid(), grid(), grid()}
			if rng.Intn(50) == 0 {
				p[rng.Intn(3)] = math.NaN()
			}
			id := ds.AppendFast(p)
			for _, c := range []string{"v", "w"} {
				v := grid() + rng.Float64()
				if rng.Intn(10) == 0 {
					v = math.NaN()
				}
				if err := ds.SetNumeric(c, id, v); err != nil {
					t.Fatal(err)
				}
			}
			return ds.Entry(id)
		}
		for i := 0; i < int(size)%2000+1; i++ {
			add()
		}
		fanout := 8
		if mode&8 != 0 {
			fanout = 300
		}
		tr := MustNew(Config{Fanout: fanout})
		live := ds.Entries()
		tr.BulkLoad(live)
		sums := NewSummaries(tr, ds)
		sums.Precompute()
		// u joins after the summaries: a term on it is tested through Match.
		ds.AddNumericColumn("u")
		for i := 0; i < int(churn); i++ {
			e := add()
			if err := ds.SetNumeric("u", e.ID, grid()); err != nil {
				t.Fatal(err)
			}
			tr.InsertBatch([]data.Entry{e})
			live = append(live, e)
			j := rng.Intn(len(live))
			if p := live[j].Pos; p == p && tr.Delete(live[j]) {
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}

		q := geo.Rect{Min: geo.Vec{math.Min(x0, x1), math.Min(y0, y1), math.Inf(-1)}, Max: geo.Vec{math.Max(x0, x1), math.Max(y0, y1), math.Inf(1)}}
		if mode&16 != 0 {
			q.Min[2], q.Max[2] = -1, 2
		}
		var terms []pred.Term
		switch mode % 4 {
		case 1:
			terms = []pred.Term{{Attr: "v", Lo: lo, Hi: hi}}
		case 2:
			terms = []pred.Term{{Attr: "v", Lo: lo, Hi: math.Inf(1), LoOpen: true}, {Attr: "w", Lo: math.Inf(-1), Hi: hi}}
		case 3:
			terms = []pred.Term{{Attr: "u", Lo: lo, Hi: hi}}
		}
		var filter *TreeFilter
		if terms != nil {
			c, err := pred.Predicate{Terms: terms}.Compile(ds)
			if err != nil {
				t.Fatal(err)
			}
			filter = NewTreeFilter(c, sums)
		}

		attr, _ := sums.AttrIndex("v")
		got, covered := sums.Moments(q, filter, attr, math.MaxInt, nil)
		rest, ok := sums.CoveredValues(covered, attr, nil, nil)
		if !ok {
			t.Fatal("CoveredValues stopped without a done channel")
		}
		got.Values.Merge(rest)
		col, _ := ds.NumericColumn("v")
		var want Moments
		for _, e := range tr.ReportAllWhereTo(nil, q, filter) {
			want.Records++
			if v := col[e.ID]; v == v {
				want.Values.Add(v)
			}
		}
		closeTo := func(a, b float64) bool { return math.Abs(a-b) <= 1e-7*math.Max(1, math.Abs(b)) }
		g, w := got.Values, want.Values
		if got.Records != want.Records || g.N() != w.N() || !closeTo(g.Mean(), w.Mean()) || !closeTo(g.SampleVariance(), w.SampleVariance()) {
			t.Fatalf("q %v terms %v: moments (%d records; %d, %v, %v), reference (%d records; %d, %v, %v)",
				q, terms, got.Records, g.N(), g.Mean(), g.SampleVariance(), want.Records, w.N(), w.Mean(), w.SampleVariance())
		}
		if capped, _ := sums.Moments(q, filter, attr, want.Records/2, nil); capped.Records != want.Records {
			t.Fatalf("q %v terms %v: capped at %d, %d records; want %d", q, terms, want.Records/2, capped.Records, want.Records)
		}
	})
}

// TestCoveredValuesStopsWhenDone checks that the covered pass of the exact
// plan gives up once its done channel is closed, and reads every value while
// it stays open.
func TestCoveredValuesStopsWhenDone(t *testing.T) {
	ds := data.NewDataset("stop")
	ds.AddNumericColumn("v")
	for i := 0; i < 2000; i++ {
		id := ds.AppendFast(geo.Vec{float64(i % 40), float64(i / 40), 0})
		if err := ds.SetNumeric("v", id, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	tr := MustNew(Config{Fanout: 8})
	tr.BulkLoad(ds.Entries())
	sums := NewSummaries(tr, ds)
	attr, _ := sums.AttrIndex("v")
	m, covered := sums.Moments(geo.UniverseRange().Rect(), nil, attr, math.MaxInt, nil)
	if m.Records != 2000 || len(covered) == 0 {
		t.Fatalf("descent: %d records, %d covered nodes; want 2000 and some", m.Records, len(covered))
	}
	open := make(chan struct{})
	if w, ok := sums.CoveredValues(covered, attr, nil, open); !ok || w.N() != 2000 {
		t.Fatalf("open channel: ok %v after %d values; want true after 2000", ok, w.N())
	}
	close(open)
	if w, ok := sums.CoveredValues(covered, attr, nil, open); ok || w.N() != 0 {
		t.Fatalf("closed channel: ok %v after %d values; want false after 0", ok, w.N())
	}
}

// TestMaskedMomentsAreExact holds the kernel's shifted sums to the exact
// moments of values far from zero with a small spread — where a sum of
// squares would cancel, and Welford's running mean rounds — under masks
// that skip the first entries. The values are 1e9 plus multiples of 1/8,
// so a two-pass sum over their offsets is exact.
func TestMaskedMomentsAreExact(t *testing.T) {
	vs := []float64{math.NaN(), 1e9 + 0.25, 1e9 - 0.5, 1e9 + 0.125, math.NaN(), 1e9, 1e9 + 0.75, 1e9 - 0.25}
	for m := 0; m < 1<<len(vs); m++ {
		mask := make([]uint64, len(vs))
		var offs []float64
		for i := range vs {
			mask[i] = uint64(m >> i & 1)
			if mask[i] == 1 && vs[i] == vs[i] {
				offs = append(offs, vs[i]-1e9)
			}
		}
		var sum, m2 float64
		for _, d := range offs {
			sum += d
		}
		mean := sum / float64(max(len(offs), 1))
		for _, d := range offs {
			m2 += (d - mean) * (d - mean)
		}
		_, got := maskedMoments(vs, mask)
		if got.N() != len(offs) || (len(offs) > 0 && (got.Mean() != 1e9+mean || math.Abs(got.Variance()*float64(got.N())-m2) > 1e-15)) {
			t.Fatalf("mask %b: (%d, %v, %v), exact (%d, %v, %v)", m, got.N(), got.Mean(), got.Variance()*float64(got.N()), len(offs), 1e9+mean, m2)
		}
	}
}

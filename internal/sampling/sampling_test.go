package sampling

import (
	"math"
	"testing"

	"storm/internal/data"
	"storm/internal/geo"
	"storm/internal/iosim"
	"storm/internal/rtree"
	"storm/internal/sampling/samplingtest"
	"storm/internal/stats"
)

// fixture builds a dataset + tree with a known query range.
type fixture struct {
	ds      *data.Dataset
	entries []data.Entry
	tree    *rtree.Tree
	query   geo.Rect
	inQuery map[data.ID]bool
	q       int
}

func newFixture(t testing.TB, n int, seed int64) *fixture {
	t.Helper()
	rng := stats.NewRNG(seed)
	ds := data.NewDataset("test")
	for i := 0; i < n; i++ {
		ds.AppendFast(geo.Vec{rng.Uniform(0, 100), rng.Uniform(0, 100), rng.Uniform(0, 100)})
	}
	entries := ds.Entries()
	tree := rtree.MustNew(rtree.Config{Fanout: 16})
	tree.BulkLoad(entries)
	query := geo.NewRect(geo.Vec{20, 20, 0}, geo.Vec{60, 60, 100})
	f := &fixture{ds: ds, entries: entries, tree: tree, query: query,
		inQuery: make(map[data.ID]bool)}
	for _, e := range entries {
		if query.Contains(e.Pos) {
			f.inQuery[e.ID] = true
		}
	}
	f.q = len(f.inQuery)
	return f
}

// drainAll pulls every sample from a without-replacement sampler.
func drainAll(s Sampler, limit int) []data.Entry {
	var out []data.Entry
	for len(out) < limit {
		e, ok := samplingtest.Next(s)
		if !ok {
			break
		}
		out = append(out, e)
	}
	return out
}

// checkWithoutReplacement asserts the stream equals P ∩ Q exactly once each.
func checkWithoutReplacement(t *testing.T, f *fixture, s Sampler) {
	t.Helper()
	got := drainAll(s, f.q+10)
	if len(got) != f.q {
		t.Fatalf("%s: drained %d samples, want exactly q=%d", s.Name(), len(got), f.q)
	}
	seen := make(map[data.ID]bool)
	for _, e := range got {
		if !f.inQuery[e.ID] {
			t.Fatalf("%s: sample %d outside query", s.Name(), e.ID)
		}
		if seen[e.ID] {
			t.Fatalf("%s: duplicate sample %d", s.Name(), e.ID)
		}
		seen[e.ID] = true
	}
}

// checkUniformFirstSample runs many independent samplers and chi-square
// tests the distribution of the first sample over the matching records.
func checkUniformFirstSample(t *testing.T, f *fixture, mk func(seed int64) Sampler) {
	t.Helper()
	counts := make(map[data.ID]int)
	const trials = 30000
	for i := 0; i < trials; i++ {
		s := mk(int64(1000 + i))
		e, ok := samplingtest.Next(s)
		if !ok {
			t.Fatal("sampler empty on first draw")
		}
		if !f.inQuery[e.ID] {
			t.Fatalf("first sample %d outside query", e.ID)
		}
		counts[e.ID]++
	}
	obs := make([]int, 0, f.q)
	exp := make([]float64, 0, f.q)
	for id := range f.inQuery {
		obs = append(obs, counts[id])
		exp = append(exp, float64(trials)/float64(f.q))
	}
	stat := stats.ChiSquareStat(obs, exp)
	// 99.9% critical value: deterministic seeds keep this stable.
	crit := stats.ChiSquareQuantile(0.999, f.q-1)
	if stat > crit {
		t.Errorf("first-sample chi-square %v exceeds crit %v (df=%d): not uniform", stat, crit, f.q-1)
	}
}

func TestQueryFirstWithoutReplacement(t *testing.T) {
	f := newFixture(t, 2000, 1)
	s := NewQueryFirst(f.tree, f.query, stats.NewRNG(42))
	checkWithoutReplacement(t, f, s)
}

func TestQueryFirstUniform(t *testing.T) {
	f := newFixture(t, 300, 2)
	checkUniformFirstSample(t, f, func(seed int64) Sampler {
		return NewQueryFirst(f.tree, f.query, stats.NewRNG(seed))
	})
}

func TestQueryFirstEmptyRange(t *testing.T) {
	f := newFixture(t, 500, 4)
	empty := geo.NewRect(geo.Vec{-10, -10, -10}, geo.Vec{-5, -5, -5})
	s := NewQueryFirst(f.tree, empty, stats.NewRNG(1))
	if _, ok := samplingtest.Next(s); ok {
		t.Error("empty range should yield no samples")
	}
}

func TestSampleFirstWithoutReplacement(t *testing.T) {
	f := newFixture(t, 2000, 5)
	s := NewSampleFirst(f.ds, f.query, stats.NewRNG(42), iosim.Discard, 64)
	checkWithoutReplacement(t, f, s)
}

func TestSampleFirstUniform(t *testing.T) {
	f := newFixture(t, 300, 6)
	checkUniformFirstSample(t, f, func(seed int64) Sampler {
		return NewSampleFirst(f.ds, f.query, stats.NewRNG(seed), iosim.Discard, 64)
	})
}

func TestSampleFirstEmptyRangeTerminates(t *testing.T) {
	f := newFixture(t, 500, 7)
	empty := geo.NewRect(geo.Vec{-10, -10, -10}, geo.Vec{-5, -5, -5})
	s := NewSampleFirst(f.ds, empty, stats.NewRNG(1), iosim.Discard, 64)
	s.MaxAttempts = 10000
	if _, ok := samplingtest.Next(s); ok {
		t.Fatal("empty range should exhaust via MaxAttempts")
	}
	if s.Attempts() != 10000 {
		t.Errorf("attempts = %d, want 10000", s.Attempts())
	}
}

func TestSampleFirstEmptyDataset(t *testing.T) {
	ds := data.NewDataset("empty")
	q := geo.NewRect(geo.Vec{0, 0, 0}, geo.Vec{1, 1, 1})
	s := NewSampleFirst(ds, q, stats.NewRNG(1), iosim.Discard, 64)
	if _, ok := samplingtest.Next(s); ok {
		t.Fatal("empty dataset should yield nothing")
	}
}

func TestRandomPathWithoutReplacement(t *testing.T) {
	f := newFixture(t, 2000, 8)
	s := NewRandomPath(f.tree, f.query, stats.NewRNG(42))
	checkWithoutReplacement(t, f, s)
}

func TestRandomPathUniform(t *testing.T) {
	f := newFixture(t, 300, 9)
	checkUniformFirstSample(t, f, func(seed int64) Sampler {
		return NewRandomPath(f.tree, f.query, stats.NewRNG(seed))
	})
}

// TestRandomPathUniformSkewed stresses the acceptance/rejection correction:
// a heavily skewed point distribution means root-to-leaf paths have very
// different branching normalizers, which an uncorrected count-weighted walk
// would bias toward dense regions clipped by the query boundary.
func TestRandomPathUniformSkewed(t *testing.T) {
	rng := stats.NewRNG(77)
	ds := data.NewDataset("skew")
	// Dense cluster near the query's edge plus sparse uniform points.
	for i := 0; i < 600; i++ {
		if i < 500 {
			ds.AppendFast(geo.Vec{19 + rng.Uniform(0, 2), 19 + rng.Uniform(0, 2), rng.Uniform(0, 100)})
		} else {
			ds.AppendFast(geo.Vec{rng.Uniform(0, 100), rng.Uniform(0, 100), rng.Uniform(0, 100)})
		}
	}
	entries := ds.Entries()
	tree := rtree.MustNew(rtree.Config{Fanout: 8})
	tree.BulkLoad(entries)
	query := geo.NewRect(geo.Vec{20, 20, 0}, geo.Vec{60, 60, 100})
	f := &fixture{ds: ds, entries: entries, tree: tree, query: query, inQuery: map[data.ID]bool{}}
	for _, e := range entries {
		if query.Contains(e.Pos) {
			f.inQuery[e.ID] = true
		}
	}
	f.q = len(f.inQuery)
	if f.q < 20 {
		t.Fatalf("fixture degenerate: q=%d", f.q)
	}
	checkUniformFirstSample(t, f, func(seed int64) Sampler {
		return NewRandomPath(f.tree, f.query, stats.NewRNG(seed))
	})
}

func TestRandomPathEmptyRange(t *testing.T) {
	f := newFixture(t, 500, 10)
	empty := geo.NewRect(geo.Vec{-10, -10, -10}, geo.Vec{-5, -5, -5})
	s := NewRandomPath(f.tree, empty, stats.NewRNG(1))
	if _, ok := samplingtest.Next(s); ok {
		t.Fatal("empty range should yield nothing")
	}
}

// TestSamplerMeansAgree feeds each sampler's output into a mean and checks
// all agree with the true mean — an end-to-end unbiasedness smoke test.
func TestSamplerMeansAgree(t *testing.T) {
	f := newFixture(t, 5000, 11)
	trueMean := 0.0
	for id := range f.inQuery {
		trueMean += f.ds.Pos(id).X()
	}
	trueMean /= float64(f.q)

	mks := []func() Sampler{
		func() Sampler { return NewQueryFirst(f.tree, f.query, stats.NewRNG(1)) },
		func() Sampler {
			return NewSampleFirst(f.ds, f.query, stats.NewRNG(2), iosim.Discard, 64)
		},
		func() Sampler { return NewRandomPath(f.tree, f.query, stats.NewRNG(3)) },
	}
	for _, mk := range mks {
		s := mk()
		var sum float64
		k := f.q / 2
		for i := 0; i < k; i++ {
			e, ok := samplingtest.Next(s)
			if !ok {
				t.Fatalf("%s exhausted early", s.Name())
			}
			sum += e.Pos.X()
		}
		got := sum / float64(k)
		if math.Abs(got-trueMean) > 2.5 { // x in [20,60], stddev ~11.5, se ~0.4
			t.Errorf("%s: sample mean %v too far from true %v", s.Name(), got, trueMean)
		}
	}
}

func TestSampleFirstChargesIO(t *testing.T) {
	f := newFixture(t, 2000, 12)
	dev := iosim.NewDevice(0, iosim.DefaultCostModel())
	s := NewSampleFirst(f.ds, f.query, stats.NewRNG(5), dev, 64)
	for i := 0; i < 100; i++ {
		samplingtest.Next(s)
	}
	if dev.Stats().Logical == 0 {
		t.Error("SampleFirst should charge page accesses")
	}
	if dev.Stats().Logical < 100 {
		t.Error("each attempt should charge at least one access")
	}
}

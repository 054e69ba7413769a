package rstree

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

func genEntries(n int, seed int64) []data.Entry {
	rng := stats.NewRNG(seed)
	out := make([]data.Entry, n)
	for i := range out {
		out[i] = data.Entry{
			ID:  data.ID(i),
			Pos: geo.Vec{rng.Uniform(0, 100), rng.Uniform(0, 100), rng.Uniform(0, 100)},
		}
	}
	return out
}

func matching(entries []data.Entry, q geo.Rect) map[data.ID]bool {
	m := make(map[data.ID]bool)
	for _, e := range entries {
		if q.Contains(e.Pos) {
			m[e.ID] = true
		}
	}
	return m
}

var testQuery = geo.NewRect(geo.Vec{20, 20, 0}, geo.Vec{60, 60, 100})

func TestBuild(t *testing.T) {
	entries := genEntries(5000, 1)
	idx, err := Build(entries, Config{Fanout: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if idx.Len() != 5000 {
		t.Fatalf("Len = %d", idx.Len())
	}
	if err := idx.Tree().Validate(); err != nil {
		t.Fatalf("underlying tree invalid: %v", err)
	}
	if got := idx.Count(testQuery); got != len(matching(entries, testQuery)) {
		t.Errorf("Count = %d", got)
	}
}

func TestWithoutReplacementComplete(t *testing.T) {
	entries := genEntries(8000, 2)
	idx, err := Build(entries, Config{Fanout: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	want := matching(entries, testQuery)
	s := idx.Sampler(testQuery, stats.NewRNG(9))
	got := make(map[data.ID]bool)
	for {
		e, ok := samplingtest.Next(s)
		if !ok {
			break
		}
		if !want[e.ID] {
			t.Fatalf("sample %d outside query", e.ID)
		}
		if got[e.ID] {
			t.Fatalf("duplicate sample %d", e.ID)
		}
		got[e.ID] = true
	}
	if len(got) != len(want) {
		t.Fatalf("drained %d samples, want exactly %d", len(got), len(want))
	}
}

// TestWithoutReplacementCompleteSmallBuffers forces heavy lazy explosion by
// shrinking buffers: every internal part's buffer exhausts quickly, so the
// consumed-attribution logic is exercised hard.
func TestWithoutReplacementCompleteSmallBuffers(t *testing.T) {
	entries := genEntries(4000, 3)
	idx, err := Build(entries, Config{Fanout: 16, BufferSize: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	want := matching(entries, testQuery)
	s := idx.Sampler(testQuery, stats.NewRNG(11))
	got := make(map[data.ID]bool)
	for {
		e, ok := samplingtest.Next(s)
		if !ok {
			break
		}
		if !want[e.ID] || got[e.ID] {
			t.Fatalf("bad or duplicate sample %d", e.ID)
		}
		got[e.ID] = true
	}
	if len(got) != len(want) {
		t.Fatalf("drained %d samples, want %d", len(got), len(want))
	}
}

// TestWithoutReplacementNaNCoordinates drains a query over entries of which
// some have a NaN coordinate, so the boxes above them are NaN and never
// count as contained: the sampler must emit exactly the entries the query
// contains (a NaN coordinate passes its bound, as in geo.Rect.Contains),
// as many as Count finds.
func TestWithoutReplacementNaNCoordinates(t *testing.T) {
	entries := genEntries(4000, 12)
	rng := stats.NewRNG(14)
	for i := range entries {
		if rng.Intn(50) == 0 {
			entries[i].Pos[rng.Intn(geo.Dims)] = math.NaN()
		}
	}
	idx, err := Build(entries, Config{Fanout: 16, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	want := matching(entries, testQuery)
	if got := idx.Count(testQuery); got != len(want) {
		t.Fatalf("Count = %d, want %d", got, len(want))
	}
	s := idx.Sampler(testQuery, stats.NewRNG(16))
	got := make(map[data.ID]bool)
	for {
		e, ok := samplingtest.Next(s)
		if !ok {
			break
		}
		if !want[e.ID] || got[e.ID] {
			t.Fatalf("bad or duplicate sample %d", e.ID)
		}
		got[e.ID] = true
	}
	if len(got) != len(want) {
		t.Fatalf("drained %d samples, want %d", len(got), len(want))
	}
}

// TestUniformFirstSample checks marginal uniformity: the RS-tree buffers of
// internal canonical nodes hold a fixed random subset of their subtree, so
// the uniformity guarantee is over buffer-generation randomness as well as
// query randomness — each trial rebuilds the index with a fresh seed.
func TestUniformFirstSample(t *testing.T) {
	entries := genEntries(300, 4)
	want := matching(entries, testQuery)
	q := len(want)
	if q < 10 {
		t.Fatalf("fixture degenerate: q=%d", q)
	}
	counts := make(map[data.ID]int)
	const trials = 15000
	for i := 0; i < trials; i++ {
		idx, err := Build(entries, Config{Fanout: 8, Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		s := idx.Sampler(testQuery, stats.NewRNG(int64(1000+i)))
		e, ok := samplingtest.Next(s)
		if !ok {
			t.Fatal("no first sample")
		}
		counts[e.ID]++
	}
	obs := make([]int, 0, q)
	exp := make([]float64, 0, q)
	for id := range want {
		obs = append(obs, counts[id])
		exp = append(exp, float64(trials)/float64(q))
	}
	stat := stats.ChiSquareStat(obs, exp)
	crit := stats.ChiSquareQuantile(0.999, q-1)
	if stat > crit {
		t.Errorf("first-sample chi-square %v > crit %v: not uniform", stat, crit)
	}
}

// TestUniformDeepSample verifies uniformity beyond the first draw: the
// 20th sample must also be uniform over the remaining records, which
// exercises the dynamic weight bookkeeping. We test the weaker but easily
// checkable property that the 20-sample prefix hits every record equally.
func TestUniformPrefix(t *testing.T) {
	entries := genEntries(200, 5)
	want := matching(entries, testQuery)
	q := len(want)
	if q < 25 {
		t.Fatalf("fixture degenerate: q=%d", q)
	}
	const k = 20
	const trials = 10000
	counts := make(map[data.ID]int)
	for i := 0; i < trials; i++ {
		idx, err := Build(entries, Config{Fanout: 8, BufferSize: 8, Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		s := idx.Sampler(testQuery, stats.NewRNG(int64(5000+i)))
		for j := 0; j < k; j++ {
			e, ok := samplingtest.Next(s)
			if !ok {
				t.Fatal("exhausted early")
			}
			counts[e.ID]++
		}
	}
	// Each record should appear in the prefix with probability k/q.
	obs := make([]int, 0, q)
	exp := make([]float64, 0, q)
	for id := range want {
		obs = append(obs, counts[id])
		exp = append(exp, float64(trials)*k/float64(q))
	}
	stat := stats.ChiSquareStat(obs, exp)
	crit := stats.ChiSquareQuantile(0.999, q-1)
	if stat > crit {
		t.Errorf("prefix chi-square %v > crit %v: prefix not uniform", stat, crit)
	}
}

func TestEmptyRange(t *testing.T) {
	entries := genEntries(1000, 8)
	idx, err := Build(entries, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	empty := geo.NewRect(geo.Vec{-10, -10, -10}, geo.Vec{-5, -5, -5})
	if _, ok := samplingtest.Next(idx.Sampler(empty, stats.NewRNG(1))); ok {
		t.Fatal("empty range should yield nothing")
	}
}

func TestEmptyIndex(t *testing.T) {
	idx, err := Build(nil, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := idx.Sampler(testQuery, stats.NewRNG(1))
	if _, ok := samplingtest.Next(s); ok {
		t.Fatal("empty index should yield nothing")
	}
}

func TestInsertThenSample(t *testing.T) {
	entries := genEntries(3000, 9)
	idx, err := Build(entries, Config{Fanout: 16, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	want := matching(entries, testQuery)
	// Warm the buffers with a partial query first, so stale-buffer
	// regeneration is exercised by the post-insert query.
	s := idx.Sampler(testQuery, stats.NewRNG(33))
	for i := 0; i < 50; i++ {
		samplingtest.Next(s)
	}

	for j := 0; j < 200; j++ {
		e := data.Entry{ID: data.ID(90000 + j), Pos: geo.Vec{40, 40, 50}}
		idx.InsertBatch([]data.Entry{e})
		want[e.ID] = true
	}
	if err := idx.Tree().Validate(); err != nil {
		t.Fatalf("tree invalid after inserts: %v", err)
	}

	s2 := idx.Sampler(testQuery, stats.NewRNG(37))
	got := make(map[data.ID]bool)
	for {
		e, ok := samplingtest.Next(s2)
		if !ok {
			break
		}
		if !want[e.ID] || got[e.ID] {
			t.Fatalf("bad or duplicate sample %d after insert", e.ID)
		}
		got[e.ID] = true
	}
	if len(got) != len(want) {
		t.Fatalf("drained %d, want %d (inserted records must be sampleable)", len(got), len(want))
	}
}

func TestDeleteThenSample(t *testing.T) {
	entries := genEntries(3000, 10)
	idx, err := Build(entries, Config{Fanout: 16, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	want := matching(entries, testQuery)
	// Warm buffers.
	s := idx.Sampler(testQuery, stats.NewRNG(43))
	for i := 0; i < 50; i++ {
		samplingtest.Next(s)
	}
	// Delete a third of the matching records.
	i := 0
	for id := range want {
		if i%3 == 0 {
			if !idx.Delete(entries[id]) {
				t.Fatal("delete failed")
			}
			delete(want, id)
		}
		i++
	}
	s2 := idx.Sampler(testQuery, stats.NewRNG(47))
	got := make(map[data.ID]bool)
	for {
		e, ok := samplingtest.Next(s2)
		if !ok {
			break
		}
		if !want[e.ID] {
			t.Fatalf("deleted record %d still sampled", e.ID)
		}
		if got[e.ID] {
			t.Fatalf("duplicate %d", e.ID)
		}
		got[e.ID] = true
	}
	if len(got) != len(want) {
		t.Fatalf("drained %d, want %d", len(got), len(want))
	}
}

func TestSampleMeanUnbiased(t *testing.T) {
	entries := genEntries(10000, 11)
	idx, err := Build(entries, Config{Fanout: 32, Seed: 53})
	if err != nil {
		t.Fatal(err)
	}
	want := matching(entries, testQuery)
	var trueMean float64
	for _, e := range entries {
		if want[e.ID] {
			trueMean += e.Pos.X()
		}
	}
	trueMean /= float64(len(want))
	s := idx.Sampler(testQuery, stats.NewRNG(59))
	var sum float64
	k := 400
	for i := 0; i < k; i++ {
		e, ok := samplingtest.Next(s)
		if !ok {
			t.Fatal("exhausted early")
		}
		sum += e.Pos.X()
	}
	got := sum / float64(k)
	if math.Abs(got-trueMean) > 2 {
		t.Errorf("sample mean %v too far from %v", got, trueMean)
	}
}

func TestBufferReuseAcrossDraws(t *testing.T) {
	// Drawing many samples from a small canonical set must hit the buffer
	// pool: the distinct pages touched should be far fewer than the draws.
	entries := genEntries(20000, 12)
	dev := iosim.NewDevice(4096, iosim.DefaultCostModel())
	idx, err := Build(entries, Config{Fanout: 32, Device: dev, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	dev.ResetStats()
	s := idx.Sampler(testQuery, stats.NewRNG(67))
	k := 500
	for i := 0; i < k; i++ {
		if _, ok := samplingtest.Next(s); !ok {
			t.Fatal("exhausted early")
		}
	}
	st := dev.Stats()
	if st.Reads >= uint64(k) {
		t.Errorf("RS-tree did %d physical reads for %d samples; expected locality", st.Reads, k)
	}
}

// TestBufferRegensCountsOnlyQueryWork pins what BufferRegens means: buffers
// a query had to (re)generate. The build's own precompute, which writes
// every internal node's buffer, is not one.
func TestBufferRegensCountsOnlyQueryWork(t *testing.T) {
	entries := genEntries(6000, 13)
	drain := func(x *Index, k int) {
		s := x.Sampler(testQuery, stats.NewRNG(71))
		for i := 0; i < k; i++ {
			samplingtest.Next(s)
		}
	}
	// stored counts the internal nodes carrying a current buffer, and all
	// internal nodes.
	stored := func(x *Index) (buffered, internal int) {
		for _, n := range preorder(x) {
			if !n.IsLeaf() {
				internal++
				if x.StoredBuffer(n) != nil {
					buffered++
				}
			}
		}
		return buffered, internal
	}

	built, err := Build(entries, Config{Fanout: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sorted, err := BuildSorted(rtree.STROrder(16, entries)[0], Config{Fanout: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for name, x := range map[string]*Index{"Build": built, "BuildSorted": sorted} {
		if got := x.BufferRegens(); got != 0 {
			t.Errorf("%s: BufferRegens = %d on a fresh index, want 0", name, got)
		}
		if got, want := stored(x); got != want {
			t.Errorf("%s: %d of %d internal nodes carry a precomputed buffer", name, got, want)
		}
		drain(x, 300)
		if got := x.BufferRegens(); got != 0 {
			t.Errorf("%s: BufferRegens = %d after a query over precomputed buffers, want 0", name, got)
		}
	}

	built.InsertBatch([]data.Entry{{ID: 90000, Pos: geo.Vec{40, 40, 50}}})
	drain(built, 300)
	if built.BufferRegens() == 0 {
		t.Error("BufferRegens stayed 0 after an insert and a query over the touched path")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Build(nil, Config{BufferSize: 1}); err == nil {
		t.Error("BufferSize 1 should be rejected")
	}
	if _, err := Build(nil, Config{Fanout: 2}); err == nil {
		t.Error("fanout 2 should propagate rtree error")
	}
}

func TestFenwick(t *testing.T) {
	f := newFenwick(2)
	idx := make([]int, 0)
	for _, w := range []int{5, 0, 3, 7, 2} {
		idx = append(idx, f.Append(w))
	}
	if f.Total() != 17 {
		t.Fatalf("Total = %d", f.Total())
	}
	// Weighted find boundaries.
	cases := []struct {
		target int
		want   int
	}{
		{0, 0}, {4, 0}, {5, 2}, {7, 2}, {8, 3}, {14, 3}, {15, 4}, {16, 4},
	}
	for _, c := range cases {
		if got := f.Find(c.target); got != c.want {
			t.Errorf("Find(%d) = %d, want %d", c.target, got, c.want)
		}
	}
	f.Add(0, -5) // zero out slot 0
	if got := f.Find(0); got != 2 {
		t.Errorf("after zeroing slot 0, Find(0) = %d, want 2", got)
	}
	f.Set(3, 0)
	if f.Total() != 5 {
		t.Fatalf("Total after updates = %d", f.Total())
	}
	if got := f.Find(3); got != 4 {
		t.Errorf("Find(3) = %d, want 4", got)
	}
}

func TestFenwickWeightedDrawDistribution(t *testing.T) {
	f := newFenwick(4)
	weights := []int{1, 2, 3, 4}
	for _, w := range weights {
		f.Append(w)
	}
	rng := stats.NewRNG(71)
	counts := make([]int, 4)
	const trials = 100000
	for i := 0; i < trials; i++ {
		counts[f.Find(rng.Intn(f.Total()))]++
	}
	for i, w := range weights {
		want := float64(trials) * float64(w) / 10
		if math.Abs(float64(counts[i])-want)/want > 0.05 {
			t.Errorf("slot %d drawn %d times, want ~%v", i, counts[i], want)
		}
	}
}

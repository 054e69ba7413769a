package lstree

import (
	"math"
	"testing"

	"storm/internal/data"
	"storm/internal/geo"
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

func TestBuildLevels(t *testing.T) {
	entries := genEntries(20000, 1)
	idx, err := Build(entries, Config{Fanout: 16, TopLevelMax: 256, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if idx.Levels() < 5 {
		t.Errorf("expected several levels for 20k entries, got %d", idx.Levels())
	}
	if idx.Level(0).Len() != len(entries) {
		t.Fatalf("level 0 has %d entries", idx.Level(0).Len())
	}
	// Levels shrink roughly geometrically and are nested in expectation.
	for i := 1; i < idx.Levels(); i++ {
		prev, cur := idx.Level(i-1).Len(), idx.Level(i).Len()
		if cur >= prev {
			t.Errorf("level %d (%d) not smaller than level %d (%d)", i, cur, i-1, prev)
		}
		ratio := float64(cur) / float64(prev)
		if prev > 2000 && (ratio < 0.4 || ratio > 0.6) {
			t.Errorf("level %d/%d ratio %v far from 1/2", i, i-1, ratio)
		}
	}
	// Top level must respect the threshold.
	if top := idx.Level(idx.Levels() - 1).Len(); top > 256 {
		t.Errorf("top level %d exceeds TopLevelMax", top)
	}
	// Total size is O(N): well under 3N.
	total := 0
	for i := 0; i < idx.Levels(); i++ {
		total += idx.Level(i).Len()
	}
	if total > 3*len(entries) {
		t.Errorf("total level size %d too large for N=%d", total, len(entries))
	}
}

func TestLevelsAreNested(t *testing.T) {
	entries := genEntries(5000, 2)
	idx, err := Build(entries, Config{Fanout: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	universe := geo.NewRect(geo.Vec{0, 0, 0}, geo.Vec{100, 100, 100})
	for i := 1; i < idx.Levels(); i++ {
		lower := make(map[data.ID]bool)
		for _, e := range idx.Level(i - 1).ReportAll(universe) {
			lower[e.ID] = true
		}
		for _, e := range idx.Level(i).ReportAll(universe) {
			if !lower[e.ID] {
				t.Fatalf("level %d entry %d missing from level %d", i, e.ID, i-1)
			}
		}
	}
}

func TestSamplerWithoutReplacementComplete(t *testing.T) {
	entries := genEntries(8000, 3)
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
		t.Fatalf("drained %d samples, want %d", len(got), len(want))
	}
}

// TestSamplerUniformFirstSample checks marginal uniformity: the LS-tree's
// guarantee is over the index's construction coins as well as the query
// randomness (conditioned on one index, the first sample can only come from
// the fixed top-level subset), so each trial rebuilds the index.
func TestSamplerUniformFirstSample(t *testing.T) {
	entries := genEntries(300, 4)
	want := matching(entries, testQuery)
	q := len(want)
	if q < 10 {
		t.Fatalf("fixture degenerate: q=%d", q)
	}
	counts := make(map[data.ID]int)
	const trials = 15000
	for i := 0; i < trials; i++ {
		idx, err := Build(entries, Config{Fanout: 8, TopLevelMax: 32, Seed: int64(i)})
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

// TestSamplerUniformPrefix checks that a k-sample prefix hits every
// matching record with equal probability k/q (marginal over index
// construction), the without-replacement counterpart of first-sample
// uniformity — it exercises the cross-level dedup and fall-through logic.
func TestSamplerUniformPrefix(t *testing.T) {
	entries := genEntries(200, 14)
	want := matching(entries, testQuery)
	q := len(want)
	if q < 25 {
		t.Fatalf("fixture degenerate: q=%d", q)
	}
	const k = 15
	const trials = 10000
	counts := make(map[data.ID]int)
	for i := 0; i < trials; i++ {
		idx, err := Build(entries, Config{Fanout: 8, TopLevelMax: 16, Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		s := idx.Sampler(testQuery, stats.NewRNG(int64(7000+i)))
		for j := 0; j < k; j++ {
			e, ok := samplingtest.Next(s)
			if !ok {
				t.Fatal("exhausted early")
			}
			counts[e.ID]++
		}
	}
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

func TestSamplerEmptyRange(t *testing.T) {
	entries := genEntries(1000, 5)
	idx, err := Build(entries, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	empty := geo.NewRect(geo.Vec{-10, -10, -10}, geo.Vec{-5, -5, -5})
	s := idx.Sampler(empty, stats.NewRNG(1))
	if _, ok := samplingtest.Next(s); ok {
		t.Fatal("empty range should yield nothing")
	}
}

func TestEmptyIndex(t *testing.T) {
	idx, err := Build(nil, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if idx.Levels() != 1 {
		t.Errorf("empty index should have 1 level, got %d", idx.Levels())
	}
	s := idx.Sampler(testQuery, stats.NewRNG(1))
	if _, ok := samplingtest.Next(s); ok {
		t.Fatal("empty index should yield nothing")
	}
}

func TestInsertJoinsLevels(t *testing.T) {
	entries := genEntries(4000, 6)
	idx, err := Build(entries, Config{Fanout: 16, TopLevelMax: 64, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	// Insert records, one batch of 500, and verify they become sampleable.
	added := make([]data.Entry, 500)
	for i := range added {
		added[i] = data.Entry{
			ID:  data.ID(100000 + i),
			Pos: geo.Vec{30, 30, 50}, // inside testQuery
		}
	}
	idx.InsertBatch(added)
	if idx.Len() != 4500 {
		t.Fatalf("Len = %d", idx.Len())
	}
	// Level-0 must contain all of them.
	got := matching(idx.Level(0).ReportAll(testQuery), testQuery)
	for _, e := range added {
		if !got[e.ID] {
			t.Fatalf("inserted entry %d missing from level 0", e.ID)
		}
	}
	// Levels stay nested after inserts.
	universe := geo.NewRect(geo.Vec{0, 0, 0}, geo.Vec{100, 100, 100})
	for i := 1; i < idx.Levels(); i++ {
		lower := make(map[data.ID]bool)
		for _, e := range idx.Level(i - 1).ReportAll(universe) {
			lower[e.ID] = true
		}
		for _, e := range idx.Level(i).ReportAll(universe) {
			if !lower[e.ID] {
				t.Fatalf("after insert: level %d entry %d missing below", i, e.ID)
			}
		}
	}
	// About half of the inserts should have reached level 1.
	l1 := 0
	for _, e := range idx.Level(1).ReportAll(testQuery) {
		if e.ID >= 100000 {
			l1++
		}
	}
	if l1 < 180 || l1 > 320 {
		t.Errorf("level-1 promotion count %d far from 250", l1)
	}
}

// TestLevelGrowth verifies that sustained inserts grow the hierarchy: the
// top level stays bounded and new levels keep the coin-flip invariant.
func TestLevelGrowth(t *testing.T) {
	entries := genEntries(500, 15)
	idx, err := Build(entries, Config{Fanout: 8, TopLevelMax: 64, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	levelsBefore := idx.Levels()
	rng := stats.NewRNG(77)
	for i := 0; i < 8000; i++ {
		idx.InsertBatch([]data.Entry{{
			ID:  data.ID(10000 + i),
			Pos: geo.Vec{rng.Uniform(0, 100), rng.Uniform(0, 100), rng.Uniform(0, 100)},
		}})
	}
	if idx.Levels() <= levelsBefore {
		t.Fatalf("levels did not grow: %d -> %d", levelsBefore, idx.Levels())
	}
	if top := idx.Level(idx.Levels() - 1).Len(); top > 2*64 {
		t.Errorf("top level %d exceeds growth threshold", top)
	}
	// Nesting invariant still holds across every level.
	universe := geo.NewRect(geo.Vec{0, 0, 0}, geo.Vec{100, 100, 100})
	for i := 1; i < idx.Levels(); i++ {
		lower := make(map[data.ID]bool)
		for _, e := range idx.Level(i - 1).ReportAll(universe) {
			lower[e.ID] = true
		}
		for _, e := range idx.Level(i).ReportAll(universe) {
			if !lower[e.ID] {
				t.Fatalf("after growth: level %d entry %d missing below", i, e.ID)
			}
		}
	}
	// Sampling still drains the whole query range exactly once each.
	want := matching(idx.Level(0).ReportAll(universe), testQuery)
	s := idx.Sampler(testQuery, stats.NewRNG(5))
	got := make(map[data.ID]bool)
	for {
		e, ok := samplingtest.Next(s)
		if !ok {
			break
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

// TestLevelChurnKeepsStructure interleaves random deletes and InsertBatch
// calls, half of them a single record and half 2 to 40, on a built index
// until grow adds a level, then churns on. Every level
// tree must pass rtree validation — MBRs, counts, balance, fanout, and the
// Hilbert key caches and LHVs that inserts, splits and condensing deletes
// maintain — each level must be a subset of the one below, and Len must be
// level 0's size. Inserts land up to 10% outside the build MBR, so some
// keys clamp to the quantizer's box.
func TestLevelChurnKeepsStructure(t *testing.T) {
	entries := genEntries(2000, 31)
	idx, err := Build(entries, Config{Fanout: 8, TopLevelMax: 64, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	live := append([]data.Entry(nil), entries...)
	rng := stats.NewRNG(41)
	nextID := data.ID(len(entries))
	step := func() {
		if len(live) > 0 && rng.Bernoulli(0.3) {
			j := rng.Intn(len(live))
			if !idx.Delete(live[j]) {
				t.Fatalf("delete of live entry %d failed", live[j].ID)
			}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			return
		}
		batch := make([]data.Entry, 1)
		if rng.Bernoulli(0.5) {
			batch = make([]data.Entry, 2+rng.Intn(39))
		}
		for i := range batch {
			batch[i] = data.Entry{ID: nextID, Pos: geo.Vec{rng.Uniform(-10, 110), rng.Uniform(-10, 110), rng.Uniform(0, 100)}}
			nextID++
		}
		idx.InsertBatch(batch)
		live = append(live, batch...)
	}
	levels := idx.Levels()
	for ops := 0; idx.Levels() == levels; ops++ {
		if ops == 50_000 {
			t.Fatalf("no level added after %d operations", ops)
		}
		step()
	}
	for i := 0; i < 2000; i++ {
		step()
	}

	if idx.Len() != len(live) || idx.Len() != idx.Level(0).Len() {
		t.Fatalf("Len = %d, level 0 holds %d, %d live", idx.Len(), idx.Level(0).Len(), len(live))
	}
	everything := geo.NewRect(geo.Vec{-1e9, -1e9, -1e9}, geo.Vec{1e9, 1e9, 1e9})
	var below map[data.ID]bool
	for i := 0; i < idx.Levels(); i++ {
		if err := idx.Level(i).Validate(); err != nil {
			t.Fatalf("level %d of %d: %v", i, idx.Levels(), err)
		}
		here := make(map[data.ID]bool)
		for _, e := range idx.Level(i).ReportAll(everything) {
			if below != nil && !below[e.ID] {
				t.Fatalf("level %d entry %d missing from level %d", i, e.ID, i-1)
			}
			here[e.ID] = true
		}
		below = here
	}
}

func TestDeleteRemovesEverywhere(t *testing.T) {
	entries := genEntries(3000, 7)
	idx, err := Build(entries, Config{Fanout: 16, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	victim := entries[42]
	if !idx.Delete(victim) {
		t.Fatal("delete failed")
	}
	if idx.Len() != 2999 {
		t.Fatalf("Len = %d", idx.Len())
	}
	universe := geo.NewRect(geo.Vec{0, 0, 0}, geo.Vec{100, 100, 100})
	for i := 0; i < idx.Levels(); i++ {
		for _, e := range idx.Level(i).ReportAll(universe) {
			if e.ID == victim.ID {
				t.Fatalf("deleted entry still at level %d", i)
			}
		}
	}
	if idx.Delete(victim) {
		t.Error("double delete should return false")
	}
}

func TestSampleAfterUpdates(t *testing.T) {
	entries := genEntries(2000, 8)
	idx, err := Build(entries, Config{Fanout: 16, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	// Delete half the matching records, insert some new ones.
	want := matching(entries, testQuery)
	i := 0
	for id := range want {
		if i%2 == 0 {
			if !idx.Delete(entries[id]) {
				t.Fatal("delete failed")
			}
			delete(want, id)
		}
		i++
	}
	added := make([]data.Entry, 50)
	for j := range added {
		added[j] = data.Entry{ID: data.ID(50000 + j), Pos: geo.Vec{40, 40, 50}}
		want[added[j].ID] = true
	}
	idx.InsertBatch(added)
	s := idx.Sampler(testQuery, stats.NewRNG(23))
	got := make(map[data.ID]bool)
	for {
		e, ok := samplingtest.Next(s)
		if !ok {
			break
		}
		if !want[e.ID] {
			t.Fatalf("sample %d should not match after updates", e.ID)
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
	entries := genEntries(10000, 9)
	idx, err := Build(entries, Config{Fanout: 32, Seed: 29})
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

	s := idx.Sampler(testQuery, stats.NewRNG(31))
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

func TestConfigValidation(t *testing.T) {
	if _, err := Build(nil, Config{TopLevelMax: -1}); err == nil {
		t.Error("negative TopLevelMax should error")
	}
	if _, err := Build(nil, Config{Fanout: 3}); err == nil {
		t.Error("tiny fanout should propagate rtree error")
	}
}

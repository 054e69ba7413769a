package sampling_test

import (
	"testing"

	"storm/internal/data"
	"storm/internal/geo"
	"storm/internal/lstree"
	"storm/internal/rstree"
	"storm/internal/rtree"
	"storm/internal/sampling"
	"storm/internal/sampling/samplingtest"
	"storm/internal/stats"
)

// replaced returns mk's stream behind the with-replacement adapter over its
// q records, the adapter's choices seeded apart from the stream's own RNG.
func replaced(mk func() sampling.Sampler, q int) func() sampling.Sampler {
	return func() sampling.Sampler { return wr(mk(), q, 201) }
}

// wr wraps s in the with-replacement adapter over its q records, seeding
// the adapter as the engine does: MixSeed of the stream's seed.
func wr(s sampling.Sampler, q int, seed int64) sampling.Sampler {
	return sampling.WithReplacementOf(s, q, stats.NewRNG(stats.MixSeed(seed)))
}

// uniformEntries builds n points uniform over [0,100]^3 with IDs 0..n-1.
func uniformEntries(n int, seed int64) []data.Entry {
	rng := stats.NewRNG(seed)
	out := make([]data.Entry, n)
	for i := range out {
		out[i] = data.Entry{ID: data.ID(i), Pos: geo.Vec{rng.Uniform(0, 100), rng.Uniform(0, 100), rng.Uniform(0, 100)}}
	}
	return out
}

// datasetOf stores entries' positions in a dataset (IDs follow).
func datasetOf(entries []data.Entry) *data.Dataset {
	ds := data.NewDataset("wr-test")
	for _, e := range entries {
		ds.AppendFast(e.Pos)
	}
	return ds
}

// matchingIDs indexes the records of entries inside q by their ordinal.
func matchingIDs(entries []data.Entry, q geo.Rect) map[data.ID]int {
	m := map[data.ID]int{}
	for _, e := range entries {
		if q.Contains(e.Pos) {
			m[e.ID] = len(m)
		}
	}
	return m
}

var wrQuery = geo.NewRect(geo.Vec{20, 20, 0}, geo.Vec{60, 60, 100})

// pairQuery cuts the tiny pair-test set to a handful of records, few
// enough that every ordered pair, the diagonal included, is its own cell.
var pairQuery = geo.NewRect(geo.Vec{0, 0, 0}, geo.Vec{50, 50, 100})

// pairStat draws the first two samples of trials streams from mk and
// returns the chi-square statistic of the q² pair cells against the
// uniform pair law of iid draws, with its critical value at α = 1e-3.
// The diagonal cells are where a without-replacement stream and a wrong
// repeat rate show.
func pairStat(t *testing.T, in map[data.ID]int, trials int, mk func(trial int) samplingtest.Drawer) (stat, crit float64) {
	t.Helper()
	q := len(in)
	obs := make([]int, q*q)
	for trial := 0; trial < trials; trial++ {
		s := mk(trial)
		var two [2]data.Entry
		if n := s.NextBatch(two[:], 2); n != 2 {
			t.Fatalf("trial %d: %d draws, want 2", trial, n)
		}
		a, okA := in[two[0].ID]
		b, okB := in[two[1].ID]
		if !okA || !okB {
			t.Fatalf("trial %d: a draw outside the range", trial)
		}
		obs[a*q+b]++
	}
	exp := make([]float64, q*q)
	for i := range exp {
		exp[i] = float64(trials) / float64(q*q)
	}
	return stats.ChiSquareStat(obs, exp), stats.ChiSquareQuantile(0.999, q*q-1)
}

// pairFixture is the tiny point set of the pair test and its matches.
func pairFixture(t *testing.T) ([]data.Entry, map[data.ID]int) {
	t.Helper()
	entries := uniformEntries(20, 3)
	in := matchingIDs(entries, pairQuery)
	if q := len(in); q < 4 || q > 7 {
		t.Fatalf("pair fixture holds %d matches, want 4–7", q)
	}
	return entries, in
}

// TestWithReplacementPairs is the iid check of the adapter: the first two
// draws must be uniform over all q² ordered pairs, a repeat of the first
// draw included. The RS-tree and LS-tree fix their randomness at build,
// so each of their trials builds afresh (one build's draws are
// correlated across queries until buffers are refilled) and they run
// fewer trials; the baselines vary only the seeds.
func TestWithReplacementPairs(t *testing.T) {
	entries, in := pairFixture(t)
	q := len(in)
	ds := datasetOf(entries)
	tree := rtree.MustNew(rtree.Config{Fanout: 4})
	tree.BulkLoad(entries)
	cases := []struct {
		name   string
		trials int
		mk     func(trial int) samplingtest.Drawer
	}{
		{"rs-tree", 8000, func(trial int) samplingtest.Drawer {
			idx, err := rstree.Build(entries, rstree.Config{Fanout: 4, BufferSize: 2, Seed: int64(trial)})
			if err != nil {
				t.Fatal(err)
			}
			return wr(idx.Sampler(pairQuery, stats.NewRNG(int64(trial))), q, int64(trial))
		}},
		{"ls-tree", 8000, func(trial int) samplingtest.Drawer {
			idx, err := lstree.Build(entries, lstree.Config{Fanout: 4, TopLevelMax: 2, Seed: int64(trial)})
			if err != nil {
				t.Fatal(err)
			}
			return wr(idx.Sampler(pairQuery, stats.NewRNG(int64(trial))), q, int64(trial))
		}},
		{"queryfirst", 20000, func(trial int) samplingtest.Drawer {
			return wr(sampling.NewQueryFirst(tree, pairQuery, stats.NewRNG(int64(trial))), q, int64(trial))
		}},
		{"samplefirst", 20000, func(trial int) samplingtest.Drawer {
			return wr(sampling.NewSampleFirst(ds, pairQuery, stats.NewRNG(int64(trial)), nil, 4), q, int64(trial))
		}},
		{"randompath", 20000, func(trial int) samplingtest.Drawer {
			return wr(sampling.NewRandomPath(tree, pairQuery, stats.NewRNG(int64(trial))), q, int64(trial))
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			stat, crit := pairStat(t, in, c.trials, c.mk)
			if stat > crit {
				t.Errorf("pair chi-square %.1f > crit %.1f (df %d): draws not iid uniform", stat, crit, q*q-1)
			}
			t.Logf("pair chi-square %.1f, crit %.1f", stat, crit)
		})
	}
}

// wrongReplacement is the adapter with a wrong repeat probability, for
// showing that the pair test catches one: with d distinct records emitted
// it repeats one of them with probability repeat(d, q).
type wrongReplacement struct {
	inner  sampling.Sampler
	q      int
	rng    *stats.RNG
	seen   []data.Entry
	repeat func(d, q int) float64
}

func (s *wrongReplacement) NextBatch(dst []data.Entry, k int) int {
	for i := 0; i < k; i++ {
		d := len(s.seen)
		if d > 0 && s.rng.Float64() < s.repeat(d, s.q) {
			dst[i] = s.seen[s.rng.Intn(d)]
			continue
		}
		e, ok := samplingtest.Next(s.inner)
		if !ok {
			return i
		}
		s.seen = append(s.seen, e)
		dst[i] = e
	}
	return k
}

// TestWithReplacementWrongAdaptersFail: two near misses of the reduction
// must fail the pair test — one that repeats only once its inner stream
// is exhausted (a without-replacement stream in disguise), and one that
// repeats with probability d/(q+1) instead of d/q.
func TestWithReplacementWrongAdaptersFail(t *testing.T) {
	entries, in := pairFixture(t)
	tree := rtree.MustNew(rtree.Config{Fanout: 4})
	tree.BulkLoad(entries)
	for name, repeat := range map[string]func(d, q int) float64{
		"no-repeat-until-exhausted": func(d, q int) float64 { return float64(d / q) },
		"d/(q+1)":                   func(d, q int) float64 { return float64(d) / float64(q+1) },
	} {
		stat, crit := pairStat(t, in, 20000, func(trial int) samplingtest.Drawer {
			return &wrongReplacement{
				inner: sampling.NewQueryFirst(tree, pairQuery, stats.NewRNG(int64(trial))),
				q:     len(in), rng: stats.NewRNG(stats.MixSeed(int64(trial))), repeat: repeat,
			}
		})
		if stat <= crit {
			t.Errorf("%s: pair chi-square %.1f <= crit %.1f; the test cannot tell it from iid", name, stat, crit)
		}
		t.Logf("%s: pair chi-square %.1f, crit %.1f", name, stat, crit)
	}
}

// TestWithReplacementChunkingInvariant holds the adapter to the Sampler
// stream contract over every sampler, across the RS-tree's buffer
// exhaustion and materialization boundaries (BufferSize 8) and the
// baselines' own pull patterns.
func TestWithReplacementChunkingInvariant(t *testing.T) {
	entries := uniformEntries(9000, 31)
	rs, err := rstree.Build(entries, rstree.Config{Fanout: 16, BufferSize: 8, Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	ls, err := lstree.Build(entries, lstree.Config{Fanout: 16, TopLevelMax: 128, Seed: 53})
	if err != nil {
		t.Fatal(err)
	}
	ds := datasetOf(entries)
	q := rs.Count(wrQuery)
	for name, mk := range map[string]func() sampling.Sampler{
		"rs-tree":     func() sampling.Sampler { return rs.Sampler(wrQuery, stats.NewRNG(99)) },
		"ls-tree":     func() sampling.Sampler { return ls.Sampler(wrQuery, stats.NewRNG(99)) },
		"queryfirst":  func() sampling.Sampler { return sampling.NewQueryFirst(rs.Tree(), wrQuery, stats.NewRNG(9)) },
		"randompath":  func() sampling.Sampler { return sampling.NewRandomPath(rs.Tree(), wrQuery, stats.NewRNG(9)) },
		"samplefirst": func() sampling.Sampler { return sampling.NewSampleFirst(ds, wrQuery, stats.NewRNG(9), nil, 64) },
	} {
		mk := replaced(mk, q)
		samplingtest.ChunkingInvariant(t, name, func() samplingtest.Drawer { return mk() }, 3000,
			[]int{5, 250, 11}, []int{17}, []int{256}, []int{2, 99, 5})
	}
}

// shortStream is a without-replacement stream of the given records.
type shortStream struct {
	sampling.Sampler
	rest []data.Entry
}

func (s *shortStream) NextBatch(dst []data.Entry, k int) int {
	n := copy(dst[:min(k, len(dst))], s.rest)
	s.rest = s.rest[n:]
	return n
}

func (s *shortStream) SamplerStats() sampling.SamplerStats { return sampling.SamplerStats{} }

// TestWithReplacementEnds: q = 0 delivers nothing, and a stream whose
// inner holds fewer than q records ends at the first draw that needs a
// record it lacks, for good. Draws counts every delivered sample.
func TestWithReplacementEnds(t *testing.T) {
	one := []data.Entry{{ID: 7}}
	buf := make([]data.Entry, 64)
	if n := sampling.WithReplacementOf(&shortStream{rest: one}, 0, stats.NewRNG(1)).NextBatch(buf, 64); n != 0 {
		t.Fatalf("q = 0 delivered %d samples", n)
	}
	s := sampling.WithReplacementOf(&shortStream{rest: one}, 1000, stats.NewRNG(1))
	n := s.NextBatch(buf, 64)
	if n == 0 || n == 64 {
		t.Fatalf("a one-record inner under q = 1000 delivered %d of 64", n)
	}
	for _, e := range buf[:n] {
		if e.ID != 7 {
			t.Fatalf("delivered ID %d the inner never held", e.ID)
		}
	}
	if got := s.NextBatch(buf, 64); got != 0 {
		t.Errorf("an ended stream delivered %d more", got)
	}
	if d := s.SamplerStats().Draws; d != uint64(n) {
		t.Errorf("Draws = %d, want the %d delivered", d, n)
	}
}

// TestWithReplacement: 3q draws over the RS-tree stay inside the range,
// never run dry, repeat records and count every draw.
func TestWithReplacement(t *testing.T) {
	entries := uniformEntries(2000, 6)
	idx, err := rstree.Build(entries, rstree.Config{Fanout: 16, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	want := matchingIDs(entries, wrQuery)
	s := wr(idx.Sampler(wrQuery, stats.NewRNG(21)), len(want), 21)
	seen := make(map[data.ID]int)
	n := 3 * len(want)
	for i := 0; i < n; i++ {
		e, ok := samplingtest.Next(s)
		if !ok {
			t.Fatal("with-replacement stream ended")
		}
		if _, ok := want[e.ID]; !ok {
			t.Fatalf("sample %d outside query", e.ID)
		}
		seen[e.ID]++
	}
	if len(seen) == n {
		t.Error("3q with-replacement draws repeated nothing")
	}
	if d := s.SamplerStats().Draws; d != uint64(n) {
		t.Errorf("Draws = %d, want %d", d, n)
	}
}

// TestWithReplacementUniform: a long with-replacement stream over the
// RS-tree hits every matching record at the same rate.
func TestWithReplacementUniform(t *testing.T) {
	entries := uniformEntries(300, 7)
	idx, err := rstree.Build(entries, rstree.Config{Fanout: 8, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	want := matchingIDs(entries, wrQuery)
	q := len(want)
	counts := make([]int, q)
	const trials = 30000
	s := wr(idx.Sampler(wrQuery, stats.NewRNG(29)), q, 29)
	for i := 0; i < trials; i++ {
		e, ok := samplingtest.Next(s)
		if !ok {
			t.Fatal("stream ended")
		}
		counts[want[e.ID]]++
	}
	exp := make([]float64, q)
	for i := range exp {
		exp[i] = float64(trials) / float64(q)
	}
	stat := stats.ChiSquareStat(counts, exp)
	if crit := stats.ChiSquareQuantile(0.999, q-1); stat > crit {
		t.Errorf("with-replacement chi-square %v > crit %v", stat, crit)
	}
}

// clusteredEntries builds a heavily skewed point set: most mass in a few
// tight clusters, the rest uniform background — the adversarial layout for
// samplers whose per-node buffers could bias toward dense regions.
func clusteredEntries(n int, seed int64) []data.Entry {
	rng := stats.NewRNG(seed)
	centers := [][2]float64{{12, 18}, {15, 80}, {55, 55}, {83, 22}, {90, 91}}
	out := make([]data.Entry, n)
	for i := range out {
		var x, y float64
		if rng.Bernoulli(0.9) {
			c := centers[rng.Intn(len(centers))]
			x = c[0] + rng.Uniform(-1.5, 1.5)
			y = c[1] + rng.Uniform(-1.5, 1.5)
		} else {
			x = rng.Uniform(0, 100)
			y = rng.Uniform(0, 100)
		}
		out[i] = data.Entry{ID: data.ID(i), Pos: geo.Vec{x, y, rng.Uniform(0, 100)}}
	}
	return out
}

// TestBatchUniformityChiSquare is the statistical regression guard for
// wide pulls: a with-replacement stream pulled 1000 at a time over the
// RS-tree of a clustered set must stay uniform over P ∩ Q. The matching
// records are split into contiguous-ordinal buckets and the bucket counts
// are chi-square tested against the uniform expectation.
func TestBatchUniformityChiSquare(t *testing.T) {
	entries := clusteredEntries(40000, 71)
	idx, err := rstree.Build(entries, rstree.Config{Fanout: 16, BufferSize: 8, Seed: 73})
	if err != nil {
		t.Fatal(err)
	}
	// A query straddling two clusters plus background: skewed density
	// inside the range.
	q := geo.NewRect(geo.Vec{5, 5, 0}, geo.Vec{60, 65, 100})
	bucketOf := matchingIDs(entries, q)
	matchCount := len(bucketOf)
	const buckets = 32
	if matchCount < buckets*50 {
		t.Fatalf("query too selective for the test: %d matches", matchCount)
	}

	s := wr(idx.Sampler(q, stats.NewRNG(101)), matchCount, 101)
	const draws = 40000
	buf := make([]data.Entry, 1000)
	observed := make([]int, buckets)
	for got := 0; got < draws; {
		n := s.NextBatch(buf, len(buf))
		if n == 0 {
			t.Fatal("stream ended early")
		}
		for _, e := range buf[:n] {
			ord, ok := bucketOf[e.ID]
			if !ok {
				t.Fatalf("sample %d outside query", e.ID)
			}
			observed[ord*buckets/matchCount]++
		}
		got += n
	}
	expected := make([]float64, buckets)
	for _, ord := range bucketOf {
		expected[ord*buckets/matchCount]++
	}
	for i := range expected {
		expected[i] *= float64(draws) / float64(matchCount)
	}
	stat := stats.ChiSquareStat(observed, expected)
	if crit := stats.ChiSquareQuantile(0.999, buckets-1); stat > crit {
		t.Errorf("chi-square %0.1f exceeds 99.9%% critical value %0.1f: batch stream is biased", stat, crit)
	}
}

// TestQueryFirstWithReplacementNeverExhausts: over QueryFirst the adapter
// keeps drawing past the q records its inner stream holds.
func TestQueryFirstWithReplacementNeverExhausts(t *testing.T) {
	entries := uniformEntries(500, 3)
	tree := rtree.MustNew(rtree.Config{Fanout: 16})
	tree.BulkLoad(entries)
	q := tree.Count(wrQuery)
	s := wr(sampling.NewQueryFirst(tree, wrQuery, stats.NewRNG(7)), q, 7)
	if got := samplingtest.Drain(s, []int{64}, 3*q); len(got) != 3*q {
		t.Fatalf("with-replacement stream ended after %d of %d", len(got), 3*q)
	}
}

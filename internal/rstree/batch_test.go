package rstree

import (
	"sync"
	"testing"

	"storm/internal/data"
	"storm/internal/geo"
	"storm/internal/sampling"
	"storm/internal/sampling/samplingtest"
	"storm/internal/stats"
)

// drawBatched reads n samples (or the whole stream if n < 0) with a cycling
// pattern of pull sizes, exercising pull boundaries at many offsets.
func drawBatched(idx *Index, mode sampling.Mode, seed int64, n int, sizes []int) []data.ID {
	return samplingtest.Drain(idx.Sampler(testQuery, mode, stats.NewRNG(seed)), sizes, n)
}

// checkChunkingInvariant holds idx's seeded stream to the Sampler contract:
// the one-sample-per-pull stream must come out of every other pull pattern.
func checkChunkingInvariant(t *testing.T, idx *Index, mode sampling.Mode, seed int64, n int, patterns ...[]int) {
	t.Helper()
	samplingtest.ChunkingInvariant(t, "rs-tree", func() samplingtest.Drawer {
		return idx.Sampler(testQuery, mode, stats.NewRNG(seed))
	}, n, patterns...)
}

// TestNextBatchMatchesNextWithoutReplacement is the determinism contract:
// for a fixed seed, the stream must be identical however it is pulled —
// including across buffer exhaustion and materialization boundaries, which
// the tiny BufferSize forces constantly.
func TestNextBatchMatchesNextWithoutReplacement(t *testing.T) {
	entries := genEntries(9000, 23)
	idx, err := Build(entries, Config{Fanout: 16, BufferSize: 4, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	checkChunkingInvariant(t, idx, sampling.WithoutReplacement, 77, -1,
		[]int{7}, []int{64}, []int{512}, []int{1, 3, 17, 256})
}

// TestNextBatchMatchesNextWithReplacement covers the weighted-descent mode.
func TestNextBatchMatchesNextWithReplacement(t *testing.T) {
	entries := genEntries(9000, 31)
	idx, err := Build(entries, Config{Fanout: 16, BufferSize: 8, Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	checkChunkingInvariant(t, idx, sampling.WithReplacement, 99, 3000, []int{5, 250, 11})
}

// TestNextBatchInterleavedWithNext alternates one-sample pulls with wider
// ones of every size up to 17 on one sampler: a pull may not consume RNG or
// sampler state any differently for being preceded by a pull of another
// size.
func TestNextBatchInterleavedWithNext(t *testing.T) {
	entries := genEntries(6000, 41)
	idx, err := Build(entries, Config{Fanout: 16, BufferSize: 4, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	var interleaved []int
	for turn := 1; turn < 34; turn += 2 {
		interleaved = append(interleaved, 1, 1+turn%17)
	}
	checkChunkingInvariant(t, idx, sampling.WithoutReplacement, 5, -1, interleaved)
}

// TestNextBatchConcurrentIdentical runs batched same-seed streams
// concurrently with cache-perturbing other-seed streams (under -race via
// make race): batching shares the node buffer cache and the scratch pools
// across queries, neither of which may leak query state.
func TestNextBatchConcurrentIdentical(t *testing.T) {
	entries := genEntries(8000, 17)
	idx, err := Build(entries, Config{Fanout: 16, BufferSize: 8, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	const dup = 6
	ref := drawBatched(idx, sampling.WithoutReplacement, 42, 400, []int{37})
	streams := make([][]data.ID, dup)
	var wg sync.WaitGroup
	for i := 0; i < dup; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 1 {
				_ = drawBatched(idx, sampling.WithoutReplacement, int64(1000+i), 400, []int{64})
			}
			streams[i] = drawBatched(idx, sampling.WithoutReplacement, 42, 400, []int{37})
		}(i)
	}
	wg.Wait()
	for i, got := range streams {
		if len(got) != len(ref) {
			t.Fatalf("stream %d: %d samples, reference %d", i, len(got), len(ref))
		}
		for j := range got {
			if got[j] != ref[j] {
				t.Fatalf("stream %d diverges at %d: %d vs %d", i, j, got[j], ref[j])
			}
		}
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

// TestBatchUniformityChiSquare is the statistical regression guard: samples
// drawn in batches from the clustered set must stay uniform over P ∩ Q. The
// matching records are split into contiguous-ordinal buckets and the
// with-replacement batch stream's bucket counts are chi-square tested
// against the uniform expectation.
func TestBatchUniformityChiSquare(t *testing.T) {
	entries := clusteredEntries(40000, 71)
	idx, err := Build(entries, Config{Fanout: 16, BufferSize: 8, Seed: 73})
	if err != nil {
		t.Fatal(err)
	}
	// A query straddling two clusters plus background: skewed density
	// inside the range.
	q := geo.NewRect(geo.Vec{5, 5, 0}, geo.Vec{60, 65, 100})

	bucketOf := make(map[data.ID]int)
	matchCount := 0
	for _, e := range entries {
		if q.Contains(e.Pos) {
			bucketOf[e.ID] = matchCount
			matchCount++
		}
	}
	const buckets = 32
	if matchCount < buckets*50 {
		t.Fatalf("query too selective for the test: %d matches", matchCount)
	}

	s := idx.Sampler(q, sampling.WithReplacement, stats.NewRNG(101))
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
	for id, ord := range bucketOf {
		_ = id
		expected[ord*buckets/matchCount]++
	}
	for i := range expected {
		expected[i] *= float64(draws) / float64(matchCount)
	}
	stat := stats.ChiSquareStat(observed, expected)
	crit := stats.ChiSquareQuantile(0.999, buckets-1)
	if stat > crit {
		t.Errorf("chi-square %0.1f exceeds 99.9%% critical value %0.1f: batch stream is biased", stat, crit)
	}
}

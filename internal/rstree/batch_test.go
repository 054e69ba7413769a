package rstree

import (
	"sync"
	"testing"

	"storm/internal/data"
	"storm/internal/sampling/samplingtest"
	"storm/internal/stats"
)

// drawBatched reads n samples (or the whole stream if n < 0) with a cycling
// pattern of pull sizes, exercising pull boundaries at many offsets.
func drawBatched(idx *Index, seed int64, n int, sizes []int) []data.ID {
	return samplingtest.Drain(idx.Sampler(testQuery, stats.NewRNG(seed)), sizes, n)
}

// checkChunkingInvariant holds idx's seeded stream to the Sampler contract:
// the one-sample-per-pull stream must come out of every other pull pattern.
func checkChunkingInvariant(t *testing.T, idx *Index, seed int64, n int, patterns ...[]int) {
	t.Helper()
	samplingtest.ChunkingInvariant(t, "rs-tree", func() samplingtest.Drawer {
		return idx.Sampler(testQuery, stats.NewRNG(seed))
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
	checkChunkingInvariant(t, idx, 77, -1,
		[]int{7}, []int{64}, []int{512}, []int{1, 3, 17, 256})
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
	checkChunkingInvariant(t, idx, 5, -1, interleaved)
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
	ref := drawBatched(idx, 42, 400, []int{37})
	streams := make([][]data.ID, dup)
	var wg sync.WaitGroup
	for i := 0; i < dup; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 1 {
				_ = drawBatched(idx, int64(1000+i), 400, []int{64})
			}
			streams[i] = drawBatched(idx, 42, 400, []int{37})
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

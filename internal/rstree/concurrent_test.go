package rstree

import (
	"sync"
	"testing"

	"storm/internal/data"
	"storm/internal/sampling/samplingtest"
	"storm/internal/stats"
)

// TestConcurrentSamplers runs many samplers over one index at once (run
// with -race): each stream must stay a valid without-replacement sample —
// in range, duplicate-free, complete — while all of them share, and race
// to regenerate, the same lazy node buffers.
func TestConcurrentSamplers(t *testing.T) {
	entries := genEntries(8000, 11)
	idx, err := Build(entries, Config{Fanout: 16, BufferSize: 8, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	truth := matching(entries, testQuery)

	const workers = 8
	var wg sync.WaitGroup
	streams := make([][]data.Entry, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := idx.Sampler(testQuery, stats.NewRNG(int64(100+i)))
			var got []data.Entry
			for {
				e, ok := samplingtest.Next(s)
				if !ok {
					break
				}
				got = append(got, e)
			}
			streams[i] = got
		}(i)
	}
	wg.Wait()

	for i, got := range streams {
		if len(got) != len(truth) {
			t.Errorf("sampler %d: %d samples, want %d", i, len(got), len(truth))
			continue
		}
		seen := make(map[data.ID]bool, len(got))
		for _, e := range got {
			if !truth[e.ID] {
				t.Errorf("sampler %d: entry %d outside query", i, e.ID)
			}
			if seen[e.ID] {
				t.Errorf("sampler %d: duplicate entry %d", i, e.ID)
			}
			seen[e.ID] = true
		}
	}
}

// TestConcurrentSamplersSameSeedIdentical checks buffer-cache independence:
// samplers with the same RNG seed must produce identical streams even when
// they race against each other and against differently-seeded samplers
// that perturb which node buffers are cached. Per-node buffers are seeded
// by (page, version), never by query history, which is what makes this
// hold.
func TestConcurrentSamplersSameSeedIdentical(t *testing.T) {
	entries := genEntries(8000, 17)
	idx, err := Build(entries, Config{Fanout: 16, BufferSize: 8, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}

	const dup = 6
	const k = 400
	draw := func(seed int64) []data.ID {
		s := idx.Sampler(testQuery, stats.NewRNG(seed))
		out := make([]data.ID, 0, k)
		for len(out) < k {
			e, ok := samplingtest.Next(s)
			if !ok {
				break
			}
			out = append(out, e.ID)
		}
		return out
	}

	ref := draw(42)
	streams := make([][]data.ID, dup)
	var wg sync.WaitGroup
	for i := 0; i < dup; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 1 {
				_ = draw(int64(1000 + i)) // cache perturbation
			}
			streams[i] = draw(42)
		}(i)
	}
	wg.Wait()

	for i, s := range streams {
		if len(s) != len(ref) {
			t.Fatalf("stream %d: %d samples, reference %d", i, len(s), len(ref))
		}
		for j := range s {
			if s[j] != ref[j] {
				t.Fatalf("stream %d diverges at %d: %d vs %d", i, j, s[j], ref[j])
			}
		}
	}
}

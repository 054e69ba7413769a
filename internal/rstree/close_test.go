package rstree

import (
	"sync"
	"testing"

	"storm/internal/data"
	"storm/internal/stats"
)

func TestCloseIdempotentAndSafeBeforeFirstDraw(t *testing.T) {
	idx, err := Build(genEntries(4000, 3), Config{Fanout: 16, BufferSize: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Never drew: nothing is initialized, nothing is held.
	fresh := idx.Sampler(testQuery, stats.NewRNG(1))
	for i := 0; i < 2; i++ {
		if err := fresh.Close(); err != nil {
			t.Fatalf("Close #%d on a sampler that never drew: %v", i+1, err)
		}
	}
	// Mid-stream, holding permutations and materialized parts.
	s := idx.Sampler(testQuery, stats.NewRNG(1))
	buf := make([]data.Entry, 600)
	if got := s.NextBatch(buf, len(buf)); got != len(buf) || s.SamplerStats().Explosions == 0 {
		t.Fatalf("fixture: drew %d of %d with %d materializations, want a full pull that materialized", got, len(buf), s.SamplerStats().Explosions)
	}
	for i := 0; i < 2; i++ {
		if err := s.Close(); err != nil {
			t.Fatalf("Close #%d mid-stream: %v", i+1, err)
		}
	}
	if got := s.NextBatch(buf, len(buf)); got != 0 {
		t.Errorf("a closed sampler returned %d samples", got)
	}
}

// TestPooledScratchNeverAliased runs queries that all materialize — and all
// hand their part contents back through Close for the next one to take —
// side by side, round after round. A slice handed out twice would be
// shuffled by two queries at once: -race reports it, and either stream then
// departs from what the same seed draws alone.
func TestPooledScratchNeverAliased(t *testing.T) {
	idx, err := Build(genEntries(9000, 23), Config{Fanout: 16, BufferSize: 4, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	const k = 1000
	draw := func(seed int64, closeAfter bool) ([]data.ID, uint64) {
		s := idx.Sampler(testQuery, stats.NewRNG(seed))
		if closeAfter {
			// Twice: a second Close must find nothing left to hand back.
			defer s.Close()
			defer s.Close()
		}
		buf := make([]data.Entry, 64)
		out := make([]data.ID, 0, k)
		for len(out) < k {
			n := s.NextBatch(buf, min(len(buf), k-len(out)))
			if n == 0 {
				break
			}
			for _, e := range buf[:n] {
				out = append(out, e.ID)
			}
		}
		return out, s.SamplerStats().Explosions
	}
	// The solo streams are left unclosed: what they held stays theirs, so
	// they are what the seeds draw with no recycled slice in play.
	const queries = 4
	refs := make([][]data.ID, queries)
	for i := range refs {
		var exploded uint64
		if refs[i], exploded = draw(int64(100+i), false); exploded == 0 || len(refs[i]) != k {
			t.Fatalf("fixture: query %d drew %d samples with %d materializations", i, len(refs[i]), exploded)
		}
	}
	for round := 0; round < 8; round++ {
		got := make([][]data.ID, queries)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i], _ = draw(int64(100+i), true)
			}(i)
		}
		wg.Wait()
		for i := range got {
			if len(got[i]) != len(refs[i]) {
				t.Fatalf("round %d query %d: %d samples, alone %d", round, i, len(got[i]), len(refs[i]))
			}
			for j := range got[i] {
				if got[i][j] != refs[i][j] {
					t.Fatalf("round %d query %d diverges from its solo stream at sample %d", round, i, j)
				}
			}
		}
	}
}

package rstree

import (
	"sync"
	"testing"

	"storm/internal/data"
	"storm/internal/geo"
	"storm/internal/sampling/samplingtest"
	"storm/internal/stats"
)

// mutate inserts records inside testQuery and deletes every tenth record
// the query matches, staling the buffers of the frontier nodes above them,
// and returns the records the query matches afterwards.
func mutate(t *testing.T, x *Index, entries []data.Entry) map[data.ID]bool {
	t.Helper()
	want := matching(entries, testQuery)
	batch := make([]data.Entry, 60)
	for i := range batch {
		f := float64(i)
		batch[i] = data.Entry{ID: data.ID(90_000 + i), Pos: geo.Vec{21 + f*0.6, 59 - f*0.6, f}}
		want[batch[i].ID] = true
	}
	x.InsertBatch(batch)
	for _, e := range entries {
		if want[e.ID] && e.ID%10 == 0 {
			if !x.Delete(e) {
				t.Fatalf("delete of %d missed", e.ID)
			}
			delete(want, e.ID)
		}
	}
	return want
}

// TestConcurrentSamplers runs many samplers over one index at once (run
// with -race): each stream must stay a valid without-replacement sample —
// in range, duplicate-free, complete — while all of them share, and race
// to regenerate, the node buffers an insert and deletes staled.
func TestConcurrentSamplers(t *testing.T) {
	entries := genEntries(8000, 11)
	idx, err := Build(entries, Config{Fanout: 16, BufferSize: 8, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	truth := mutate(t, idx, entries)

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
	if idx.BufferRegens() == 0 {
		t.Error("no sampler regenerated a buffer: nothing raced")
	}
}

// TestConcurrentSamplersSameSeedIdentical checks buffer-cache independence:
// samplers with the same RNG seed must produce identical streams even when
// they race each other, and differently-seeded samplers, to regenerate the
// stale buffers they share. The reference stream comes from a second index
// built and mutated the same way, read by one sampler alone. Per-node
// buffers are seeded by (page, version), never by query history, which is
// what makes this hold.
func TestConcurrentSamplersSameSeedIdentical(t *testing.T) {
	entries := genEntries(8000, 17)
	cfg := Config{Fanout: 16, BufferSize: 8, Seed: 19}
	idx, err := Build(entries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Build(entries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mutate(t, idx, entries)
	mutate(t, serial, entries)

	const dup = 6
	const k = 400
	draw := func(idx *Index, seed int64) []data.ID {
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

	ref := draw(serial, 42)
	streams := make([][]data.ID, dup)
	var wg sync.WaitGroup
	for i := 0; i < dup; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 1 {
				_ = draw(idx, int64(1000+i))
			}
			streams[i] = draw(idx, 42)
		}(i)
	}
	wg.Wait()
	if idx.BufferRegens() == 0 {
		t.Error("no sampler regenerated a buffer: nothing raced")
	}

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

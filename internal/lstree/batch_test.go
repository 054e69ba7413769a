package lstree

import (
	"testing"

	"storm/internal/sampling/samplingtest"
	"storm/internal/stats"
)

// TestNextBatchMatchesNext: for a fixed seed the stream must be identical
// however it is pulled, including across level fall-throughs.
func TestNextBatchMatchesNext(t *testing.T) {
	entries := genEntries(20000, 51)
	idx, err := Build(entries, Config{Fanout: 16, TopLevelMax: 128, Seed: 53})
	if err != nil {
		t.Fatal(err)
	}
	samplingtest.ChunkingInvariant(t, "ls-tree", func() samplingtest.Drawer {
		return idx.Sampler(testQuery, stats.NewRNG(7))
	}, -1, []int{13}, []int{512}, []int{3, 200, 1})
}

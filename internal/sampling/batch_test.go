package sampling

import (
	"testing"

	"storm/internal/data"
	"storm/internal/geo"
	"storm/internal/iosim"
	"storm/internal/rtree"
	"storm/internal/sampling/samplingtest"
	"storm/internal/stats"
)

// batchTestEntries builds a uniform point set over [0,100]^3.
func batchTestEntries(n int, seed int64) []data.Entry {
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

var batchQuery = geo.NewRect(geo.Vec{25, 25, 0}, geo.Vec{70, 70, 100})

// checkBatchEquivalence holds one sampler to the chunking-invariance
// contract across uniform, large and ragged pull patterns.
func checkBatchEquivalence(t *testing.T, label string, mk func(seed int64) Sampler, limit int) {
	t.Helper()
	samplingtest.ChunkingInvariant(t, label, func() samplingtest.Drawer { return mk(9) }, limit,
		[]int{17}, []int{256}, []int{2, 99, 5})
}

func TestQueryFirstBatchEquivalence(t *testing.T) {
	entries := batchTestEntries(8000, 3)
	tr := rtree.MustNew(rtree.Config{Fanout: 16})
	tr.BulkLoad(entries)
	checkBatchEquivalence(t, "QueryFirst", func(seed int64) Sampler {
		return NewQueryFirst(tr, batchQuery, stats.NewRNG(seed))
	}, 2000)
}

func TestSampleFirstBatchEquivalence(t *testing.T) {
	entries := batchTestEntries(8000, 5)
	ds := data.NewDataset("batch-test")
	for _, e := range entries {
		ds.AppendFast(e.Pos)
	}
	dev := iosim.NewDevice(64, iosim.DefaultCostModel())
	checkBatchEquivalence(t, "SampleFirst", func(seed int64) Sampler {
		return NewSampleFirst(ds, batchQuery, stats.NewRNG(seed), dev, 64)
	}, 1500)
}

func TestRandomPathBatchEquivalence(t *testing.T) {
	entries := batchTestEntries(8000, 7)
	tr := rtree.MustNew(rtree.Config{Fanout: 16})
	tr.BulkLoad(entries)
	checkBatchEquivalence(t, "RandomPath", func(seed int64) Sampler {
		return NewRandomPath(tr, batchQuery, stats.NewRNG(seed))
	}, 1500)
}

// TestBatchedChargesMatchSerial verifies that coalescing a pull's page
// charges never changes the I/O charged — the device totals after a stream
// pulled 128 at a time must equal the totals after the same stream pulled
// one sample at a time.
func TestBatchedChargesMatchSerial(t *testing.T) {
	entries := batchTestEntries(8000, 11)

	run := func(pull int) iosim.Stats {
		dev := iosim.NewDevice(32, iosim.DefaultCostModel())
		tr := rtree.MustNew(rtree.Config{Fanout: 16, Device: dev})
		tr.BulkLoad(entries)
		dev.DropCache()
		dev.ResetStats()
		s := NewRandomPath(tr, batchQuery, stats.NewRNG(13))
		buf := make([]data.Entry, pull)
		for drawn := 0; drawn < 1000; {
			k := pull
			if k > 1000-drawn {
				k = 1000 - drawn
			}
			n := s.NextBatch(buf, k)
			if n == 0 {
				break
			}
			drawn += n
		}
		return dev.Stats()
	}

	serial, batch := run(1), run(128)
	if serial != batch {
		t.Errorf("I/O accounting diverges:\n  serial  %v\n  batched %v", serial, batch)
	}
}

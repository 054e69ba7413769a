package distr_test

import (
	"testing"

	"storm/internal/data"
	"storm/internal/distr"
	"storm/internal/distr/distrtest"
	"storm/internal/gen"
	"storm/internal/geo"
	"storm/internal/sampling/samplingtest"
	"storm/internal/stats"
)

// TestNextBatchMatchesNext checks the coordinator's protocol emits the
// identical sample stream for the same seeds however the pulls are sized —
// a one-sample pull is a round of one draw — across shard counts.
func TestNextBatchMatchesNext(t *testing.T) {
	ds := distrtest.Dataset(6000)
	q := distrtest.Query()
	for _, shards := range []int{1, 3, 8} {
		samplingtest.ChunkingInvariant(t, "distributed", func() samplingtest.Drawer {
			return distrtest.Build(t, ds, distr.Config{Shards: shards, Seed: 5}).Sampler(q, stats.NewRNG(1))
		}, -1, []int{17}, []int{500}, []int{2, 99, 5})
	}
}

// TestNextBatchInterleavedWithNext alternates one-sample pulls with rounds
// of 64 on one sampler against a twin pulled one sample at a time.
func TestNextBatchInterleavedWithNext(t *testing.T) {
	ds := gen.Uniform(5000, 7, geo.Range{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100, MinT: 0, MaxT: 100})
	q := distrtest.Query()
	samplingtest.ChunkingInvariant(t, "interleaved", func() samplingtest.Drawer {
		return distrtest.Build(t, ds, distr.Config{Shards: 4, Seed: 9}).Sampler(q, stats.NewRNG(1))
	}, -1, []int{1, 64})
}

// TestNextBatchFewerMessages checks the point of demand-sized rounds: one
// request per participating shard per pull, so the same 4000 samples cost
// far fewer messages pulled at once than pulled one at a time.
func TestNextBatchFewerMessages(t *testing.T) {
	ds := gen.Uniform(20000, 3, geo.Range{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100, MinT: 0, MaxT: 100})
	q := distrtest.Query()
	singleC := distrtest.Build(t, ds, distr.Config{Shards: 8, Seed: 1})
	batchC := distrtest.Build(t, ds, distr.Config{Shards: 8, Seed: 1})

	s := singleC.Sampler(q, stats.NewRNG(1))
	for i := 0; i < 4000; i++ {
		if _, ok := samplingtest.Next(s); !ok {
			break
		}
	}
	singleMsgs := singleC.Net().Messages

	b := batchC.Sampler(q, stats.NewRNG(1))
	buf := make([]data.Entry, 4000)
	b.NextBatch(buf, 4000)
	batchMsgs := batchC.Net().Messages

	if batchMsgs*10 > singleMsgs {
		t.Fatalf("one pull of 4000 sent %d messages, 4000 pulls of one %d — expected at least 10x fewer", batchMsgs, singleMsgs)
	}
}

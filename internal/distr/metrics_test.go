package distr

import (
	"testing"

	"storm/internal/data"
	"storm/internal/gen"
	"storm/internal/geo"
	"storm/internal/obs"
	"storm/internal/stats"
)

// TestClusterMetrics pins the distr observability wiring: fan-out rounds
// and shard fetches land in their histograms and the network totals are
// re-exported live through scrape-time Funcs.
func TestClusterMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	ds := gen.Uniform(10_000, 11, geo.Range{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100, MinT: 0, MaxT: 100})
	c, err := Build(ds, Config{Shards: 4, Seed: 5, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}

	c.Count(testQuery)
	s := c.Sampler(testQuery, stats.NewRNG(1))
	buf := make([]data.Entry, 256)
	if got := s.NextBatch(buf, 256); got == 0 {
		t.Fatal("cluster sampler returned no samples")
	}

	if h := reg.TuningHistogram("storm.distr.fanout.latency_ms", 0.1, 16).Snapshot(); h.Count < 2 {
		t.Errorf("fanout latency observations = %d, want >= 2 (count round + init round)", h.Count)
	}
	if h := reg.TuningHistogram("storm.distr.fetch.latency_ms", 0.1, 16).Snapshot(); h.Count == 0 {
		t.Error("fetch latency histogram is empty")
	}
	if reg.Counter("storm.distr.fetches").Value() == 0 {
		t.Error("fetches counter is zero")
	}

	snap := reg.Snapshot()
	msgs, ok := snap["storm.distr.net.messages"].(uint64)
	if !ok || msgs == 0 {
		t.Errorf("net.messages = %v, want live non-zero count", snap["storm.distr.net.messages"])
	}
	if msgs != c.Net().Messages {
		t.Errorf("net.messages Func = %d, Net() = %d", msgs, c.Net().Messages)
	}
	if shards, ok := snap["storm.distr.shards"].(int); !ok || shards != 4 {
		t.Errorf("shards = %v, want 4", snap["storm.distr.shards"])
	}
}

// TestClusterNoRegistry pins that a nil Config.Obs disables metrics
// without breaking any query path.
func TestClusterNoRegistry(t *testing.T) {
	c, _ := buildCluster(t, 2_000, 2)
	s := c.Sampler(testQuery, stats.NewRNG(1))
	buf := make([]data.Entry, 64)
	if got := s.NextBatch(buf, 64); got == 0 {
		t.Fatal("sampler with metrics off returned no samples")
	}
}

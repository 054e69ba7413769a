//go:build go1.24

// This file needs package weak (Go 1.24); the module's go line is older.

package engine

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"weak"

	"storm/internal/estimator"
	"storm/internal/gen"
	"storm/internal/geo"
	"storm/internal/obs"
)

// TestUnregisterReleasesCluster pins that a shared registry does not keep an
// unregistered dataset's shard cluster alive, and that the storm.distr.*
// counters keep the cluster's final totals: a scrape never goes down.
func TestUnregisterReleasesCluster(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(Config{Seed: 42, Fanout: 32, Obs: reg})
	ds := gen.Uniform(4_000, 7, geo.Range{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100, MinT: 0, MaxT: 100})
	h, err := e.Register(ds, IndexOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Estimate(context.Background(), testRange, Options{
		Kind: estimator.Avg, Attr: "value", Method: MethodDistributed, MaxSamples: 300,
	}); err != nil {
		t.Fatal(err)
	}
	cluster := weak.Make(h.Cluster())
	h = nil

	// Everything under storm.distr. but the two live-cluster gauges.
	counters := func() map[string]any {
		out := map[string]any{}
		for name, v := range reg.Snapshot() {
			if strings.HasPrefix(name, "storm.distr.") &&
				name != "storm.distr.shards" && name != "storm.distr.faults.shards_down" {
				out[name] = v
			}
		}
		return out
	}
	before := counters()
	if before["storm.distr.net.messages"] == uint64(0) {
		t.Fatalf("the query moved no messages: %v", before)
	}
	if err := e.Unregister("uniform"); err != nil {
		t.Fatal(err)
	}
	if after := counters(); !reflect.DeepEqual(after, before) {
		t.Errorf("storm.distr.* moved across Unregister:\n before %v\n after  %v", before, after)
	}
	if got := reg.Snapshot()["storm.distr.shards"]; got != 0 {
		t.Errorf("storm.distr.shards = %v after Unregister, want 0", got)
	}
	runtime.GC()
	if cluster.Value() != nil {
		t.Error("the registry keeps an unregistered cluster alive")
	}
}

// Package distrtest holds the shared fixtures and drain helpers used by
// the distributed-layer test suites (internal/distr's external tests and
// internal/engine's distributed tests). Folding them here keeps the
// cluster-builder and stream-drain idioms in one place instead of
// copy-pasted per package: every suite builds the same uniform fixture,
// queries the same rectangle, and compares sample streams the same way.
//
// The package imports distr, so only external test packages
// (package distr_test, package engine) can use it; distr's in-package
// tests would form an import cycle and keep their own minimal helpers.
package distrtest

import (
	"testing"

	"storm/internal/data"
	"storm/internal/distr"
	"storm/internal/gen"
	"storm/internal/geo"
	"storm/internal/wire"
)

// Dataset builds the shared test fixture: n uniform records over a
// 100×100×100 space-time box with the standard numeric columns, under a
// fixed generator seed so every suite sees identical data.
func Dataset(n int) *data.Dataset {
	return gen.Uniform(n, 11, geo.Range{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100, MinT: 0, MaxT: 100})
}

// Query returns the standard test query: a rectangle covering roughly a
// sixth of the fixture's space-time volume, so it spans shard boundaries
// while leaving plenty of non-matching records.
func Query() geo.Rect {
	return geo.NewRect(geo.Vec{20, 20, 0}, geo.Vec{60, 60, 100})
}

// FastConfig returns a cluster config with retry backoff sleeps disabled
// so fault-injection tests stay fast. An optional replica count sets
// Config.Replicas (default 1, the historical single-copy layout), letting
// the same suites run against replicated clusters without changing any
// existing call site.
func FastConfig(shards int, seed int64, plan *distr.FaultPlan, replicas ...int) distr.Config {
	cfg := distr.Config{Shards: shards, Seed: seed, Faults: plan, RetryBackoff: -1}
	if len(replicas) > 0 {
		cfg.Replicas = replicas[0]
	}
	return cfg
}

// Build constructs a cluster from ds under cfg, failing the test on error.
func Build(t testing.TB, ds *data.Dataset, cfg distr.Config) *distr.Cluster {
	t.Helper()
	c, err := distr.Build(ds, cfg)
	if err != nil {
		t.Fatalf("distr.Build: %v", err)
	}
	return c
}

// BuildTCP constructs a remote cluster against shard hosts serving the
// same dataset over real TCP sockets: one wire.Server per addr, each
// backed by a Host that regenerated the fixture. The servers are torn
// down with the test. cfg.Replicas flows through to placement: with R
// replicas each shard lands on R distinct hosts (pass at least R hosts,
// or the replica sets come up short and the suite quietly runs at a
// lower factor).
func BuildTCP(t testing.TB, ds *data.Dataset, cfg distr.Config, hosts int) *distr.Cluster {
	t.Helper()
	addrs := make([]string, hosts)
	for i := range addrs {
		h := distr.NewHost()
		h.AddDataset(ds)
		srv, err := wire.NewServer("127.0.0.1:0", h)
		if err != nil {
			t.Fatalf("wire.NewServer: %v", err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs[i] = srv.Addr()
	}
	c, err := distr.BuildRemote(ds, cfg, addrs)
	if err != nil {
		t.Fatalf("distr.BuildRemote: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// DrainBatched pulls with NextBatch using the cyclic size pattern,
// stopping at the first short round.
func DrainBatched(s *distr.Sampler, sizes []int) []data.Entry {
	var out []data.Entry
	for i := 0; ; i++ {
		k := sizes[i%len(sizes)]
		buf := make([]data.Entry, k)
		n := s.NextBatch(buf, k)
		out = append(out, buf[:n]...)
		if n < k {
			return out
		}
	}
}

// SameEntries fails the test unless the two drains are byte-identical:
// same length, same IDs in the same order.
func SameEntries(t testing.TB, want, got []data.Entry, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: one drain yields %d samples, the other %d", label, len(want), len(got))
	}
	for i := range want {
		if want[i].ID != got[i].ID {
			t.Fatalf("%s: stream diverges at %d: ID %d vs %d",
				label, i, want[i].ID, got[i].ID)
		}
	}
}

// SurvivingTruth computes the mean of the "value" column over records
// matching q on every shard except the given dead ones — the population a
// degraded stream covers. Shards() returns only the primaries, each of
// which holds its full partition exactly once, so the truth is the same
// at every replication factor.
func SurvivingTruth(c *distr.Cluster, ds *data.Dataset, q geo.Rect, dead map[int]bool) (mean float64, count int) {
	col, _ := ds.NumericColumn("value")
	var sum float64
	for i, sh := range c.Shards() {
		if dead[i] {
			continue
		}
		for _, e := range sh.Index().Tree().ReportAll(q) {
			sum += col[e.ID]
			count++
		}
	}
	if count == 0 {
		return 0, 0
	}
	return sum / float64(count), count
}

// FullTruth computes the mean of the "value" column over every record in
// ds matching q — the full-population ground truth that recovery and
// lost-mass-bound tests compare against.
func FullTruth(ds *data.Dataset, q geo.Rect) (mean float64, count int) {
	col, _ := ds.NumericColumn("value")
	var sum float64
	for i := 0; i < ds.Len(); i++ {
		if q.Contains(ds.Pos(uint64(i))) {
			sum += col[i]
			count++
		}
	}
	if count == 0 {
		return 0, 0
	}
	return sum / float64(count), count
}

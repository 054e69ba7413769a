package engine

import (
	"context"
	"fmt"
	"math"
	"testing"

	"storm/internal/estimator"
	"storm/internal/gen"
	"storm/internal/geo"
	"storm/internal/pred"
)

// ioGoldenFile pins the simulated I/O of one query at a time: one line per
// case, "<method>/<scope> logical=… hits=… reads=… coalesced=…" from the
// final snapshot's per-query IO, then the shared device's counters after
// the last case. The seeded-stream golden files pin which samples a query
// draws, not which pages it charges or where the charges land; this file
// pins that. It was re-recorded once when stats.RNG moved onto PCG (every
// seeded draw changed) and must never be regenerated to make a refactor pass.
// STORM_UPDATE_GOLDEN=1 rewrites it (deliberate, reviewed changes only).
const ioGoldenFile = "testdata/golden_io.txt"

// TestGoldenIO runs every local sampler over a pooled engine with no
// predicate, with a pushdown WHERE and with a rejection WHERE, one query at
// a time, and compares each query's attributed I/O and the device's final
// counters against ioGoldenFile.
func TestGoldenIO(t *testing.T) {
	e := New(Config{Seed: 42, Fanout: 32, BufferPoolPages: 64})
	ds := gen.Uniform(20_000, 7, geo.Range{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100, MinT: 0, MaxT: 100})
	h, err := e.Register(ds, IndexOptions{LSTree: true})
	if err != nil {
		t.Fatal(err)
	}
	above60 := []pred.Term{{Attr: "value", Lo: 60, Hi: math.Inf(1), LoOpen: true}}
	scopes := []struct {
		name     string
		where    []pred.Term
		pushdown PushdownStrategy
	}{
		{"plain", nil, PushdownAuto},
		{"pushdown", above60, PushdownForce},
		{"rejection", above60, PushdownOff},
	}
	lines := newGoldenLines(t)
	seed := int64(300)
	for _, m := range []Method{MethodRSTree, MethodLSTree, MethodRandomPath, MethodQueryFirst, MethodSampleFirst} {
		for _, sc := range scopes {
			seed++
			name := fmt.Sprintf("%v/%s", m, sc.name)
			snap, err := h.Estimate(context.Background(), testRange, Options{
				Kind: estimator.Avg, Attr: "value", Method: m, Seed: seed,
				MaxSamples: 700, Where: sc.where, Pushdown: sc.pushdown,
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if snap.Err() != nil || snap.Samples != 700 {
				t.Fatalf("%s: drew %d samples (%v), want 700", name, snap.Samples, snap.Err())
			}
			io := snap.IO
			lines.record(name, fmt.Sprintf("logical=%d hits=%d reads=%d coalesced=%d", io.Logical, io.Hits, io.Reads, io.Coalesced))
		}
	}
	st := e.Device().Stats()
	lines.record("device", fmt.Sprintf("reads=%d writes=%d hits=%d logical=%d evictions=%d cost=%s",
		st.Reads, st.Writes, st.Hits, st.Logical, st.Evictions, f(st.CostUnits)))
	lines.check(ioGoldenFile)
}

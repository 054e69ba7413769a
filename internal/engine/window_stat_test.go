package engine

import (
	"context"
	"math"
	"testing"
	"time"

	"storm/internal/data"
	"storm/internal/estimator"
	"storm/internal/geo"
	"storm/internal/sampling"
	"storm/internal/stats"
	"storm/internal/stats/statcheck"
)

const (
	// churnBase records are bulk-loaded, then churnStream more arrive
	// through InsertBatch in shuffled chunks of churnChunk, four records per
	// second of event time: the stream spans 120 s and the 30 s window
	// holds its last 121 records.
	churnBase   = 800
	churnStream = 480
	churnChunk  = 48
	churnStep   = 0.25
	churnLast   = 30 * time.Second
	// churnCIRuns is how many trials estimate the window's AVG.
	churnCIRuns = 200
)

// churnRows is the fixed record sequence: record i sits at a seeded random
// position at event time i·churnStep, carrying a value non-monotone in
// time, so a window mean is not right by symmetry with the time axis.
func churnRows() []data.Row {
	rng := stats.NewRNG(0x57)
	rows := make([]data.Row, churnBase+churnStream)
	for i := range rows {
		ts := float64(i) * churnStep
		rows[i] = data.Row{
			Pos: geo.Vec{rng.Float64() * 100, rng.Float64() * 100, ts},
			Num: map[string]float64{"value": math.Mod(ts*37, 101)},
		}
	}
	return rows
}

// churnHandle registers the base records under engine seed seed, with the
// LS-tree built at Register unless lazy (then the first LS-tree query builds
// it), then streams the rest through InsertBatch, each chunk shuffled by
// seed: every trial holds the same records in indexes whose sample buffers,
// level coin flips and insertion order differ.
func churnHandle(t *testing.T, rows []data.Row, seed int64, lazy bool) *Handle {
	t.Helper()
	ds := data.NewDataset("churn")
	ds.AddNumericColumn("value")
	for _, r := range rows[:churnBase] {
		ds.Append(r)
	}
	h, err := New(Config{Seed: seed, Fanout: 16, NoMetrics: true}).Register(ds, IndexOptions{LSTree: !lazy})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(seed)
	stream := append([]data.Row(nil), rows[churnBase:]...)
	for lo := 0; lo < len(stream); lo += churnChunk {
		chunk := stream[lo:min(lo+churnChunk, len(stream))]
		for i := len(chunk) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			chunk[i], chunk[j] = chunk[j], chunk[i]
		}
		h.InsertBatch(chunk)
	}
	return h
}

// churnWindow is the fixture both live-window tests share: the query
// rectangle, the records the `LAST 30s` window holds (keyed by event time,
// which is unique and survives any insertion order; record IDs do not), and
// the exact mean of their values.
type churnWindow struct {
	rows  []data.Row
	q     geo.Range
	win   geo.Range
	slot  map[float64]int
	truth float64
}

func newChurnWindow(t *testing.T) churnWindow {
	t.Helper()
	w := churnWindow{
		rows: churnRows(),
		q:    geo.Range{MinX: 10, MinY: 10, MaxX: 90, MaxY: 90, MinT: 0, MaxT: 1e9},
		slot: map[float64]int{},
	}
	w.win = w.q
	w.win.MinT = w.rows[len(w.rows)-1].Pos[2] - churnLast.Seconds()
	var sum float64
	for _, r := range w.rows {
		if w.win.Rect().Contains(r.Pos) {
			w.slot[r.Pos[2]] = len(w.slot)
			sum += r.Num["value"]
		}
	}
	if len(w.slot) < 40 {
		t.Fatalf("degenerate fixture: %d windowed records", len(w.slot))
	}
	w.truth = sum / float64(len(w.slot))
	return w
}

// churnSeeds are the trials' engine seeds: sixteen expected first samples
// per windowed record (chi-square wants 5). The coverage test uses the
// first churnCIRuns of them.
func churnSeeds(w churnWindow) []int64 {
	return statcheck.Seeds(0x3A, 16*len(w.slot))
}

var churnMethods = []Method{MethodRSTree, MethodLSTree}

// TestStatWindowUniform is the live-window uniformity check (run by
// `make test-stats`): a `LAST 30s` query over indexes grown by out-of-order
// batch inserts must sample exactly uniformly from the windowed population.
// Each trial builds the indexes afresh under its own seed (a sampler over
// one fixed index is uniform only across index builds: the RS-tree's stored
// buffers and the LS-tree's levels are fixed samples). For the RS-tree, the
// LS-tree built at Register and the LS-tree first built after the churn it
// chi-squares the trials' first samples against the windowed records.
// Seeds are fixed; a failure is a regression, not noise (see the statcheck
// package doc for the false-positive budget).
func TestStatWindowUniform(t *testing.T) {
	w := newChurnWindow(t)
	cases := []struct {
		name string
		m    Method
		lazy bool
	}{
		{MethodRSTree.String(), MethodRSTree, false},
		{MethodLSTree.String(), MethodLSTree, false},
		{MethodLSTree.String() + "-lazy", MethodLSTree, true},
	}
	counts := make([][]int, len(cases))
	for i := range cases {
		counts[i] = make([]int, len(w.slot))
	}
	var first [1]data.Entry
	for _, seed := range churnSeeds(w) {
		h, lazy := churnHandle(t, w.rows, seed, false), churnHandle(t, w.rows, seed, true)
		for i, c := range cases {
			h, m := h, c.m
			if c.lazy {
				h = lazy
			}
			res, err := h.resolve(w.q.Rect(), Options{Method: m, Last: churnLast})
			if err != nil {
				t.Fatal(err)
			}
			s, _, err := h.newSampler(res.method, res.rect, sampling.WithoutReplacement, 0, seed, res.plan)
			if err != nil {
				t.Fatal(err)
			}
			if s.NextBatch(first[:], 1) != 1 {
				t.Fatalf("%v seed %d: empty window stream", m, seed)
			}
			s.Close()
			j, ok := w.slot[h.Data().Pos(first[0].ID)[2]]
			if !ok || !w.win.Rect().Contains(h.Data().Pos(first[0].ID)) {
				t.Fatalf("%v seed %d: sampled record %d outside the window", m, seed, first[0].ID)
			}
			counts[i][j]++
		}
	}
	for i, c := range cases {
		statcheck.Uniform(t, "window-first-sample/"+c.name, counts[i], statcheck.DefaultAlpha)
	}
}

// TestStatWindowCoverage is the live-window coverage check (run by
// `make test-stats`): over the same churned indexes, the AVG confidence
// interval of a `LAST 30s` estimate must cover the windowed mean at the
// binomial floor for 95 %, with no slack, for the RS-tree and the LS-tree.
func TestStatWindowCoverage(t *testing.T) {
	w := newChurnWindow(t)
	intervals := make([][]statcheck.Interval, len(churnMethods))
	for _, seed := range churnSeeds(w)[:churnCIRuns] {
		h := churnHandle(t, w.rows, seed, false)
		for i, m := range churnMethods {
			snap, err := h.Estimate(context.Background(), w.q, Options{
				Kind: estimator.Avg, Attr: "value", Method: m,
				Last: churnLast, MaxSamples: 30, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !snap.Windowed || snap.Population != len(w.slot) {
				t.Fatalf("%v seed %d: windowed=%v population %d, want %d", m, seed, snap.Windowed, snap.Population, len(w.slot))
			}
			intervals[i] = append(intervals[i], statcheck.IntervalAround(snap.Value, snap.HalfWidth))
		}
	}
	for i, m := range churnMethods {
		statcheck.Coverage(t, "window-avg-ci/"+m.String(), w.truth, intervals[i], 0.95, 0, statcheck.DefaultAlpha)
	}
}

package engine

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"storm/internal/data"
	"storm/internal/distr/distrtest"
	"storm/internal/estimator"
	"storm/internal/geo"
	"storm/internal/pred"
)

// maxEventTime scans the dataset for its true watermark.
func maxEventTime(h *Handle) float64 {
	wm := math.Inf(-1)
	for i := 0; i < h.Data().Len(); i++ {
		if t := h.Data().Pos(uint64(i))[2]; t > wm {
			wm = t
		}
	}
	return wm
}

// windowTruth counts records in rect whose time lies in [wm-d, wm] and
// that satisfy the optional predicate terms.
func windowTruth(h *Handle, q geo.Range, d time.Duration, where []pred.Term) int {
	wm := maxEventTime(h)
	rect := q.Rect()
	var c *pred.Compiled
	if len(where) > 0 {
		c, _ = pred.Normalize(where).Compile(h.Data())
	}
	cnt := 0
	for i := 0; i < h.Data().Len(); i++ {
		p := h.Data().Pos(uint64(i))
		if !rect.Contains(p) || p[2] < wm-d.Seconds() || p[2] > wm {
			continue
		}
		if c != nil && !c.Match(uint64(i)) {
			continue
		}
		cnt++
	}
	return cnt
}

func TestWatermarkLifecycle(t *testing.T) {
	_, h := buildHandle(t, 5000, false)
	wm, ok := h.Watermark()
	if !ok {
		t.Fatal("registered dataset should have a watermark")
	}
	if want := maxEventTime(h); wm != want {
		t.Fatalf("watermark = %v, want dataset max %v", wm, want)
	}
	// An insert behind the watermark does not move it; one ahead does.
	h.Insert(data.Row{Pos: geo.Vec{50, 50, wm - 10}})
	if got, _ := h.Watermark(); got != wm {
		t.Fatalf("late insert moved the watermark: %v -> %v", wm, got)
	}
	h.Insert(data.Row{Pos: geo.Vec{50, 50, wm + 7}})
	if got, _ := h.Watermark(); got != wm+7 {
		t.Fatalf("watermark after ahead insert = %v, want %v", got, wm+7)
	}
	// Deleting everything does not lower it: the window stays anchored at
	// the latest time the stream ever reached.
	if _, err := h.DeleteRange(geo.UniverseRange()); err != nil {
		t.Fatal(err)
	}
	if got, ok := h.Watermark(); !ok || got != wm+7 {
		t.Fatalf("watermark after delete = %v (ok=%v), want %v", got, ok, wm+7)
	}
}

func TestWindowRangeNarrowing(t *testing.T) {
	_, h := buildHandle(t, 2000, false)
	wm, _ := h.Watermark()
	r := geo.Range{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100, MinT: 0, MaxT: 100}

	if got := h.WindowRange(r, 0); got != r {
		t.Fatalf("d=0 should leave the range unchanged: %+v", got)
	}
	got := h.WindowRange(r, 30*time.Second)
	if got.MinT != wm-30 || got.MaxT != wm {
		t.Fatalf("window = [%v, %v], want [%v, %v]", got.MinT, got.MaxT, wm-30, wm)
	}
	// A TIME clause inside the window is kept as-is.
	tight := r
	tight.MinT, tight.MaxT = wm-5, wm-1
	if got := h.WindowRange(tight, 30*time.Second); got != tight {
		t.Fatalf("inner TIME clause should survive: %+v", got)
	}
	// A TIME clause entirely before the window comes back time-empty.
	past := r
	past.MinT, past.MaxT = 0, wm-90
	if got := h.WindowRange(past, 10*time.Second); got.MinT <= got.MaxT {
		t.Fatalf("disjoint window should be empty: %+v", got)
	}

	// No watermark (never any records): time-empty.
	e := New(Config{Seed: 9})
	empty, err := e.Register(data.NewDataset("empty"), IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := empty.Watermark(); ok {
		t.Fatal("empty dataset should have no watermark")
	}
	if got := empty.WindowRange(r, time.Minute); got.MinT <= got.MaxT {
		t.Fatalf("no-watermark window should be empty: %+v", got)
	}
}

// TestResolveNarrowsAsWindowRange: the query path and WindowRange narrow
// by one function. Over random ranges and LAST durations — windows inside
// the TIME clause, straddling it and sliding past it, no window at all, and
// a dataset never written to — resolve's rectangle is WindowRange's bit
// for bit wherever the narrowed range is valid, and otherwise both are
// empty.
func TestResolveNarrowsAsWindowRange(t *testing.T) {
	_, h := buildHandle(t, 2000, false)
	empty, err := New(Config{Seed: 9}).Register(data.NewDataset("empty"), IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	// valid counts narrowed ranges; emptied counts empty ones per dataset:
	// windows that slid past the TIME clause, then the unwritten dataset's.
	valid, emptied := 0, [2]int{}
	for di, hd := range []*Handle{h, empty} {
		for range 400 {
			x, y, lo := rng.Float64()*90, rng.Float64()*90, rng.Float64()*130-20
			q := geo.Range{MinX: x, MinY: y, MaxX: x + rng.Float64()*10, MaxY: y + rng.Float64()*10, MinT: lo, MaxT: lo + rng.Float64()*60}
			var d time.Duration
			if rng.Intn(8) != 0 {
				d = time.Duration(1 + rng.Int63n(int64(120*time.Second)))
			}
			want := hd.WindowRange(q, d)
			hd.mu.RLock()
			res, err := hd.resolve(q.Rect(), Options{Last: d})
			hd.mu.RUnlock()
			if err != nil {
				t.Fatal(err)
			}
			got, wr := res.rect, want.Rect()
			if !want.Valid() {
				if !got.IsEmpty() || !wr.IsEmpty() {
					t.Fatalf("q %+v LAST %v: resolve %v, WindowRange %v; want both empty", q, d, got, wr)
				}
				emptied[di]++
				continue
			}
			valid++
			for i := range geo.Dims {
				if math.Float64bits(got.Min[i]) != math.Float64bits(wr.Min[i]) || math.Float64bits(got.Max[i]) != math.Float64bits(wr.Max[i]) {
					t.Fatalf("q %+v LAST %v: resolve %v, WindowRange %v", q, d, got, wr)
				}
			}
		}
	}
	if valid < 100 || emptied[0] < 20 || emptied[1] < 100 {
		t.Fatalf("degenerate draw: %d valid windows, %d slid past the TIME clause, %d on the unwritten dataset",
			valid, emptied[0], emptied[1])
	}
}

func TestWindowedCountExact(t *testing.T) {
	_, h := buildHandle(t, 20000, false)
	const last = 30 * time.Second
	want := windowTruth(h, testRange, last, nil)
	full := windowTruth(h, testRange, 200*time.Second, nil)
	if want == 0 || want == full {
		t.Fatalf("degenerate fixture: windowed %d of %d", want, full)
	}
	snap, err := h.Estimate(context.Background(), testRange, Options{
		Kind: estimator.Count, Last: last,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Exact || int(snap.Value) != want {
		t.Fatalf("windowed COUNT = %v (exact=%v), want %d", snap.Value, snap.Exact, want)
	}
	if !snap.Windowed {
		t.Fatal("snapshot should be marked windowed")
	}
	wm, _ := h.Watermark()
	if snap.WindowLo != wm-last.Seconds() || snap.WindowHi != wm {
		t.Fatalf("snapshot window = [%v, %v], want [%v, %v]",
			snap.WindowLo, snap.WindowHi, wm-last.Seconds(), wm)
	}
}

func TestWindowedEstimateMatchesNarrowedRange(t *testing.T) {
	_, h := buildHandle(t, 20000, false)
	const last = 40 * time.Second
	narrowed := h.WindowRange(testRange, last)
	want, cnt := trueMean(h, narrowed, "value")
	if cnt == 0 {
		t.Fatal("degenerate fixture")
	}
	// Run to exhaustion: the windowed estimate must be exact over exactly
	// the windowed population.
	snap, err := h.Estimate(context.Background(), testRange, Options{
		Kind: estimator.Avg, Attr: "value", Last: last,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Exact || snap.Population != cnt {
		t.Fatalf("windowed AVG population = %d (exact=%v), want %d", snap.Population, snap.Exact, cnt)
	}
	if math.Abs(snap.Value-want) > 1e-9 {
		t.Fatalf("windowed AVG = %v, want %v", snap.Value, want)
	}
}

func TestWindowedComposesWithWhere(t *testing.T) {
	_, h := buildHandle(t, 20000, false)
	const last = 35 * time.Second
	where := []pred.Term{{Attr: "value", Lo: 40, Hi: math.Inf(1)}}
	want := windowTruth(h, testRange, last, where)
	if want == 0 {
		t.Fatal("degenerate fixture")
	}
	snap, err := h.Estimate(context.Background(), testRange, Options{
		Kind: estimator.Count, Last: last, Where: where,
	})
	if err != nil {
		t.Fatal(err)
	}
	if int(snap.Value) != want {
		t.Fatalf("windowed+WHERE COUNT = %v, want %d", snap.Value, want)
	}
}

func TestWindowedDistributed(t *testing.T) {
	e := New(Config{Seed: 42, Fanout: 32})
	h, err := e.Register(distrtest.Dataset(12000), IndexOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	const last = 30 * time.Second
	want := windowTruth(h, testRange, last, nil)
	if want == 0 {
		t.Fatal("degenerate fixture")
	}
	narrowed := h.WindowRange(testRange, last)
	localWant, _ := trueMean(h, narrowed, "value")
	// The exhausted stream, then the exact plan's count round: both send
	// the shards the narrowed rectangle.
	for _, c := range []struct {
		method     string
		maxSamples int
	}{{"distributed-rs-tree", exhaust}, {"exact", 0}} {
		snap, err := h.Estimate(context.Background(), testRange, Options{
			Kind: estimator.Avg, Attr: "value", Last: last, Method: MethodDistributed, MaxSamples: c.maxSamples,
		})
		if err != nil {
			t.Fatal(err)
		}
		if snap.Method != c.method {
			t.Fatalf("ran via %q, want %q", snap.Method, c.method)
		}
		if snap.Population != want {
			t.Fatalf("%s windowed population = %d, want %d", c.method, snap.Population, want)
		}
		if !snap.Windowed {
			t.Fatalf("%s snapshot should be marked windowed", c.method)
		}
		if !snap.Exact {
			t.Fatalf("%s query should be exact: %+v", c.method, snap)
		}
		if math.Abs(snap.Value-localWant) > 1e-9 {
			t.Fatalf("%s windowed AVG = %v, want %v", c.method, snap.Value, localWant)
		}
	}
}

func TestWindowedContractPopulation(t *testing.T) {
	_, h := buildHandle(t, 20000, false)
	const last = 30 * time.Second
	want := windowTruth(h, testRange, last, nil)
	plan, err := h.ExplainContract(testRange, Options{Kind: estimator.Avg, Attr: "value", Last: last},
		Contract{RelError: 0.05, Confidence: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Qualifying != want {
		t.Fatalf("windowed contract qualifying = %d, want %d", plan.Qualifying, want)
	}
}

func TestWindowedEmptyDataset(t *testing.T) {
	e := New(Config{Seed: 5})
	h, err := e.Register(data.NewDataset("stream"), IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := h.Estimate(context.Background(), geo.UniverseRange(), Options{
		Kind: estimator.Count, Last: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Exact || snap.Value != 0 || snap.Population != 0 {
		t.Fatalf("windowed COUNT over empty dataset = %+v, want exact zero", snap)
	}
}

func TestInsertBatch(t *testing.T) {
	e := New(Config{Seed: 11})
	h, err := e.Register(data.NewDataset("stream"), IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]data.Row, 500)
	for i := range rows {
		// Deliberately unsorted positions: InsertBatch re-sorts into STR
		// order internally but must return IDs in the rows' given order.
		rows[i] = data.Row{
			Pos: geo.Vec{float64((i * 37) % 100), float64((i * 61) % 100), float64(i)},
			Num: map[string]float64{"v": float64(i)},
		}
	}
	ids := h.InsertBatch(rows)
	if len(ids) != len(rows) {
		t.Fatalf("got %d ids for %d rows", len(ids), len(rows))
	}
	for i, id := range ids {
		if h.Data().Pos(uint64(id)) != rows[i].Pos {
			t.Fatalf("id %d maps to %v, want %v", id, h.Data().Pos(uint64(id)), rows[i].Pos)
		}
	}
	if h.Len() != len(rows) {
		t.Fatalf("len = %d", h.Len())
	}
	if wm, ok := h.Watermark(); !ok || wm != 499 {
		t.Fatalf("watermark = %v (ok=%v), want 499", wm, ok)
	}
	// The batch is immediately queryable, including through a window.
	snap, err := h.Estimate(context.Background(), geo.UniverseRange(), Options{
		Kind: estimator.Count, Last: 99 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if int(snap.Value) != 100 { // t in [400, 499]
		t.Fatalf("windowed COUNT after batch = %v, want 100", snap.Value)
	}
	if h.InsertBatch(nil) != nil {
		t.Fatal("empty batch should return nil")
	}
}

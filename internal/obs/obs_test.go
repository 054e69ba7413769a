package obs

import (
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
)

func TestCounterGaugeFloatBasics(t *testing.T) {
	c := NewCounter()
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	g := NewGauge()
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
	f := NewFloat()
	f.Set(1.5)
	f.Add(0.25)
	if got := f.Value(); got != 1.75 {
		t.Fatalf("float = %v, want 1.75", got)
	}
}

// TestNilMetricsAreNoOps pins the opt-out contract: every metric type and
// the registry itself must be usable as nil without panicking.
func TestNilMetricsAreNoOps(t *testing.T) {
	var c *Counter
	c.Add(1)
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter should read 0")
	}
	var g *Gauge
	g.Set(5)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge should read 0")
	}
	var f *Float
	f.Set(5)
	f.Add(1)
	if f.Value() != 0 {
		t.Fatal("nil float should read 0")
	}
	var r *Registry
	r.Publish("x", NewCounter())
	r.Unpublish("x")
	r.PublishFunc("f", func() any { return 1 })
	r.Counter("c").Add(1) // nil registry hands out nil counter
	r.Gauge("g").Set(1)
	if len(r.Snapshot()) != 0 {
		t.Fatal("nil registry should snapshot empty")
	}
	if r.Names() != nil {
		t.Fatal("nil registry should have no names")
	}
	if r.Get("c") != nil {
		t.Fatal("nil registry Get should return nil")
	}
}

// TestConcurrentMutation hammers every metric type from N writer
// goroutines while M readers snapshot concurrently — the PR 1 concurrency
// model (many queries, live scrapes) under -race — then checks exact
// totals once the writers are done.
func TestConcurrentMutation(t *testing.T) {
	const (
		writers   = 8
		readers   = 4
		perWriter = 5000
	)
	reg := NewRegistry()
	c := reg.Counter("c")
	g := reg.Gauge("g")
	f := NewFloat()
	reg.Publish("f", f)
	h := reg.TuningHistogram("h", 0.25, 4)

	stop := make(chan struct{})
	var rd sync.WaitGroup
	for i := 0; i < readers; i++ {
		rd.Add(1)
		go func() {
			defer rd.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := h.Snapshot()
				var total uint64
				for _, n := range snap.Counts {
					total += n
				}
				// Observe bumps its bucket before Count and Snapshot loads
				// Count before the buckets, so every observation a
				// snapshot counted is also in its bucket total. The
				// buckets may lead by any amount: writers keep observing
				// while the snapshot walks them.
				if total < snap.Count {
					t.Errorf("histogram bucket total %d behind count %d", total, snap.Count)
					return
				}
				_ = reg.Snapshot()
				_ = c.Value() + uint64(g.Value())
			}
		}()
	}

	var wr sync.WaitGroup
	for w := 0; w < writers; w++ {
		wr.Add(1)
		go func(w int) {
			defer wr.Done()
			for i := 0; i < perWriter; i++ {
				c.Add(1)
				g.Add(1)
				g.Add(-1)
				f.Add(0.5)
				h.Observe(float64(i%4) / 4)
			}
		}(w)
	}
	wr.Wait()
	close(stop)
	rd.Wait()

	if got := c.Value(); got != writers*perWriter {
		t.Errorf("counter = %d, want %d", got, writers*perWriter)
	}
	if got := g.Value(); got != 0 {
		t.Errorf("gauge = %d, want 0", got)
	}
	if got, want := f.Value(), float64(writers*perWriter)*0.5; got != want {
		t.Errorf("float = %v, want %v", got, want)
	}
	snap := h.Snapshot()
	if snap.Count != writers*perWriter {
		t.Errorf("histogram count = %d, want %d", snap.Count, writers*perWriter)
	}
	var total uint64
	for _, n := range snap.Counts {
		total += n
	}
	if total != snap.Count {
		t.Errorf("quiesced bucket total %d != count %d", total, snap.Count)
	}
}

// TestRegistryJSON pins the wire format: a flat JSON object (expvar
// shape) with counters/gauges as numbers and histograms as objects.
func TestRegistryJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("queries").Add(7)
	reg.Gauge("active").Set(-2)
	rate := NewFloat()
	rate.Set(1.5)
	reg.Publish("rate", rate)
	reg.TuningHistogram("lat_ms", 1, 4).Observe(3)
	reg.PublishFunc("pool", func() any { return map[string]uint64{"hits": 9} })

	rec := httptest.NewRecorder()
	reg.ServeHTTP(rec, nil)
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("output does not parse as a JSON object: %v\n%s", err, rec.Body.String())
	}
	for _, name := range []string{"queries", "active", "rate", "lat_ms", "pool"} {
		if _, ok := got[name]; !ok {
			t.Errorf("missing %q in %s", name, rec.Body.String())
		}
	}
	var q uint64
	if err := json.Unmarshal(got["queries"], &q); err != nil || q != 7 {
		t.Errorf("queries = %s, want 7 (%v)", got["queries"], err)
	}
	var hs HistogramSnapshot
	if err := json.Unmarshal(got["lat_ms"], &hs); err != nil || hs.Count != 1 {
		t.Errorf("histogram round-trip: %s (%v)", got["lat_ms"], err)
	}
}

func TestRegistryReplaceAndUnpublish(t *testing.T) {
	reg := NewRegistry()
	c1 := reg.Counter("x.a")
	if c2 := reg.Counter("x.a"); c2 != c1 {
		t.Fatal("Counter should return the existing metric")
	}
	reg.Counter("x.b")
	reg.Counter("y.a")
	reg.Unpublish("x.")
	names := reg.Names()
	if len(names) != 1 || names[0] != "y.a" {
		t.Fatalf("after unpublish: %v", names)
	}
	// A name held by a different type is replaced, not returned.
	reg.Publish("y.a", NewGauge())
	if _, ok := reg.Get("y.a").(*Gauge); !ok {
		t.Fatal("publish should replace")
	}
	if _, ok := reg.Get("y.a").(*Counter); ok {
		t.Fatal("stale counter survived replace")
	}
	reg.Counter("y.a").Inc() // replaces the gauge
	if _, ok := reg.Get("y.a").(*Counter); !ok {
		t.Fatal("Counter should replace a differently-typed var")
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	c := NewCounter()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkTuningHistogramObserve(b *testing.B) {
	h := NewTuningHistogram(0.1, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i % 1000))
	}
}

func BenchmarkNilCounterAdd(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

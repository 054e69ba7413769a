package obs_test

import (
	"math"
	"sync"
	"testing"

	"storm/internal/obs"
)

func TestTuningHistogramBasics(t *testing.T) {
	h := obs.NewTuningHistogram(1, 8)
	s := h.Snapshot()
	if len(s.Bounds) != 8 || len(s.Counts) != 9 {
		t.Fatalf("want 8 bounds / 9 counts, got %d / %d", len(s.Bounds), len(s.Counts))
	}
	for i, want := range []float64{1, 2, 4, 8, 16, 32, 64, 128} {
		if s.Bounds[i] != want {
			t.Fatalf("bound[%d] = %v, want %v", i, s.Bounds[i], want)
		}
	}
	for _, v := range []float64{0.5, 1, 3, 100} {
		h.Observe(v)
	}
	s = h.Snapshot()
	if s.Count != 4 || s.Sum != 104.5 || s.Mean() != 104.5/4 {
		t.Fatalf("count/sum/mean = %d/%v/%v, want 4/104.5/26.125", s.Count, s.Sum, s.Mean())
	}
	// 0.5 and 1 share bucket 0 (bound 1); 3 lands in bucket 2 (bound 4);
	// 100 in bucket 7 (bound 128).
	if s.Counts[0] != 2 || s.Counts[2] != 1 || s.Counts[7] != 1 {
		t.Fatalf("unexpected bucket layout: %v", s.Counts)
	}
	if h.Rescales() != 0 {
		t.Fatalf("no rescale expected, got %d", h.Rescales())
	}
}

func TestTuningHistogramRescale(t *testing.T) {
	h := obs.NewTuningHistogram(1, 4) // bounds 1 2 4 8
	for _, v := range []float64{1, 2, 4, 8} {
		h.Observe(v)
	}
	h.Observe(30) // beyond 8: one rescale ([1 2 4 8] -> [2 8 16 32]) covers it
	if got := h.Rescales(); got != 1 {
		t.Fatalf("rescales = %d, want 1", got)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	// No observation may ever land in the overflow bucket for finite input.
	if over := s.Counts[len(s.Counts)-1]; over != 0 {
		t.Fatalf("overflow bucket holds %d finite observations", over)
	}
	// Mass is conserved across rescales and the new top bound covers 100.
	var total uint64
	for _, c := range s.Counts {
		total += c
	}
	if total != 5 {
		t.Fatalf("bucket mass %d, want 5", total)
	}
	if top := s.Bounds[len(s.Bounds)-1]; top < 30 {
		t.Fatalf("top bound %v does not cover 30", top)
	}
	// After one rescale of [1 2 4 8], the merged lower half is [2 8]: the
	// four seed values pair up exactly ({1,2} under 2, {4,8} under 8), and
	// 30 lands under the new 32 bound.
	if s.Counts[0] != 2 || s.Counts[1] != 2 || s.Counts[3] != 1 {
		t.Fatalf("post-rescale layout = %v, want [2 2 0 1 0]", s.Counts)
	}
}

func TestTuningHistogramInf(t *testing.T) {
	h := obs.NewTuningHistogram(1, 4)
	h.Observe(math.Inf(1))
	h.Observe(math.NaN()) // ignored
	s := h.Snapshot()
	if s.Count != 1 {
		t.Fatalf("count = %d, want 1 (+Inf only)", s.Count)
	}
	if over := s.Counts[len(s.Counts)-1]; over != 1 {
		t.Fatalf("+Inf must land in the overflow bucket, got counts %v", s.Counts)
	}
}

func TestTuningHistogramNil(t *testing.T) {
	var h *obs.TuningHistogram
	h.Observe(3) // must not panic
	if h.Rescales() != 0 {
		t.Fatal("nil Rescales must be 0")
	}
	if s := h.Snapshot(); s.Count != 0 || s.Bounds != nil || s.Mean() != 0 {
		t.Fatalf("nil Snapshot must be empty with mean 0, got %+v", s)
	}
	if h.MetricValue() == nil {
		t.Fatal("nil MetricValue must still return a snapshot value")
	}
}

func TestTuningHistogramConcurrent(t *testing.T) {
	h := obs.NewTuningHistogram(0.1, 8)
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			v := 0.05 * float64(w+1)
			for i := 0; i < per; i++ {
				h.Observe(v)
				v *= 1.01 // drift upward to force rescales mid-flight
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
	var total uint64
	for _, c := range s.Counts {
		total += c
	}
	if total != workers*per {
		t.Fatalf("bucket mass %d, want %d", total, workers*per)
	}
	if over := s.Counts[len(s.Counts)-1]; over != 0 {
		t.Fatalf("overflow bucket holds %d finite observations", over)
	}
}

func TestRegistryTuningHistogram(t *testing.T) {
	r := obs.NewRegistry()
	h := r.TuningHistogram("x.latency", 0.1, 8)
	if h == nil {
		t.Fatal("expected a histogram")
	}
	if again := r.TuningHistogram("x.latency", 99, 2); again != h {
		t.Fatal("second lookup must return the same histogram")
	}
	h.Observe(1)
	snap, ok := r.Snapshot()["x.latency"].(obs.HistogramSnapshot)
	if !ok || snap.Count != 1 {
		t.Fatalf("registry snapshot = %#v", r.Snapshot()["x.latency"])
	}
	var nilReg *obs.Registry
	if nilReg.TuningHistogram("y", 1, 4) != nil {
		t.Fatal("nil registry must hand out nil histograms")
	}
	nilReg.TuningHistogram("y", 1, 4).Observe(5) // must not panic
}

package obs

import (
	"math"
	"sync"
	"sync/atomic"
)

// TuningHistogram is a log-scaled histogram whose range grows to cover
// its observations: bucket bounds start as a geometric ladder (ratio 2)
// above a floor, and when a value lands beyond the top bound the
// histogram rescales — adjacent buckets merge pairwise (their counts add
// exactly, since merged bounds are a subset of the old ones) and the
// freed upper half extends the ladder by successive doublings. Rescaling
// happens *before* the triggering value is recorded, so every finite
// observation lands in a real bucket and the top bucket never saturates
// the way a fixed-bound histogram's overflow bucket does on latency
// spikes or early-query CI widths.
//
// Observe stays allocation-free: the fast path is a read-locked binary
// search plus atomic adds (any number of concurrent writers), and only a
// rescale — a handful per histogram lifetime, since each one multiplies
// the covered range by 2^(buckets/2) — takes the write lock.
type TuningHistogram struct {
	mu     sync.RWMutex
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; overflow holds only +Inf observations
	count  atomic.Uint64
	sum    Float
	grown  atomic.Uint64
}

// NewTuningHistogram returns a self-tuning histogram whose initial
// buckets double from lo (the finest bound; must be positive) for an
// even number of buckets (odd counts are rounded up, minimum 4).
func NewTuningHistogram(lo float64, buckets int) *TuningHistogram {
	if !(lo > 0) {
		lo = 1
	}
	if buckets < 4 {
		buckets = 4
	}
	if buckets%2 != 0 {
		buckets++
	}
	bounds := make([]float64, buckets)
	b := lo
	for i := range bounds {
		bounds[i] = b
		b *= 2
	}
	return &TuningHistogram{bounds: bounds, counts: make([]atomic.Uint64, buckets+1)}
}

// locate returns the bucket index of v (first bound >= v); ok is false
// when v exceeds every bound. Caller holds mu (either side).
func (h *TuningHistogram) locate(v float64) (int, bool) {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(h.bounds)
}

// Observe records one value, rescaling first if v lies beyond the
// current range. No-op on a nil receiver; NaN is ignored.
func (h *TuningHistogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	if math.IsInf(v, 1) {
		// +Inf goes straight to the overflow bucket — rescaling toward it
		// would balloon the bounds to +Inf and ruin the ladder for every
		// later finite observation.
		h.mu.RLock()
		h.counts[len(h.counts)-1].Add(1)
		h.count.Add(1)
		h.mu.RUnlock()
		return
	}
	h.mu.RLock()
	if idx, ok := h.locate(v); ok {
		h.counts[idx].Add(1)
		h.count.Add(1)
		h.sum.Add(v)
		h.mu.RUnlock()
		return
	}
	h.mu.RUnlock()
	h.mu.Lock()
	// Re-check under the write lock: a concurrent rescale may already
	// cover v. Doubling reaches the float range quickly (the top bound
	// saturates to +Inf and the loop stops), so +Inf observations are the
	// only ones the overflow bucket ever holds.
	for h.bounds[len(h.bounds)-1] < v && !math.IsInf(h.bounds[len(h.bounds)-1], 1) {
		h.rescale()
	}
	idx, ok := h.locate(v)
	if !ok {
		idx = len(h.counts) - 1
	}
	h.counts[idx].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	h.mu.Unlock()
}

// rescale merges adjacent bucket pairs into the lower half (exact: the
// surviving bounds are a subset of the old ladder) and extends the upper
// half by successive doublings. Caller holds mu for writing.
func (h *TuningHistogram) rescale() {
	n := len(h.bounds)
	half := n / 2
	for i := 0; i < half; i++ {
		merged := h.counts[2*i].Load() + h.counts[2*i+1].Load()
		h.bounds[i] = h.bounds[2*i+1]
		h.counts[i].Store(merged)
	}
	for i := half; i < n; i++ {
		h.bounds[i] = h.bounds[i-1] * 2
		h.counts[i].Store(0)
	}
	h.grown.Add(1)
}

// Rescales returns how many times the histogram has rescaled; zero on a
// nil receiver.
func (h *TuningHistogram) Rescales() uint64 {
	if h == nil {
		return 0
	}
	return h.grown.Load()
}

// Snapshot copies the histogram's current state; empty on a nil
// receiver. Bounds are copied: a rescale mutates them.
func (h *TuningHistogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.sum.Value(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// MetricValue implements Var.
func (h *TuningHistogram) MetricValue() any {
	if h == nil {
		return HistogramSnapshot{}
	}
	return h.Snapshot()
}

package engine

import (
	"math"
	"time"

	"storm/internal/data"
	"storm/internal/geo"
)

// noteTime advances the dataset watermark — the maximum event time (the
// t coordinate, in seconds) of any indexed record — to the latest non-NaN
// event time among entries, if that is ahead.
func (h *Handle) noteTime(entries []data.Entry) {
	t := math.NaN()
	for _, e := range entries {
		t = geo.LatestT(t, e.Pos[2])
	}
	h.advanceWatermark(t)
}

// advanceWatermark moves the watermark to t when t is not NaN and ahead of
// it. The caller is the handle's one writer (it holds h.mu for writing, or
// builds the handle), so one compare and store per batch suffice; readers
// load the atomics lock-free.
func (h *Handle) advanceWatermark(t float64) {
	if !math.IsNaN(t) && (!h.wmSet.Load() || t > math.Float64frombits(h.wm.Load())) {
		h.wm.Store(math.Float64bits(t))
		h.wmSet.Store(true)
	}
}

// Watermark returns the dataset's event-time watermark — the maximum t
// coordinate ever indexed, the "now" that `LAST <dur>` windows trail
// behind. ok is false for a dataset that has never held a record.
// Deletions do not lower the watermark: a window anchored at the latest
// time the stream reached stays monotone.
func (h *Handle) Watermark() (t float64, ok bool) {
	if !h.wmSet.Load() {
		return 0, false
	}
	return math.Float64frombits(h.wm.Load()), true
}

// WindowRange narrows r's time axis to the trailing window of duration d
// ending at the dataset watermark — the range a `LAST <dur>` query
// actually covers, and the rectangle resolve hands every index. d <= 0
// returns r unchanged. On a dataset with no watermark (never held a
// record) the returned range is time-empty (MinT > MaxT), which every
// index counts and samples as zero.
func (h *Handle) WindowRange(r geo.Range, d time.Duration) geo.Range {
	r.MinT, r.MaxT = h.window(d).clamp(r.MinT, r.MaxT)
	return r
}

// window is a `LAST <dur>` clause resolved against the watermark: the
// closed event-time interval [lo, hi] the query keeps. set is false
// without a clause; a clause over a dataset that has never held a record
// resolves inverted (lo > hi), so clamping to it yields an empty interval.
type window struct {
	set    bool
	lo, hi float64
}

// window resolves Options.Last against the watermark.
func (h *Handle) window(last time.Duration) window {
	if last <= 0 {
		return window{}
	}
	wm, ok := h.Watermark()
	if !ok {
		return window{set: true, lo: 1, hi: 0}
	}
	return window{set: true, lo: wm - last.Seconds(), hi: wm}
}

// clamp narrows the time interval [lo, hi] to the window; an unset window
// returns it unchanged, and one disjoint from it comes back inverted.
func (w window) clamp(lo, hi float64) (float64, float64) {
	if !w.set {
		return lo, hi
	}
	if lo < w.lo {
		lo = w.lo
	}
	if hi > w.hi {
		hi = w.hi
	}
	return lo, hi
}

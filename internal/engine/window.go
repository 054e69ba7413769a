package engine

import (
	"math"
	"time"

	"storm/internal/data"
	"storm/internal/geo"
	"storm/internal/wire"
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
// actually covers. d <= 0 returns r unchanged. On a dataset with no
// watermark (never held a record) the returned range is time-empty
// (MinT > MaxT), which every index counts and samples as zero.
func (h *Handle) WindowRange(r geo.Range, d time.Duration) geo.Range {
	if d <= 0 {
		return r
	}
	wm, ok := h.Watermark()
	if !ok {
		r.MinT, r.MaxT = 1, 0
		return r
	}
	if lo := wm - d.Seconds(); r.MinT < lo {
		r.MinT = lo
	}
	if r.MaxT > wm {
		r.MaxT = wm
	}
	return r
}

// window resolves Options.Last against the watermark into a wire window
// term. Zero-valued (Set == false) when the query has no LAST clause; a
// window over an empty dataset comes back inverted (Lo > Hi) so that
// intersecting with it yields an empty rect.
func (h *Handle) window(last time.Duration) wire.Window {
	if last <= 0 {
		return wire.Window{}
	}
	wm, ok := h.Watermark()
	if !ok {
		return wire.Window{Set: true, Lo: 1, Hi: 0}
	}
	return wire.Window{Set: true, Lo: wm - last.Seconds(), Hi: wm}
}

package engine

import (
	"math"
	"time"

	"storm/internal/data"
	"storm/internal/geo"
	"storm/internal/wire"
)

// noteTime advances the dataset watermark — the maximum event time (the
// t coordinate, in seconds) of any indexed record — to t if it is ahead.
// Lock-free CAS max: callers hold the handle in any lock state.
func (h *Handle) noteTime(t float64) {
	if math.IsNaN(t) {
		return
	}
	for {
		cur := h.wm.Load()
		if h.wmSet.Load() && math.Float64frombits(cur) >= t {
			return
		}
		if h.wm.CompareAndSwap(cur, math.Float64bits(t)) {
			h.wmSet.Store(true)
			return
		}
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

// InsertBatch appends a batch of rows and adds them to every index under
// ONE write-lock acquisition — the streaming ingest drain path (package
// ingest). The RS-tree ingests the whole batch as Hilbert-sorted runs
// (rtree.Tree.InsertBatch): one descent per run instead of one per
// record, whole-run leaf splices, and evenly-filled multi-way splits,
// which is what lets the drain keep pace with producer append rates.
// Returned IDs are in the rows' original order.
func (h *Handle) InsertBatch(rows []data.Row) []data.ID {
	if len(rows) == 0 {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	ids := make([]data.ID, len(rows))
	entries := make([]data.Entry, len(rows))
	h.ds.Grow(len(rows))
	for i, row := range rows {
		id := h.ds.Append(row)
		ids[i] = id
		entries[i] = data.Entry{ID: id, Pos: row.Pos}
		h.noteTime(row.Pos[2])
	}
	h.rs.InsertBatch(entries) // reorders entries in place
	if ls := h.ls.Load(); ls != nil || h.cluster != nil {
		// The secondary indexes keep their per-entry insert paths; the
		// Hilbert order the batch now carries keeps those spatially
		// clustered too.
		for _, e := range entries {
			if ls != nil {
				ls.Insert(e)
			}
			if h.cluster != nil {
				h.cluster.Insert(e)
			}
		}
	}
	return ids
}

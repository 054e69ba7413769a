package main

import (
	"encoding/json"
	"fmt"
	"math"
)

// expvars is one scrape of stormd's /metrics: a flat expvar-format object
// whose values are numbers (counters, gauges) or histograms.
type expvars map[string]expvar

// expvar is one metric value; Hist is nil for a plain number.
type expvar struct {
	Num  float64
	Hist *histogram
}

// histogram mirrors package obs's JSON form: Counts has one entry per bound
// plus a final overflow bucket.
type histogram struct {
	Bounds []float64 `json:"bounds"`
	Counts []float64 `json:"counts"`
	Count  float64   `json:"count"`
	Sum    float64   `json:"sum"`
}

func parseExpvars(b []byte) (expvars, error) {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(b, &raw); err != nil {
		return nil, fmt.Errorf("parsing /metrics: %w", err)
	}
	out := make(expvars, len(raw))
	for k, v := range raw {
		var num float64
		if err := json.Unmarshal(v, &num); err == nil {
			out[k] = expvar{Num: num}
			continue
		}
		var h histogram
		if err := json.Unmarshal(v, &h); err != nil || len(h.Counts) != len(h.Bounds)+1 {
			continue // a shape this benchmark does not read
		}
		out[k] = expvar{Hist: &h}
	}
	return out, nil
}

// num returns the named number, 0 when absent (a topology without the layer).
func (e expvars) num(name string) float64 { return e[name].Num }

// delta returns after minus before: numbers subtract, histograms subtract
// bucket by bucket. A self-tuning histogram that rescaled its bounds between
// the scrapes cannot be subtracted; its after-state is returned whole, which
// over-counts by whatever the warm-up recorded.
func delta(before, after expvars) expvars {
	out := make(expvars, len(after))
	for k, a := range after {
		b := before[k]
		if a.Hist == nil {
			out[k] = expvar{Num: a.Num - b.Num}
			continue
		}
		if b.Hist == nil || !sameBounds(a.Hist.Bounds, b.Hist.Bounds) {
			out[k] = a
			continue
		}
		d := &histogram{Bounds: a.Hist.Bounds, Counts: make([]float64, len(a.Hist.Counts)),
			Count: a.Hist.Count - b.Hist.Count, Sum: a.Hist.Sum - b.Hist.Sum}
		for i := range d.Counts {
			d.Counts[i] = a.Hist.Counts[i] - b.Hist.Counts[i]
		}
		out[k] = expvar{Hist: d}
	}
	return out
}

func sameBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// quantile estimates the p-quantile of a histogram by linear interpolation
// inside the bucket that holds it; the overflow bucket reports its lower
// bound. An empty or absent histogram gives 0.
func (e expvars) quantile(name string, p float64) float64 {
	h := e[name].Hist
	if h == nil || h.Count <= 0 {
		return 0
	}
	rank, seen := p*h.Count, 0.0
	for i, c := range h.Counts {
		if c <= 0 || seen+c < rank {
			seen += c
			continue
		}
		if i == len(h.Bounds) {
			return h.Bounds[i-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.Bounds[i-1]
		}
		return lo + (h.Bounds[i]-lo)*math.Min(1, (rank-seen)/c)
	}
	return h.Bounds[len(h.Bounds)-1]
}

// ratio is a/b, 0 when b is 0 (the layer did no work in this workload).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

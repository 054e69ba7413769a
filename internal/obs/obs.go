// Package obs is STORM's observability layer: allocation-free atomic
// counters, gauges and floats, and self-tuning histograms (one histogram
// type: TuningHistogram), collected into a Registry that renders
// expvar-format JSON snapshots.
//
// The package exists because STORM's value proposition is *online*
// reasoning — operators watch confidence intervals tighten and stop when
// the estimate is good enough — so convergence rate, sampler throughput,
// buffer-pool behaviour, and shard fan-out latency must be observable on a
// live system, not reconstructed from benchmark logs after the fact.
//
// # Design rules
//
//   - Hot-path writes are atomic operations (Counter.Add, Gauge.Add;
//     TuningHistogram.Observe adds a read lock, taken for writing only on
//     a rare rescale); no allocation, no formatting. Reads (Snapshot,
//     WriteJSON) are the cold scrape path and may allocate freely.
//   - Every mutating method is nil-receiver-safe and becomes a no-op on a
//     nil metric. Instrumented code therefore never branches on "are
//     metrics enabled": it unconditionally calls m.Add(1) and pays one
//     predictable nil check when metrics are off. A nil *Registry hands
//     out nil metrics, so disabling observability is a single nil at the
//     top of the stack (engine.Config.NoMetrics).
//   - Snapshot semantics under the concurrency model of PR 1: metrics are
//     written from any number of query goroutines while snapshot readers
//     run concurrently. Individual fields are atomically consistent;
//     cross-field consistency (e.g. a histogram's count vs its sum) is
//     best-effort, which is the standard contract of scrape-based metric
//     systems and is pinned by TestConcurrentMutation under -race.
package obs

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64 metric. The zero value is
// ready to use; a nil *Counter is a no-op on writes and reads as zero.
type Counter struct {
	v atomic.Uint64
}

// NewCounter returns a fresh counter starting at zero.
func NewCounter() *Counter { return &Counter{} }

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count; zero on a nil receiver.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// MetricValue implements Var.
func (c *Counter) MetricValue() any { return c.Value() }

// Gauge is an instantaneous int64 metric (a level, not a rate): active
// queries, open streams, pool residency. A nil *Gauge is a no-op on
// writes and reads as zero.
type Gauge struct {
	v atomic.Int64
}

// NewGauge returns a fresh gauge starting at zero.
func NewGauge() *Gauge { return &Gauge{} }

// Set stores an absolute value. No-op on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by delta (negative deltas decrease it). No-op on a
// nil receiver.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current level; zero on a nil receiver.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// MetricValue implements Var.
func (g *Gauge) MetricValue() any { return g.Value() }

// Float is an atomic float64 metric: a TuningHistogram's running sum, or
// a derived value (a rate, a ratio) published with Registry.Publish. A nil
// *Float is a no-op on writes and reads as zero.
type Float struct {
	bits atomic.Uint64
}

// NewFloat returns a fresh float metric starting at zero.
func NewFloat() *Float { return &Float{} }

// Set stores an absolute value. No-op on a nil receiver.
func (f *Float) Set(v float64) {
	if f == nil {
		return
	}
	f.bits.Store(math.Float64bits(v))
}

// Add accumulates delta with a compare-and-swap loop. No-op on a nil
// receiver.
func (f *Float) Add(delta float64) {
	if f == nil {
		return
	}
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value; zero on a nil receiver.
func (f *Float) Value() float64 {
	if f == nil {
		return 0
	}
	return math.Float64frombits(f.bits.Load())
}

// MetricValue implements Var.
func (f *Float) MetricValue() any { return f.Value() }

// HistogramSnapshot is a point-in-time copy of a TuningHistogram's state.
// Bounds[i] is the inclusive upper bound of Counts[i]; Counts has one
// extra overflow entry for observations above the last bound.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
}

// Mean returns the mean observed value, or zero when empty.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

package obs

import (
	"encoding/json"
	"net/http"
	"sort"
	"strings"
	"sync"
)

// Var is one named metric in a Registry. MetricValue is called at scrape
// time and must return a JSON-encodable value; it may allocate (scraping
// is the cold path) but must be safe to call concurrently with writers.
type Var interface {
	MetricValue() any
}

// Func adapts a function into a Var evaluated at each scrape — the
// mechanism for re-exporting externally owned counters (an iosim.Device's
// pool stats, a distr.Cluster's network totals) as live gauges without
// double-counting them.
type Func func() any

// MetricValue implements Var.
func (f Func) MetricValue() any { return f() }

// Registry is a named collection of metrics with expvar-format JSON
// output. All methods are safe for concurrent use, and every method is
// nil-receiver-safe: a nil *Registry accepts publishes as no-ops and
// hands out nil metrics, whose writes are no-ops in turn — so an
// instrumented stack is disabled wholesale by threading a nil registry
// through it.
type Registry struct {
	mu   sync.RWMutex
	vars map[string]Var
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{vars: make(map[string]Var)}
}

// Publish registers v under name, replacing any existing var with that
// name (last write wins — re-registering a dataset or rebuilding a server
// over the same engine must not fail). No-op on a nil receiver.
func (r *Registry) Publish(name string, v Var) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.vars[name] = v
}

// Unpublish removes every var whose name equals or is prefixed by prefix
// — the teardown path for per-dataset metrics when a dataset is
// unregistered. No-op on a nil receiver.
func (r *Registry) Unpublish(prefix string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name := range r.vars {
		if name == prefix || strings.HasPrefix(name, prefix) {
			delete(r.vars, name)
		}
	}
}

// Get returns the var registered under name, or nil.
func (r *Registry) Get(name string) Var {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.vars[name]
}

// Counter returns the counter registered under name, creating and
// publishing one if absent (or if the name is held by a different metric
// type). Returns nil on a nil receiver, which disables every write
// through it.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.vars[name].(*Counter); ok {
		return c
	}
	c := NewCounter()
	r.vars[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating one if absent.
// Returns nil on a nil receiver.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.vars[name].(*Gauge); ok {
		return g
	}
	g := NewGauge()
	r.vars[name] = g
	return g
}

// TuningHistogram returns the self-tuning histogram registered under
// name, creating one if absent with buckets doubling from lo (an
// existing one keeps its state). Returns nil on a nil receiver.
func (r *Registry) TuningHistogram(name string, lo float64, buckets int) *TuningHistogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.vars[name].(*TuningHistogram); ok {
		return h
	}
	h := NewTuningHistogram(lo, buckets)
	r.vars[name] = h
	return h
}

// PublishFunc registers a scrape-time callback under name. No-op on a nil
// receiver.
func (r *Registry) PublishFunc(name string, f func() any) {
	r.Publish(name, Func(f))
}

// Names returns the registered metric names in sorted order.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	names := make([]string, 0, len(r.vars))
	for n := range r.vars {
		names = append(names, n)
	}
	r.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Snapshot evaluates every var and returns a name → value map. Funcs run
// outside the registry lock, so a Func may itself take locks (e.g. read
// an iosim.Device's stats) without ordering constraints.
func (r *Registry) Snapshot() map[string]any {
	if r == nil {
		return map[string]any{}
	}
	r.mu.RLock()
	vars := make(map[string]Var, len(r.vars))
	for n, v := range r.vars {
		vars[n] = v
	}
	r.mu.RUnlock()
	out := make(map[string]any, len(vars))
	for n, v := range vars {
		out[n] = v.MetricValue()
	}
	return out
}

// WriteJSON renders the registry as one flat JSON object mapping metric
// name to value — the expvar wire format (the same shape /debug/vars
// serves), so any expvar-aware scraper parses it. A nil registry renders
// "{}".
func (r *Registry) WriteJSON(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	// Snapshot is a map; encoding/json sorts map keys, giving stable,
	// diffable output.
	enc.Encode(r.Snapshot())
}

// ServeHTTP implements http.Handler, serving the expvar-format snapshot —
// mount it at /metrics.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	r.WriteJSON(w)
}

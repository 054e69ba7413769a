package main

import (
	"fmt"
	"math"
)

// The correctness gate and the reduction of a run's raw observations to the
// client metrics.

// grades accumulates the checks over a set of observations.
type grades struct {
	attempted, failed int
	// coverChecked answers had a truth to compare against; covered of them
	// had it inside their confidence interval.
	coverChecked, covered int
	// met of targeted answers reached the error they asked for.
	targeted, met int
	// windowSkips counts windowed answers whose population did not match
	// the feed's (a drain was split mid-window), so no truth applied.
	windowSkips int
	failures    []string
	// Means over the read phase's answers, as the client saw them.
	readSamples, readLines, readBytes float64
	// readSamplers counts the read phase's answers by the sampler that
	// served them.
	readSamplers map[string]int
}

func (g *grades) fail(s *statement, format string, args ...any) {
	g.failed++
	if len(g.failures) < 8 {
		g.failures = append(g.failures, fmt.Sprintf(format, args...)+": "+s.Text)
	}
}

// closeTo reports whether an exact answer equals the truth up to the
// rounding of summing in a different order.
func closeTo(got, want float64) bool {
	return math.Abs(got-want) <= 1e-7*math.Max(1, math.Abs(want))
}

// grade checks one observation. A failed operation is a non-2xx reply, a
// stream without a done:true line, a missed contract, a wrong exact answer,
// or a windowed statement answered without windowed:true.
func (g *grades) grade(in *inputs, ob observation) (ok bool) {
	g.attempted++
	s, res := ob.stmt, ob.res
	a := res.Final
	switch {
	case res.Err != "":
		g.fail(s, "%s", res.Err)
		return false
	case !a.Done:
		g.fail(s, "response ended without a done:true line")
		return false
	case s.Contract && a.Status != "met" && a.Status != "degraded":
		g.fail(s, "contract verdict %q", a.Status)
		return false
	case s.Windowed && !a.Windowed:
		g.fail(s, "windowed statement answered without windowed:true")
		return false
	}

	var truth aggTruth
	haveTruth := false
	switch {
	case s.Windowed:
		truth = in.feed.window(a.WindowLo, a.WindowHi)
		if haveTruth = truth.N == a.Population && truth.N > 0; !haveTruth {
			g.windowSkips++
		}
	case ob.static && s.Region >= 0:
		truth, haveTruth = in.truth[s.Region][s.Pred], true
	}
	if haveTruth {
		want := truth.value(s.Agg)
		switch {
		case s.Agg == "COUNT" && a.Value != want:
			g.fail(s, "exact COUNT %v, brute force counts %v", a.Value, want)
			return false
		case a.Exact && !closeTo(a.Value, want):
			g.fail(s, "exact answer %v, brute force gives %v", a.Value, want)
			return false
		case s.Agg != "COUNT":
			g.coverChecked++
			if a.Exact || math.Abs(a.Value-want) <= a.HalfWidth*(1+1e-9) {
				g.covered++
			}
		}
	}
	if s.Target > 0 {
		g.targeted++
		if s.Contract && a.Status == "met" || !s.Contract && a.relWidth() <= s.Target*(1+1e-9) {
			g.met++
		}
	}
	return true
}

// latencies returns the per-observation times in ms; a failed operation
// enters every latency list as +Inf, so it counts against each percentile.
type latencies struct {
	total, ttfs, ttci1 []float64
}

func (g *grades) gradeAll(in *inputs, obs []observation) latencies {
	var l latencies
	for _, ob := range obs {
		if !g.grade(in, ob) {
			l.total = append(l.total, math.Inf(1))
			l.ttfs = append(l.ttfs, math.Inf(1))
			l.ttci1 = append(l.ttci1, math.Inf(1))
			continue
		}
		l.total = append(l.total, ms(ob.res.Latency))
		l.ttfs = append(l.ttfs, ms(ob.res.TTFS))
		// Only statements that ask for 1% or tighter are on the clock for
		// the 1% milestone; a 5% tile that happens to land under 1% is not.
		if ob.stmt.Target > 0 && ob.stmt.Target <= 0.01 {
			if ob.res.TTCI1 >= 0 {
				l.ttci1 = append(l.ttci1, ms(ob.res.TTCI1))
			} else {
				l.ttci1 = append(l.ttci1, math.Inf(1))
			}
		}
	}
	return l
}

// coverFloorAt is the lowest cover rate a run with n checked answers may
// report: coverFloor less three binomial standard errors at n. Answers at the
// seed commit cover about 94-95% (the stopping rule peeks at the CI), so a
// bare 0.93 threshold would fail a few runs in a hundred on sampling noise
// alone at the few thousand answers a run collects.
func coverFloorAt(n int) float64 {
	if n == 0 {
		return coverFloor
	}
	return coverFloor - 3*math.Sqrt(coverFloor*(1-coverFloor)/float64(n))
}

// value is one reported number with its unit and the sample count behind it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// table collects the values of one list of metric specs; setting a name the
// list does not have is a typo in the benchmark and panics.
type table struct {
	specs []metricSpec
	vals  map[string]value
}

// newTable starts every metric of specs at 0 over 0 samples, which is what a
// layer the workload does not touch reports.
func newTable(specs []metricSpec) *table {
	t := &table{specs: specs, vals: make(map[string]value, len(specs))}
	for _, m := range specs {
		t.vals[m.Name] = value{Unit: m.Unit}
	}
	return t
}

// A NaN or infinite v (a percentile of no samples, a latency list a failure
// made infinite) leaves the metric at 0: JSON cannot carry it, and reduce
// marks a run incorrect when a client metric reads 0.
func (t *table) set(name string, v float64, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	for _, m := range t.specs {
		if m.Name == name {
			t.vals[name] = value{Value: v, Unit: m.Unit, N: n}
			return
		}
	}
	panic("benchmark: no metric named " + name)
}

// clientMetrics are the twelve numbers a user of stormd sees, measured at
// the client socket in every run; a run in which one of them has no usable
// value is not correct. BENCHMARK.json lists each either under end_to_end (it
// then gates, and the untraced run reports it) or under per_layer (the traced
// run reports it, the untraced run prints it as informational).
var clientMetrics = []string{
	"setup_s", "query_qps", "query_p50_ms", "query_p95_ms", "ttfs_p50_ms", "ttci1_p50_ms",
	"ci_cover_rate", "contract_met_rate", "ingest_rps", "rw_query_p50_ms", "fresh_lag_p50_ms", "peak_rss_mb",
}

// tails are the informational tail percentiles, measured at the client like
// clientMetrics. Each reads 0 when the run has fewer than ten samples beyond
// that percentile.
var tails = []struct {
	name, timing string
	p            float64
}{
	{"query_p99_ms", "query", 0.99},
	{"rw_query_p95_ms", "rw", 0.95},
	{"fresh_lag_p95_ms", "lag", 0.95},
	{"gen.late_ms_p95", "late", 0.95},
}

// report is the result of one run.
type report struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Traced    bool             `json:"traced"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	// Info carries what a run measured at the client beside its Metrics: in
	// an untraced run the client metrics BENCHMARK.json lists under per_layer
	// and the tails, in a traced run the end-to-end metrics.
	Info     map[string]value `json:"info,omitempty"`
	Failures []string         `json:"failures,omitempty"`
}

// reduce grades the run and computes the client metrics; Metrics holds the
// end-to-end ones and Info the rest. client holds them all.
func reduce(in *inputs, o *outcome) (rep *report, client *table, g *grades, t map[string]timing) {
	g = &grades{}
	g.gradeAll(in, o.warm)
	read := g.gradeAll(in, o.read)
	mixed := g.gradeAll(in, o.mixed)
	g.readSamplers = map[string]int{}
	for _, ob := range o.read {
		g.readSamplers[ob.res.Final.Sampler]++
		n := float64(len(o.read))
		g.readSamples += float64(ob.res.Final.Samples) / n
		g.readLines += float64(ob.res.Lines) / n
		g.readBytes += float64(ob.res.Bytes) / n
	}
	g.attempted += o.ingestOps
	g.failed += o.ingestFail
	g.failures = append(g.failures, o.failures...)

	t = map[string]timing{
		"query": summarize(read.total),
		"ttfs":  summarize(read.ttfs),
		"ttci1": summarize(read.ttci1),
		"rw":    summarize(mixed.total),
		"lag":   summarize(o.lagMS),
		"late":  summarize(o.lateMS),
		"post":  summarize(o.postMS),
		"pend":  summarize(o.pending),
	}
	client = newTable(append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...))
	set := client.set
	set("setup_s", median(o.setupS), len(o.setupS))
	set("query_qps", ratio(float64(len(o.read)), o.readElapsed.Seconds()), len(o.read))
	set("query_p50_ms", t["query"].P50, t["query"].N)
	set("query_p95_ms", t["query"].at(0.95), t["query"].N)
	set("ttfs_p50_ms", t["ttfs"].P50, t["ttfs"].N)
	set("ttci1_p50_ms", t["ttci1"].P50, t["ttci1"].N)
	set("ci_cover_rate", ratio(float64(g.covered), float64(g.coverChecked)), g.coverChecked)
	set("contract_met_rate", ratio(float64(g.met), float64(g.targeted)), g.targeted)
	set("ingest_rps", ratio(float64(o.satRecords), o.satQueryable.Seconds()), o.satRecords)
	set("rw_query_p50_ms", t["rw"].P50, t["rw"].N)
	set("fresh_lag_p50_ms", t["lag"].P50, t["lag"].N)
	set("peak_rss_mb", o.rssMB, o.procs)
	for _, tail := range tails {
		set(tail.name, t[tail.timing].at(tail.p), t[tail.timing].N)
	}

	rep = &report{
		Workload: in.w.Name, Seed: in.seed, Attempted: g.attempted, Failed: g.failed,
		Metrics: map[string]value{}, Info: map[string]value{}, Failures: g.failures,
	}
	for _, m := range spec.EndToEnd {
		rep.Metrics[m.Name] = client.vals[m.Name]
	}
	for _, name := range clientMetrics {
		if _, gates := rep.Metrics[name]; !gates {
			rep.Info[name] = client.vals[name]
		}
	}
	for _, tail := range tails {
		if v := client.vals[tail.name]; v.Value != 0 {
			rep.Info[tail.name] = v
		}
	}
	rep.Correct = g.failed == 0
	if cover, floor := client.vals["ci_cover_rate"].Value, coverFloorAt(g.coverChecked); cover < floor {
		rep.Correct = false
		rep.Failures = append(rep.Failures, fmt.Sprintf("ci_cover_rate %.4f over %d answers is below the floor %.4f", cover, g.coverChecked, floor))
	}
	for _, name := range clientMetrics {
		if v := client.vals[name]; v.Value == 0 {
			rep.Correct = false
			rep.Failures = append(rep.Failures, fmt.Sprintf("%s has no usable value (%d samples)", name, v.N))
		}
	}
	return rep, client, g, t
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// -compare a.json b.json: per workload and client metric, the relative change
// of b's median against a's. An end-to-end metric is judged against its bound
// in BENCHMARK.json; a client metric the file lists per layer has no bound, and
// its spread stands in for one (verdicts in parentheses never fail the
// comparison).

// verdict is the outcome of comparing one metric on one workload.
type verdict string

const (
	better     verdict = "better"
	within     verdict = "within"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// judge compares the runs of one metric. worsening is the relative change of
// b's median in the metric's bad direction. Where either side's quartile
// spread exceeds the bound the runs cannot resolve a change of that size, and
// the verdict is unresolved unless every run of one side beats every run of
// the other.
func judge(m metricSpec, a, b []float64) (v verdict, worsening, spreadA, spreadB float64) {
	if len(a) == 0 || len(b) == 0 {
		return unresolved, 0, 0, 0
	}
	ma, mb := median(a), median(b)
	worsening = (mb - ma) / ma
	if m.Better == "higher" {
		worsening = -worsening
	}
	spreadA, spreadB = quartileSpread(a), quartileSpread(b)
	if spreadA > m.Bound || spreadB > m.Bound {
		switch {
		case separated(m, b, a):
			return better, worsening, spreadA, spreadB
		case separated(m, a, b) && worsening > m.Bound:
			return worse, worsening, spreadA, spreadB
		}
		return unresolved, worsening, spreadA, spreadB
	}
	switch {
	case worsening > m.Bound:
		v = worse
	case worsening < -m.Bound:
		v = better
	default:
		v = within
	}
	return v, worsening, spreadA, spreadB
}

// separated reports whether every run of x reads better than every run of y.
func separated(m metricSpec, x, y []float64) bool {
	if m.Better == "higher" {
		return slices.Min(x) > slices.Max(y)
	}
	return slices.Max(x) < slices.Min(y)
}

func findMetric(specs []metricSpec, name string) (metricSpec, bool) {
	for _, m := range specs {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}

func loadRecord(path string) (*record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec record
	if err := json.Unmarshal(b, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rec, nil
}

// untraced groups a record's untraced runs: workload -> metric -> values,
// plus the failed and attempted operation totals per workload.
func untraced(rec *record) (vals map[string]map[string][]float64, failed, attempted map[string]int) {
	vals, failed, attempted = map[string]map[string][]float64{}, map[string]int{}, map[string]int{}
	for _, run := range rec.Runs {
		if run.Traced {
			continue
		}
		if vals[run.Workload] == nil {
			vals[run.Workload] = map[string][]float64{}
		}
		for _, set := range []map[string]value{run.Metrics, run.Info} {
			for name, v := range set {
				vals[run.Workload][name] = append(vals[run.Workload][name], v.Value)
			}
		}
		failed[run.Workload] += run.Failed
		attempted[run.Workload] += run.Attempted
	}
	return vals, failed, attempted
}

// compareRecords prints the comparison and returns the process exit code:
// non-zero when any metric is worse or b failed a higher share of operations.
func compareRecords(w io.Writer, pathA, pathB string) int {
	a, err := loadRecord(pathA)
	if err == nil {
		var b *record
		if b, err = loadRecord(pathB); err == nil {
			return compare(w, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark: -compare:", err)
	return 2
}

func compare(w io.Writer, a, b *record) int {
	fmt.Fprintf(w, "a: commit %s, %s, nproc %d, GOMAXPROCS %d\n", a.Stamp.Commit, a.Stamp.GoVersion, a.Stamp.NProc, a.Stamp.GOMAXPROCS)
	fmt.Fprintf(w, "b: commit %s, %s, nproc %d, GOMAXPROCS %d\n", b.Stamp.Commit, b.Stamp.GoVersion, b.Stamp.NProc, b.Stamp.GOMAXPROCS)
	va, fa, ta := untraced(a)
	vb, fb, tb := untraced(b)
	code := 0
	fmt.Fprintf(w, "%-20s %-18s %12s %12s %9s %7s %9s %9s  %s\n",
		"workload", "metric", "a median", "b median", "worse by", "bound", "spread a", "spread b", "verdict")
	for _, wl := range workloads {
		for _, name := range clientMetrics {
			m, gates := findMetric(spec.EndToEnd, name)
			if !gates {
				// No bound of its own: a change counts once it exceeds the
				// wider of the two sides' quartile spreads.
				m, _ = findMetric(spec.PerLayer, name)
				m.Bound = max(quartileSpread(va[wl.Name][name]), quartileSpread(vb[wl.Name][name]))
			}
			xa, xb := va[wl.Name][name], vb[wl.Name][name]
			v, worsening, sa, sb := judge(m, xa, xb)
			shown := string(v)
			if !gates {
				shown = "(" + shown + ")"
			} else if v == worse {
				code = 1
			}
			fmt.Fprintf(w, "%-20s %-18s %12.4f %12.4f %8.2f%% %6.1f%% %8.2f%% %8.2f%%  %s (n=%d,%d)\n",
				wl.Name, name, median(xa), median(xb), 100*worsening, 100*m.Bound, 100*sa, 100*sb, shown, len(xa), len(xb))
		}
		shareA, shareB := ratio(float64(fa[wl.Name]), float64(ta[wl.Name])), ratio(float64(fb[wl.Name]), float64(tb[wl.Name]))
		note := "ok"
		if shareB > shareA {
			note, code = "b fails a higher share", 1
		}
		fmt.Fprintf(w, "%-20s failed share a %d/%d, b %d/%d: %s\n", wl.Name, fa[wl.Name], ta[wl.Name], fb[wl.Name], tb[wl.Name], note)
	}
	return code
}

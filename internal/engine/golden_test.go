package engine

import (
	"bufio"
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"storm/internal/estimator"
	"storm/internal/gen"
	"storm/internal/geo"
	"storm/internal/pred"
	"storm/internal/sampling"
)

// goldenFile pins the seeded snapshot sequence of every query shape: one
// line per case, "<name> <snapshots> <sha256 of the rendered sequence>".
// It was recorded at the commit BEFORE the engine's four sampling loops
// were collapsed into the single driver, re-recorded once when stats.RNG
// moved onto PCG (every seeded draw changed), and must never be regenerated
// to make a refactor pass — a changed line means a seeded stream changed.
// STORM_UPDATE_GOLDEN=1 rewrites it (for a deliberate, reviewed behaviour
// change only).
const goldenFile = "testdata/golden_streams.txt"

// goldenStream accumulates one case's rendered snapshot sequence.
type goldenStream struct {
	b strings.Builder
	n int
}

func (g *goldenStream) snap(format string, args ...any) {
	fmt.Fprintf(&g.b, format, args...)
	g.b.WriteByte('\n')
	g.n++
}

func (g *goldenStream) line() string {
	return fmt.Sprintf("%d %x", g.n, sha256.Sum256([]byte(g.b.String())))
}

// f renders a float to ten significant digits: a changed sample sequence
// moves estimates by far more, while last-bit differences between
// architectures (fused multiply-add) stay below it.
func f(x float64) string { return fmt.Sprintf("%.10g", x) }

func goldenEstimate(e estimator.Estimate) string {
	return fmt.Sprintf("v=%s hw=%s n=%d N=%d x=%v", f(e.Value), f(e.HalfWidth), e.Samples, e.Population, e.Exact)
}

// TestGoldenSeededStreams is the refactor safety net: for explicit seeds,
// every query shape's full snapshot sequence (value, half-width, samples,
// population, method, done) must stay byte-identical.
func TestGoldenSeededStreams(t *testing.T) {
	got := map[string]string{}
	var order []string
	record := func(name string, g *goldenStream) {
		if _, dup := got[name]; dup {
			t.Fatalf("duplicate golden case %q", name)
		}
		got[name] = g.line()
		order = append(order, name)
	}
	ctx := context.Background()

	// --- single-aggregate streams -------------------------------------
	_, local := buildHandle(t, 20000, true)
	above90 := pred.Term{Attr: "value", Lo: 90, Hi: math.Inf(1), LoOpen: true}
	kinds := []estimator.Kind{estimator.Avg, estimator.Sum, estimator.Stddev, estimator.Median}
	methods := []Method{MethodRSTree, MethodLSTree, MethodRandomPath, MethodQueryFirst, MethodSampleFirst, MethodDistributed}
	scopes := []struct {
		name  string
		where []pred.Term
		last  time.Duration
	}{
		{"plain", nil, 0},
		{"where", []pred.Term{above90}, 0},
		{"last", nil, 30 * time.Second},
		{"where+last", []pred.Term{above90}, 30 * time.Second},
	}
	estimateCase := func(name string, h *Handle, q geo.Range, opts Options) {
		t.Helper()
		ch, err := h.EstimateOnline(ctx, q, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var g goldenStream
		for s := range ch {
			g.snap("%s m=%s done=%v", goldenEstimate(s.Estimate), s.Method, s.Done)
		}
		record(name, &g)
	}
	seed := int64(1000)
	for _, m := range methods {
		for _, k := range kinds {
			for _, sc := range scopes {
				seed++
				h := local
				if m == MethodDistributed {
					// The cluster draws its shard seeds from its own
					// sequence: a fresh cluster per case keeps every case
					// independent of the ones before it.
					_, h = buildShardedHandle(t, 8000, 4, nil)
				}
				estimateCase(fmt.Sprintf("estimate/%s/%s/%s", m, k, sc.name), h, testRange, Options{
					Kind: k, Attr: "value", Method: m, Seed: seed,
					MaxSamples: 700, Where: sc.where, Last: sc.last,
				})
			}
		}
	}
	// Stopping rules, replacement mode, the optimizer and exhaustion.
	small := geo.Range{MinX: 40, MinY: 40, MaxX: 46, MaxY: 46, MinT: 0, MaxT: 100}
	estimateCase("estimate/target-rel", local, testRange, Options{Kind: estimator.Avg, Attr: "value", Method: MethodRSTree, Seed: 7, TargetRelError: 0.01})
	estimateCase("estimate/target-hw", local, testRange, Options{Kind: estimator.Avg, Attr: "value", Method: MethodRSTree, Seed: 8, TargetHalfWidth: 1.5, ReportEvery: 50})
	estimateCase("estimate/median-target-hw", local, testRange, Options{Kind: estimator.Median, Attr: "value", Method: MethodRSTree, Seed: 9, TargetHalfWidth: 2})
	estimateCase("estimate/quantile", local, testRange, Options{Kind: estimator.Quant, QuantileP: 0.9, Attr: "value", Method: MethodRandomPath, Seed: 10, MaxSamples: 500})
	estimateCase("estimate/with-replacement", local, testRange, Options{Kind: estimator.Avg, Attr: "value", Method: MethodRSTree, Mode: sampling.WithReplacement, Seed: 11, MaxSamples: 500})
	estimateCase("estimate/auto", local, testRange, Options{Kind: estimator.Avg, Attr: "value", Seed: 12, MaxSamples: 500})
	estimateCase("estimate/exhaust", local, small, Options{Kind: estimator.Sum, Attr: "value", Method: MethodRSTree, Seed: 13})
	estimateCase("estimate/exhaust-median", local, small, Options{Kind: estimator.Median, Attr: "value", Method: MethodLSTree, Seed: 14})
	estimateCase("estimate/count", local, testRange, Options{Kind: estimator.Count, Where: scopes[1].where, Last: scopes[2].last})
	estimateCase("estimate/empty", local, geo.Range{MinX: 200, MinY: 200, MaxX: 300, MaxY: 300, MinT: 0, MaxT: 100}, Options{Kind: estimator.Avg, Attr: "value", Seed: 15})
	estimateCase("estimate/empty-pred", local, testRange, Options{Kind: estimator.Avg, Attr: "value", Seed: 16, Where: []pred.Term{{Attr: "value", Lo: 1e9, Hi: math.Inf(1), LoOpen: true}}})

	// --- multi-aggregate ----------------------------------------------
	specs := []AggSpec{{Kind: estimator.Avg, Attr: "value"}, {Kind: estimator.Stddev, Attr: "value"}, {Kind: estimator.Median, Attr: "value"}, {Kind: estimator.Sum, Attr: "value"}}
	multiCase := func(name string, h *Handle, q geo.Range, opts Options) {
		t.Helper()
		ch, err := h.EstimateMultiOnline(ctx, q, specs, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var g goldenStream
		for s := range ch {
			var parts []string
			for _, e := range s.Estimates {
				parts = append(parts, goldenEstimate(e))
			}
			g.snap("%s | n=%d m=%s done=%v", strings.Join(parts, " | "), s.Samples, s.Method, s.Done)
		}
		record(name, &g)
	}
	multiCase("multi/rs-tree", local, testRange, Options{Method: MethodRSTree, Seed: 21, MaxSamples: 700})
	multiCase("multi/auto", local, testRange, Options{Seed: 22, MaxSamples: 300, ReportEvery: 100})
	multiCase("multi/exhaust", local, small, Options{Method: MethodLSTree, Seed: 23})
	_, sharded := buildShardedHandle(t, 8000, 4, nil)
	multiCase("multi/distributed", sharded, testRange, Options{Seed: 24, MaxSamples: 700})

	// --- GROUP BY -----------------------------------------------------
	{
		e := New(Config{Seed: 21})
		h, err := e.Register(gen.Stations(gen.StationsConfig{Stations: 10, ReadingsPerStation: 200, Seed: 21}), IndexOptions{})
		if err != nil {
			t.Fatal(err)
		}
		all := geo.Range{MinX: -130, MinY: 20, MaxX: -60, MaxY: 55, MinT: 0, MaxT: 1e9}
		for i, opts := range []Options{{MaxSamples: 900, Seed: 31}, {Seed: 32, Method: MethodRandomPath, ReportEvery: 500}} {
			ch, err := h.GroupByOnline(ctx, all, "temp", "station", opts)
			if err != nil {
				t.Fatal(err)
			}
			var g goldenStream
			for s := range ch {
				var parts []string
				for _, grp := range s.Groups {
					parts = append(parts, grp.Key+":"+goldenEstimate(grp.Estimate))
				}
				g.snap("%s | n=%d done=%v", strings.Join(parts, " | "), s.Samples, s.Done)
			}
			record(fmt.Sprintf("groupby/%d", i), &g)
		}
	}

	// --- KDE, TERMS, TRAJECTORY on the tweets fixture ------------------
	{
		e := New(Config{Seed: 5})
		ds, truth := gen.Tweets(gen.TweetsConfig{N: 20000, Users: 20, Seed: 11})
		h, err := e.Register(ds, IndexOptions{LSTree: true})
		if err != nil {
			t.Fatal(err)
		}
		usa := geo.Range{MinX: -125, MinY: 24, MaxX: -66, MaxY: 50, MinT: 0, MaxT: 30 * 86400}

		kde, err := h.KDEOnline(ctx, usa, KDEOptions{Nx: 8, Ny: 8}, goldenAnalyticOptions{MaxSamples: 600, Seed: 41})
		if err != nil {
			t.Fatal(err)
		}
		var g goldenStream
		for s := range kde {
			var parts []string
			for i, d := range s.Map.Density {
				parts = append(parts, f(d)+"±"+f(s.Map.HalfWidth[i]))
			}
			g.snap("%s | n=%d done=%v", strings.Join(parts, " "), s.Map.Samples, s.Done)
		}
		record("kde", &g)

		terms, err := h.TermsOnline(ctx, usa, "text", 8, goldenAnalyticOptions{MaxSamples: 400, ReportEvery: 150, Seed: 42, Method: MethodLSTree})
		if err != nil {
			t.Fatal(err)
		}
		g = goldenStream{}
		for s := range terms {
			var parts []string
			for _, term := range s.Terms.Top {
				parts = append(parts, fmt.Sprintf("%s:%d:%s", term.Text, term.Count, f(term.Freq)))
			}
			g.snap("%s | sent=%s n=%d distinct=%d done=%v", strings.Join(parts, " "), f(s.Terms.Sentiment), s.Terms.Samples, s.Terms.Distinct, s.Done)
		}
		record("terms", &g)

		users := make([]string, 0, len(truth))
		for u := range truth {
			users = append(users, u)
		}
		sort.Strings(users)
		traj, err := h.TrajectoryOnline(ctx, usa, "user", users[0], 0, goldenAnalyticOptions{MaxSamples: 300, ReportEvery: 40, Seed: 43})
		if err != nil {
			t.Fatal(err)
		}
		g = goldenStream{}
		for s := range traj {
			var parts []string
			for _, p := range s.Path.Points() {
				parts = append(parts, f(p[0])+","+f(p[1])+","+f(p[2]))
			}
			g.snap("%s | n=%d segs=%d done=%v", strings.Join(parts, " "), s.Path.Samples, len(s.Path.Segments), s.Done)
		}
		record("trajectory", &g)
	}

	// --- CLUSTER ------------------------------------------------------
	{
		cl, err := local.ClusterOnline(ctx, testRange, 3, goldenAnalyticOptions{MaxSamples: 500, Seed: 51})
		if err != nil {
			t.Fatal(err)
		}
		var g goldenStream
		for s := range cl {
			var parts []string
			for _, c := range s.Clustering.Clusters {
				parts = append(parts, fmt.Sprintf("%s,%s:%d", f(c.Center.X()), f(c.Center.Y()), c.Size))
			}
			g.snap("%s | inertia=%s n=%d done=%v", strings.Join(parts, " "), f(s.Clustering.Inertia), s.Clustering.Samples, s.Done)
		}
		record("cluster", &g)
	}

	if os.Getenv("STORM_UPDATE_GOLDEN") == "1" {
		var b strings.Builder
		for _, name := range order {
			fmt.Fprintf(&b, "%s %s\n", name, got[name])
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d cases)", goldenFile, len(order))
		return
	}

	file, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(file)
	for sc.Scan() {
		name, rest, ok := strings.Cut(sc.Text(), " ")
		if ok {
			want[name] = rest
		}
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d cases, the test ran %d", len(want), len(got))
	}
	for _, name := range order {
		if want[name] != got[name] {
			t.Errorf("%s: stream changed\n  golden: %s\n  got:    %s", name, want[name], got[name])
		}
	}
}

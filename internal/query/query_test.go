package query

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"storm/internal/engine"
	"storm/internal/estimator"
	"storm/internal/gen"
	"storm/internal/geo"
	"storm/internal/pred"
	"storm/internal/stats"
)

func TestParseEstimate(t *testing.T) {
	q, err := Parse(`ESTIMATE AVG(temp) FROM mesowest WHERE REGION(-112.2, 40.3, -111.6, 40.9) AND TIME(0, 7776000) WITH CONFIDENCE 95% ERROR 1% WITHIN 500ms USING RSTREE`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Op != OpEstimate || q.Agg != estimator.Avg || q.Attr != "temp" || q.Dataset != "mesowest" {
		t.Fatalf("query = %+v", q)
	}
	if q.Region == nil || q.Region[0] != -112.2 || q.Region[3] != 40.9 {
		t.Errorf("region = %v", q.Region)
	}
	if q.Time == nil || q.Time[1] != 7776000 {
		t.Errorf("time = %v", q.Time)
	}
	if q.Confidence != 0.95 || q.RelError != 0.01 {
		t.Errorf("confidence=%v error=%v", q.Confidence, q.RelError)
	}
	if q.Within != 500*time.Millisecond {
		t.Errorf("within = %v", q.Within)
	}
	if q.Method != engine.MethodRSTree {
		t.Errorf("method = %v", q.Method)
	}
}

func TestParseCount(t *testing.T) {
	q, err := Parse(`COUNT FROM osm WHERE REGION(-125, 24, -66, 50)`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Op != OpEstimate || q.Agg != estimator.Count || q.Dataset != "osm" {
		t.Fatalf("query = %+v", q)
	}
	// ESTIMATE COUNT also works.
	q2, err := Parse(`ESTIMATE COUNT FROM osm`)
	if err != nil {
		t.Fatal(err)
	}
	if q2.Agg != estimator.Count {
		t.Errorf("agg = %v", q2.Agg)
	}
}

func TestParseKDE(t *testing.T) {
	q, err := Parse(`KDE FROM tweets WHERE REGION(-112.2, 40.3, -111.6, 41.0) GRID 32x16 SAMPLES 2000`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Op != OpKDE || q.GridX != 32 || q.GridY != 16 || q.Samples != 2000 {
		t.Fatalf("query = %+v", q)
	}
}

func TestParseTerms(t *testing.T) {
	q, err := Parse(`TERMS(text) FROM tweets WHERE REGION(-85.4, 32.7, -83.4, 34.7) AND TIME(864000, 1123200) TOP 10`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Op != OpTerms || q.Attr != "text" || q.TopN != 10 {
		t.Fatalf("query = %+v", q)
	}
}

func TestParseTrajectory(t *testing.T) {
	q, err := Parse(`TRAJECTORY(user, 'user-00042') FROM tweets SAMPLES 300`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Op != OpTrajectory || q.UserCol != "user" || q.User != "user-00042" || q.Samples != 300 {
		t.Fatalf("query = %+v", q)
	}
}

func TestParseCluster(t *testing.T) {
	q, err := Parse(`CLUSTER(5) FROM tweets WHERE REGION(-125, 24, -66, 50) SAMPLES 1000 USING AUTO`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Op != OpCluster || q.K != 5 {
		t.Fatalf("query = %+v", q)
	}
}

func TestParseNewAggregates(t *testing.T) {
	q, err := Parse(`ESTIMATE STDDEV(temp) FROM d SAMPLES 100`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Agg != estimator.Stddev {
		t.Errorf("agg = %v", q.Agg)
	}
	q, err = Parse(`ESTIMATE VARIANCE(temp) FROM d`)
	if err != nil || q.Agg != estimator.Variance {
		t.Errorf("variance: %v, %v", q, err)
	}
	q, err = Parse(`ESTIMATE MEDIAN(temp) FROM d`)
	if err != nil || q.Agg != estimator.Median {
		t.Errorf("median: %v, %v", q, err)
	}
	q, err = Parse(`ESTIMATE QUANTILE(temp, 0.9) FROM d`)
	if err != nil || q.Agg != estimator.Quant || q.QuantileP != 0.9 {
		t.Errorf("quantile: %+v, %v", q, err)
	}
}

func TestParseMultiAggregate(t *testing.T) {
	q, err := Parse(`ESTIMATE AVG(temp), STDDEV(temp), MEDIAN(temp) FROM d SAMPLES 500`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.MultiAggs) != 3 {
		t.Fatalf("multi aggs = %d", len(q.MultiAggs))
	}
	if q.MultiAggs[1].Kind != estimator.Stddev || q.MultiAggs[2].Kind != estimator.Median {
		t.Errorf("aggs = %+v", q.MultiAggs)
	}
	// Single aggregate leaves MultiAggs empty.
	q2, _ := Parse(`ESTIMATE AVG(temp) FROM d`)
	if len(q2.MultiAggs) != 0 {
		t.Errorf("single agg MultiAggs = %d", len(q2.MultiAggs))
	}
	// COUNT can't participate.
	if _, err := Parse(`ESTIMATE AVG(x), COUNT FROM d`); err == nil {
		t.Error("COUNT in multi list should fail")
	}
}

func TestExecuteMultiAggregate(t *testing.T) {
	eng := engine.New(engine.Config{Seed: 16})
	ds := gen.Uniform(10000, 16, geo.Range{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100, MinT: 0, MaxT: 100})
	if _, err := eng.Register(ds, engine.IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := Execute(context.Background(), eng,
		`ESTIMATE AVG(value), STDDEV(value), QUANTILE(value, 0.9) FROM uniform WHERE REGION(20,20,60,60) SAMPLES 800`, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"joint estimates", "AVG", "STDDEV", "QUANTILE"} {
		if !strings.Contains(out, want) {
			t.Errorf("multi output missing %q:\n%s", want, out)
		}
	}
}

func TestParseGroupBy(t *testing.T) {
	q, err := Parse(`ESTIMATE AVG(temp) FROM mesowest WHERE REGION(0,0,1,1) GROUP BY station SAMPLES 500`)
	if err != nil {
		t.Fatal(err)
	}
	if q.GroupBy != "station" {
		t.Errorf("group by = %q", q.GroupBy)
	}
}

func TestParseExplain(t *testing.T) {
	q, err := Parse(`EXPLAIN ESTIMATE AVG(x) FROM d WHERE REGION(0,0,1,1)`)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Explain || q.Agg != estimator.Avg {
		t.Errorf("explain query = %+v", q)
	}
	q, err = Parse(`EXPLAIN COUNT FROM d`)
	if err != nil || !q.Explain {
		t.Errorf("explain count: %+v, %v", q, err)
	}
}

func TestParseShow(t *testing.T) {
	q, err := Parse(`SHOW DATASETS`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Op != OpShow {
		t.Fatalf("query = %+v", q)
	}
}

func TestParseCaseInsensitive(t *testing.T) {
	if _, err := Parse(`estimate avg(temp) from d where region(0,0,1,1)`); err != nil {
		t.Errorf("lower-case query rejected: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"FROBNICATE x",
		"ESTIMATE MODE(x) FROM d",                           // unknown aggregate
		"ESTIMATE QUANTILE(x, 1.5) FROM d",                  // p out of range
		"ESTIMATE QUANTILE(x) FROM d",                       // missing p
		"EXPLAIN KDE FROM d",                                // EXPLAIN only for estimates
		"ESTIMATE AVG(x) FROM d GROUP BY",                   // missing group column
		"ESTIMATE AVG(x)",                                   // missing FROM
		"ESTIMATE AVG(x) FROM d WHERE BOGUS(1)",             // bad predicate
		"ESTIMATE AVG(x) FROM d WHERE REGION(1, 2, 3)",      // arity
		"ESTIMATE AVG(x) FROM d WHERE REGION(5, 0, 1, 1)",   // inverted
		"ESTIMATE AVG(x) FROM d WHERE TIME(10, 1)",          // inverted
		"ESTIMATE AVG(x) FROM d WITH CONFIDENCE 150%",       // bad confidence
		"ESTIMATE AVG(x) FROM d SAMPLES 0",                  // zero samples
		"ESTIMATE AVG(x) FROM d USING BTREE",                // unknown method
		"ESTIMATE AVG(x) FROM d trailing junk (",            // trailing
		"KDE FROM d GRID 0x4",                               // bad grid
		"TERMS() FROM d",                                    // missing attr
		"TRAJECTORY(user) FROM d",                           // missing user
		"CLUSTER(2.5) FROM d",                               // non-integer
		"ESTIMATE AVG(x) FROM d WHERE REGION(1, 2, 3, 'a')", // string coord
		"SHOW TABLES",
		"ESTIMATE AVG(x) FROM d WITHIN 5d", // unknown unit
		"ESTIMATE AVG(x) FROM d LAST 0s",   // empty window
		"ESTIMATE AVG(x) FROM d LAST",      // missing duration
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
}

func TestParseDurations(t *testing.T) {
	cases := map[string]time.Duration{
		"WITHIN 500ms": 500 * time.Millisecond,
		"WITHIN 2s":    2 * time.Second,
		"WITHIN 1m":    time.Minute,
		"WITHIN 1h":    time.Hour,
		"WITHIN 250":   250 * time.Millisecond, // bare number = ms
	}
	for clause, want := range cases {
		q, err := Parse("ESTIMATE AVG(x) FROM d " + clause)
		if err != nil {
			t.Errorf("%q: %v", clause, err)
			continue
		}
		if q.Within != want {
			t.Errorf("%q: got %v, want %v", clause, q.Within, want)
		}
	}
}

func TestParseWindow(t *testing.T) {
	cases := map[string]time.Duration{
		"LAST 5m":    5 * time.Minute,
		"LAST 300s":  5 * time.Minute,
		"LAST 1h":    time.Hour,
		"LAST 500ms": 500 * time.Millisecond,
		"LAST 250":   250 * time.Millisecond, // bare number = ms
	}
	for clause, want := range cases {
		q, err := Parse("ESTIMATE AVG(x) FROM d " + clause)
		if err != nil {
			t.Errorf("%q: %v", clause, err)
			continue
		}
		if q.Last != want {
			t.Errorf("%q: got %v, want %v", clause, q.Last, want)
		}
	}

	// LAST composes with WHERE, contract clauses and USING.
	q, err := Parse(`ESTIMATE AVG(x) FROM d WHERE REGION(0, 0, 1, 1) AND speed >= 30 LAST 5m ERROR 2% AT CONFIDENCE 95% WITHIN 500ms USING RSTREE`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Last != 5*time.Minute || !q.Contract || len(q.Where) != 1 || q.Region == nil {
		t.Fatalf("composed query = %+v", q)
	}
	if got := q.WindowClause(); got != "LAST 300000ms" {
		t.Errorf("WindowClause = %q", got)
	}
	if q2, _ := Parse("ESTIMATE AVG(x) FROM d"); q2.WindowClause() != "" {
		t.Error("unwindowed query should render an empty WindowClause")
	}
}

func TestQueryRange(t *testing.T) {
	q, _ := Parse("COUNT FROM d WHERE REGION(1, 2, 3, 4) AND TIME(5, 6)")
	r := q.Range()
	want := geo.Range{MinX: 1, MinY: 2, MaxX: 3, MaxY: 4, MinT: 5, MaxT: 6}
	if r != want {
		t.Errorf("range = %+v", r)
	}
	q2, _ := Parse("COUNT FROM d")
	r2 := q2.Range()
	if !r2.Rect().Contains(geo.Vec{1e9, -1e9, 1e18}) {
		t.Error("unbounded query should cover everything")
	}
}

// End-to-end: execute statements against a real engine.
func TestExecuteEndToEnd(t *testing.T) {
	eng := engine.New(engine.Config{Seed: 3})
	ds := gen.Uniform(20000, 5, geo.Range{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100, MinT: 0, MaxT: 100})
	if _, err := eng.Register(ds, engine.IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	tweets, _ := gen.Tweets(gen.TweetsConfig{N: 20000, Users: 50, Seed: 7, Snowstorm: true})
	if _, err := eng.Register(tweets, engine.IndexOptions{}); err != nil {
		t.Fatal(err)
	}

	run := func(stmt string) string {
		t.Helper()
		var buf bytes.Buffer
		if err := Execute(context.Background(), eng, stmt, &buf); err != nil {
			t.Fatalf("%q: %v", stmt, err)
		}
		return buf.String()
	}

	out := run(`ESTIMATE AVG(value) FROM uniform WHERE REGION(20, 20, 60, 60) SAMPLES 500`)
	if !strings.Contains(out, "AVG") || !strings.Contains(out, "[final]") {
		t.Errorf("estimate output:\n%s", out)
	}
	out = run(`COUNT FROM uniform WHERE REGION(20, 20, 60, 60)`)
	if !strings.Contains(out, "COUNT") || !strings.Contains(out, "exact") {
		t.Errorf("count output:\n%s", out)
	}
	out = run(`KDE FROM tweets WHERE REGION(-125, 24, -66, 50) GRID 24x12 SAMPLES 500`)
	if !strings.Contains(out, "kde: ") || !strings.Contains(out, "+") {
		t.Errorf("kde output:\n%s", out)
	}
	out = run(`TERMS(text) FROM tweets WHERE REGION(-85.4, 32.7, -83.4, 34.7) AND TIME(864000, 1123200) TOP 5 SAMPLES 300`)
	if !strings.Contains(out, "top terms") || !strings.Contains(out, "sentiment") {
		t.Errorf("terms output:\n%s", out)
	}
	users, _ := tweets.StringColumn("user")
	out = run(`TRAJECTORY(user, '` + users[0] + `') FROM tweets SAMPLES 100`)
	if !strings.Contains(out, "trajectory of") {
		t.Errorf("trajectory output:\n%s", out)
	}
	out = run(`CLUSTER(3) FROM tweets WHERE REGION(-125, 24, -66, 50) SAMPLES 400`)
	if !strings.Contains(out, "clusters over") {
		t.Errorf("cluster output:\n%s", out)
	}
	out = run(`SHOW DATASETS`)
	if !strings.Contains(out, "uniform") || !strings.Contains(out, "tweets") {
		t.Errorf("show output:\n%s", out)
	}
	out = run(`ESTIMATE MEDIAN(value) FROM uniform WHERE REGION(20, 20, 60, 60) SAMPLES 500`)
	if !strings.Contains(out, "MEDIAN") {
		t.Errorf("median output:\n%s", out)
	}
	out = run(`ESTIMATE STDDEV(value) FROM uniform WHERE REGION(20, 20, 60, 60) SAMPLES 500`)
	if !strings.Contains(out, "STDDEV") {
		t.Errorf("stddev output:\n%s", out)
	}
	out = run(`EXPLAIN ESTIMATE AVG(value) FROM uniform WHERE REGION(20, 20, 60, 60)`)
	if !strings.Contains(out, "sampler:") || !strings.Contains(out, "selectivity") {
		t.Errorf("explain output:\n%s", out)
	}
	// Without a target the exact plan answers; an explicit method, or a
	// tight-enough sample need over the whole dataset, streams.
	if !strings.Contains(out, "method:         exact (one pass over ") || !strings.Contains(out, "unbounded") {
		t.Errorf("explain of an untargeted AVG does not report the exact plan:\n%s", out)
	}
	out = run(`EXPLAIN ESTIMATE AVG(value) FROM uniform WHERE REGION(20, 20, 60, 60) WITH ERROR 1% USING RSTREE`)
	if strings.Contains(out, "method:") {
		t.Errorf("explain of a USING RSTREE estimate reports the exact plan:\n%s", out)
	}
	out = run(`EXPLAIN ESTIMATE AVG(value) FROM uniform WITH ERROR 50%`)
	if strings.Contains(out, "method:") {
		t.Errorf("explain of a loose target over the whole dataset reports the exact plan:\n%s", out)
	}
}

func TestParseAndExecuteHotspots(t *testing.T) {
	q, err := Parse(`HOTSPOTS(5) FROM tweets WHERE REGION(-125, 24, -66, 50) GRID 16x8 SAMPLES 400`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Op != OpHotspots || q.K != 5 || q.GridX != 16 {
		t.Fatalf("query = %+v", q)
	}
	if _, err := Parse(`HOTSPOTS(0) FROM d`); err == nil {
		t.Error("k=0 should be rejected")
	}

	eng := engine.New(engine.Config{Seed: 15})
	ds, _ := gen.Tweets(gen.TweetsConfig{N: 20000, Users: 50, Seed: 15})
	if _, err := eng.Register(ds, engine.IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err = Execute(context.Background(), eng,
		`HOTSPOTS(3) FROM tweets WHERE REGION(-125, 24, -66, 50) GRID 16x8 SAMPLES 500`, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "top 3 density hotspots") || !strings.Contains(out, "#1") {
		t.Errorf("hotspots output:\n%s", out)
	}
}

func TestParseInsertDelete(t *testing.T) {
	q, err := Parse(`INSERT INTO d VALUES (1, 2, 3), (4, 5, 6)`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Op != OpInsert || len(q.Rows) != 2 || q.Rows[1] != [3]float64{4, 5, 6} {
		t.Fatalf("insert query = %+v", q)
	}
	q, err = Parse(`DELETE FROM d WHERE REGION(0, 0, 1, 1) AND TIME(5, 10)`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Op != OpDelete || q.Region == nil || q.Time == nil {
		t.Fatalf("delete query = %+v", q)
	}
	// DELETE without WHERE is refused.
	if _, err := Parse(`DELETE FROM d`); err == nil {
		t.Error("DELETE without WHERE should fail")
	}
	if _, err := Parse(`INSERT INTO d VALUES (1, 2)`); err == nil {
		t.Error("short tuple should fail")
	}
}

func TestExecuteUpdates(t *testing.T) {
	eng := engine.New(engine.Config{Seed: 10})
	ds := gen.Uniform(5000, 10, geo.Range{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100, MinT: 0, MaxT: 100})
	if _, err := eng.Register(ds, engine.IndexOptions{LSTree: true}); err != nil {
		t.Fatal(err)
	}
	run := func(stmt string) string {
		t.Helper()
		var buf bytes.Buffer
		if err := Execute(context.Background(), eng, stmt, &buf); err != nil {
			t.Fatalf("%q: %v", stmt, err)
		}
		return buf.String()
	}
	before := run(`COUNT FROM uniform WHERE REGION(200, 200, 201, 201)`)
	if !strings.Contains(before, "COUNT = 0") {
		t.Fatalf("expected empty probe region:\n%s", before)
	}
	out := run(`INSERT INTO uniform VALUES (200.5, 200.5, 50), (200.6, 200.6, 51)`)
	if !strings.Contains(out, "inserted 2") {
		t.Errorf("insert output: %s", out)
	}
	after := run(`COUNT FROM uniform WHERE REGION(200, 200, 201, 201)`)
	if !strings.Contains(after, "COUNT = 2") {
		t.Errorf("count after insert:\n%s", after)
	}
	out = run(`DELETE FROM uniform WHERE REGION(200, 200, 201, 201)`)
	if !strings.Contains(out, "deleted 2") {
		t.Errorf("delete output: %s", out)
	}
	final := run(`COUNT FROM uniform WHERE REGION(200, 200, 201, 201)`)
	if !strings.Contains(final, "COUNT = 0") {
		t.Errorf("count after delete:\n%s", final)
	}
}

func TestExecuteGroupBy(t *testing.T) {
	eng := engine.New(engine.Config{Seed: 9})
	ds := gen.Stations(gen.StationsConfig{Stations: 20, ReadingsPerStation: 50, Seed: 9})
	if _, err := eng.Register(ds, engine.IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := Execute(context.Background(), eng,
		`ESTIMATE AVG(temp) FROM mesowest GROUP BY station SAMPLES 600`, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "groups over") || !strings.Contains(out, "st-") {
		t.Errorf("group-by output:\n%s", out)
	}
}

func TestDropDataset(t *testing.T) {
	eng := engine.New(engine.Config{Seed: 17})
	ds := gen.Uniform(500, 17, geo.SpatialRange(0, 0, 1, 1))
	if _, err := eng.Register(ds, engine.IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Execute(context.Background(), eng, `DROP DATASET uniform`, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "dropped dataset uniform") {
		t.Errorf("output: %s", buf.String())
	}
	if err := Execute(context.Background(), eng, `COUNT FROM uniform`, &buf); err == nil {
		t.Error("dropped dataset should be unknown")
	}
	if err := Execute(context.Background(), eng, `DROP DATASET uniform`, &buf); err == nil {
		t.Error("double drop should error")
	}
	if _, err := Parse(`DROP TABLE x`); err == nil {
		t.Error("DROP TABLE should be rejected")
	}
}

// TestParseNeverPanics feeds random garbage and mutated statements to the
// parser: every input must return cleanly (a *Query or an error), never
// panic — the REPL and HTTP server pass user input straight in.
func TestParseNeverPanics(t *testing.T) {
	rng := stats.NewRNG(99)
	alphabet := []byte("ESTIMATE AVG(x),%'\"0123456789.()WHEREREGIONTIMEfromds \t\nms")
	valid := []string{
		"ESTIMATE AVG(temp) FROM d WHERE REGION(1,2,3,4) AND TIME(5,6) WITH CONFIDENCE 95% ERROR 1% WITHIN 500ms SAMPLES 10 USING rstree",
		"HOTSPOTS(3) FROM d GRID 8x8",
		"INSERT INTO d VALUES (1,2,3)",
		"DELETE FROM d WHERE REGION(0,0,1,1)",
	}
	check := func(input string) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Parse(%q) panicked: %v", input, r)
			}
		}()
		Parse(input)
	}
	// Pure random strings.
	for i := 0; i < 3000; i++ {
		n := rng.Intn(60)
		b := make([]byte, n)
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		check(string(b))
	}
	// Mutations of valid statements (truncations, swaps, deletions).
	for i := 0; i < 3000; i++ {
		s := []byte(valid[rng.Intn(len(valid))])
		switch rng.Intn(3) {
		case 0:
			s = s[:rng.Intn(len(s)+1)]
		case 1:
			if len(s) > 1 {
				a, b := rng.Intn(len(s)), rng.Intn(len(s))
				s[a], s[b] = s[b], s[a]
			}
		case 2:
			if len(s) > 0 {
				p := rng.Intn(len(s))
				s = append(s[:p], s[p+1:]...)
			}
		}
		check(string(s))
	}
}

func TestExecuteErrors(t *testing.T) {
	eng := engine.New(engine.Config{Seed: 3})
	var buf bytes.Buffer
	if err := Execute(context.Background(), eng, "COUNT FROM missing", &buf); err == nil {
		t.Error("unknown dataset should error")
	}
	if err := Execute(context.Background(), eng, "garbage", &buf); err == nil {
		t.Error("parse error should surface")
	}
}

// renderOnceShapes is every statement shape that drains its stream and
// renders the final snapshot once, over the mesowest demo dataset; %s takes
// the WHERE terms.
var renderOnceShapes = []string{
	"ESTIMATE AVG(temp), STDDEV(temp) FROM mesowest WHERE %s",
	"ESTIMATE AVG(temp) FROM mesowest WHERE %s GROUP BY station",
	"KDE FROM mesowest WHERE %s GRID 4x4",
	"HOTSPOTS(2) FROM mesowest WHERE %s GRID 4x4",
	"TERMS(station) FROM mesowest WHERE %s",
	"TRAJECTORY(station, 'st-00003') FROM mesowest WHERE %s",
	"CLUSTER(2) FROM mesowest WHERE %s",
}

// TestExecuteRenderOnceShapesCancelled: a context cancelled before the
// query starts races the driver's terminal report against ctx.Done, so the
// stream may close with nothing delivered. Either outcome must return
// cleanly — the context's error with nothing rendered, or a rendered
// zero-sample answer — never a nil snapshot dereference.
func TestExecuteRenderOnceShapesCancelled(t *testing.T) {
	eng := engine.New(engine.Config{Seed: 9})
	if _, err := eng.Register(gen.Stations(gen.StationsConfig{Stations: 20, ReadingsPerStation: 50, Seed: 9}), engine.IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, shape := range renderOnceShapes {
		var undelivered int
		// Enough tries that both sides of the race are all but surely seen.
		for i := 0; i < 40; i++ {
			var buf bytes.Buffer
			err := Execute(ctx, eng, fmt.Sprintf(shape, "temp > -1000"), &buf)
			switch {
			case errors.Is(err, context.Canceled):
				undelivered++
				if buf.Len() != 0 {
					t.Fatalf("%s: cancelled without a snapshot yet rendered:\n%s", shape, buf.String())
				}
			case err != nil:
				t.Fatalf("%s: %v", shape, err)
			case buf.Len() == 0:
				t.Fatalf("%s: nil error but nothing rendered", shape)
			}
		}
		if undelivered == 0 {
			t.Errorf("%s: the undelivered-terminal-report path was never exercised in 40 tries", shape)
		}
	}
}

// TestExecuteRenderOnceShapesHonorWhere: every render-once shape runs
// under the statement's WHERE — a predicate on a column the dataset lacks
// fails them all, and a satisfiable one narrows what they fold.
func TestExecuteRenderOnceShapesHonorWhere(t *testing.T) {
	eng := engine.New(engine.Config{Seed: 9})
	if _, err := eng.Register(gen.Stations(gen.StationsConfig{Stations: 20, ReadingsPerStation: 50, Seed: 9}), engine.IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, shape := range renderOnceShapes {
		var buf bytes.Buffer
		if err := Execute(context.Background(), eng, fmt.Sprintf(shape, "nope > 3"), &buf); err == nil {
			t.Errorf("%s: predicate on an unknown column should error, got:\n%s", shape, buf.String())
		} else if buf.Len() != 0 {
			t.Errorf("%s: a set-up failure should print nothing ahead of the error, got:\n%s", shape, buf.String())
		}
		buf.Reset()
		if err := Execute(context.Background(), eng, fmt.Sprintf(shape, "temp > -1000 LAST 20h"), &buf); err != nil {
			t.Errorf("%s: %v", shape, err)
		}
	}
	var all, warm bytes.Buffer
	if err := Execute(context.Background(), eng, "CLUSTER(2) FROM mesowest SAMPLES 100000", &all); err != nil {
		t.Fatal(err)
	}
	if err := Execute(context.Background(), eng, "CLUSTER(2) FROM mesowest WHERE temp > 15 SAMPLES 100000", &warm); err != nil {
		t.Fatal(err)
	}
	var nAll, nWarm int
	fmt.Sscanf(all.String(), "clusters over %d samples", &nAll)
	fmt.Sscanf(warm.String(), "clusters over %d samples", &nWarm)
	if nAll != 1000 || nWarm == 0 || nWarm >= nAll {
		t.Errorf("CLUSTER folded %d records unfiltered and %d under temp > 15", nAll, nWarm)
	}
}

func TestParseWhereComparisons(t *testing.T) {
	q, err := Parse("ESTIMATE AVG(temp) FROM ds WHERE REGION(-1, -1, 1, 1) AND speed >= 30 AND speed < 80 AND BETWEEN(noise, 0.1, 0.9) AND depth = 5")
	if err != nil {
		t.Fatal(err)
	}
	if q.Region == nil {
		t.Fatal("REGION lost alongside attribute comparisons")
	}
	if len(q.Where) != 4 {
		t.Fatalf("want 4 predicate terms, got %d: %+v", len(q.Where), q.Where)
	}
	p := pred.Normalize(q.Where)
	want := "depth = 5 AND noise >= 0.1 AND noise <= 0.9 AND speed >= 30 AND speed < 80"
	if got := p.String(); got != want {
		t.Fatalf("canonical predicate = %q, want %q", got, want)
	}
}

func TestParseWhereErrors(t *testing.T) {
	for _, bad := range []string{
		"COUNT FROM ds WHERE speed",
		"COUNT FROM ds WHERE speed >=",
		"COUNT FROM ds WHERE speed >= fast",
		"COUNT FROM ds WHERE BETWEEN(speed, 1)",
		"COUNT FROM ds WHERE 3 >= speed",
		"DELETE FROM ds WHERE speed >= 3",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) unexpectedly succeeded", bad)
		}
	}
}

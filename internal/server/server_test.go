package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"storm/internal/engine"
	"storm/internal/gen"
	"storm/internal/geo"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	eng := engine.New(engine.Config{Seed: 3})
	ds := gen.Uniform(20000, 5, geo.Range{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100, MinT: 0, MaxT: 100})
	if _, err := eng.Register(ds, engine.IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	tweets, _ := gen.Tweets(gen.TweetsConfig{N: 10000, Users: 20, Seed: 5})
	if _, err := eng.Register(tweets, engine.IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(eng))
	t.Cleanup(ts.Close)
	return ts
}

func TestListDatasets(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/datasets")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var infos []DatasetInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("datasets = %+v", infos)
	}
	if infos[0].Name != "tweets" || infos[1].Name != "uniform" {
		t.Errorf("names = %s, %s", infos[0].Name, infos[1].Name)
	}
	if infos[1].Records != 20000 {
		t.Errorf("uniform records = %d", infos[1].Records)
	}
}

func TestGetDataset(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/datasets/uniform")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info DatasetInfo
	json.NewDecoder(resp.Body).Decode(&info)
	if info.Name != "uniform" || len(info.Numeric) != 1 || info.Numeric[0] != "value" {
		t.Errorf("info = %+v", info)
	}
	resp2, err := http.Get(ts.URL + "/datasets/nope")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != 404 {
		t.Errorf("unknown dataset status = %d", resp2.StatusCode)
	}
}

func TestQueryStreamsNDJSON(t *testing.T) {
	ts := newTestServer(t)
	body := `{"statement": "ESTIMATE AVG(value) FROM uniform WHERE REGION(20,20,60,60) SAMPLES 500"}`
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type = %q", ct)
	}
	var snaps []SnapshotJSON
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var s SnapshotJSON
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		snaps = append(snaps, s)
	}
	if len(snaps) < 3 {
		t.Fatalf("snapshots = %d", len(snaps))
	}
	last := snaps[len(snaps)-1]
	if !last.Done || last.Samples != 500 || last.Kind != "AVG" {
		t.Errorf("final snapshot = %+v", last)
	}
	// CIs tighten across the stream.
	if snaps[0].HalfWidth <= last.HalfWidth {
		t.Errorf("CI did not tighten: %v -> %v", snaps[0].HalfWidth, last.HalfWidth)
	}
	// The sample mean should be near 100 (gen.Uniform's value column).
	if last.Value < 95 || last.Value > 105 {
		t.Errorf("value = %v", last.Value)
	}
}

func TestQueryNonEstimateRendersOnce(t *testing.T) {
	ts := newTestServer(t)
	body := `{"statement": "KDE FROM tweets WHERE REGION(-125,24,-66,50) GRID 12x8 SAMPLES 300"}`
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out["output"], "kde:") {
		t.Errorf("kde output = %q", out["output"])
	}
}

// TestQueryAggregateListRendersOnce: an aggregate list has no NDJSON form,
// so it renders once with EVERY requested aggregate in the answer (the
// stream path only knows the first) — under the statement's predicate.
func TestQueryAggregateListRendersOnce(t *testing.T) {
	ts := newTestServer(t)
	body := `{"statement": "ESTIMATE AVG(value), STDDEV(value), MEDIAN(value) FROM uniform WHERE REGION(20,20,60,60) AND value > 90 SAMPLES 400"}`
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != 200 || ct != "application/json" {
		t.Fatalf("status %d, content type %q", resp.StatusCode, ct)
	}
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"joint estimates over 400 samples", "AVG", "STDDEV", "MEDIAN"} {
		if !strings.Contains(out["output"], want) {
			t.Errorf("aggregate-list answer lacks %q:\n%s", want, out["output"])
		}
	}
	// value ~ N(100, 20): only the filtered mean clears 105.
	var avg float64
	if _, err := fmt.Sscanf(out["output"][strings.Index(out["output"], "AVG"):], "AVG ≈ %g", &avg); err != nil || avg < 105 {
		t.Errorf("AVG = %v (err %v): the list ignored WHERE value > 90:\n%s", avg, err, out["output"])
	}
}

func TestQueryErrors(t *testing.T) {
	ts := newTestServer(t)
	cases := []struct {
		body   string
		status int
	}{
		{`not json`, 400},
		{`{"statement": "garbage"}`, 400},
		{`{"statement": "COUNT FROM missing"}`, 404},
		{`{"statement": "ESTIMATE AVG(nope) FROM uniform"}`, 400},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Errorf("%q: status = %d, want %d", c.body, resp.StatusCode, c.status)
		}
	}
}

func TestInsertThenQuery(t *testing.T) {
	ts := newTestServer(t)
	var recs bytes.Buffer
	recs.WriteString(`{"records": [`)
	for i := 0; i < 50; i++ {
		if i > 0 {
			recs.WriteString(",")
		}
		fmt.Fprintf(&recs, `{"lon": 40.5, "lat": 40.5, "time": 50, "num": {"value": 999}}`)
	}
	recs.WriteString(`]}`)
	resp, err := http.Post(ts.URL+"/datasets/uniform/records", "application/json", &recs)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("insert status = %d: %s", resp.StatusCode, raw)
	}
	var ins map[string]any
	json.NewDecoder(resp.Body).Decode(&ins)
	if ins["inserted"].(float64) != 50 {
		t.Errorf("inserted = %v", ins["inserted"])
	}
	// A count over the insertion point sees the new records.
	body := `{"statement": "COUNT FROM uniform WHERE REGION(40.4, 40.4, 40.6, 40.6) AND TIME(49, 51)"}`
	resp2, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	sc := bufio.NewScanner(resp2.Body)
	var last SnapshotJSON
	for sc.Scan() {
		json.Unmarshal(sc.Bytes(), &last)
	}
	if last.Value < 50 {
		t.Errorf("count after insert = %v, want >= 50", last.Value)
	}
}

func TestInsertErrors(t *testing.T) {
	ts := newTestServer(t)
	resp, _ := http.Post(ts.URL+"/datasets/nope/records", "application/json", strings.NewReader(`{}`))
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("unknown dataset insert status = %d", resp.StatusCode)
	}
	resp2, _ := http.Post(ts.URL+"/datasets/uniform/records", "application/json", strings.NewReader(`{"records":[]}`))
	resp2.Body.Close()
	if resp2.StatusCode != 400 {
		t.Errorf("empty insert status = %d", resp2.StatusCode)
	}
}

func TestExplainEndpoint(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/explain?q=" + strings.ReplaceAll(
		"ESTIMATE AVG(value) FROM uniform WHERE REGION(20,20,60,60)", " ", "%20"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var plan PlanJSON
	if err := json.NewDecoder(resp.Body).Decode(&plan); err != nil {
		t.Fatal(err)
	}
	if plan.Dataset != "uniform" || plan.Matching == 0 || plan.Method == "" {
		t.Errorf("plan = %+v", plan)
	}
	// Untargeted, the exact plan answers it; with a 1% target its need at
	// the cold CV of 1 (38 416 samples) still covers the region, and
	// USING RSTREE forces a stream.
	for stmt, want := range map[string]string{
		"ESTIMATE AVG(value) FROM uniform WHERE REGION(20,20,60,60)":                            "exact",
		"ESTIMATE SUM(value) FROM uniform WHERE REGION(20,20,60,60) WITH ERROR 1%":              "exact",
		"ESTIMATE SUM(value) FROM uniform WHERE REGION(20,20,60,60) WITH ERROR 1% USING RSTREE": "rs-tree",
	} {
		resp, err := http.Get(ts.URL + "/explain?q=" + url.QueryEscape(stmt))
		if err != nil {
			t.Fatal(err)
		}
		var plan PlanJSON
		err = json.NewDecoder(resp.Body).Decode(&plan)
		resp.Body.Close()
		if err != nil || plan.Method != want || (want == "exact") != (plan.SampleNeed > 0 || !strings.Contains(stmt, "ERROR")) {
			t.Errorf("%s: plan %+v (%v), want method %s", stmt, plan, err, want)
		}
	}
	// Errors.
	resp2, _ := http.Get(ts.URL + "/explain")
	resp2.Body.Close()
	if resp2.StatusCode != 400 {
		t.Errorf("missing q status = %d", resp2.StatusCode)
	}
	resp3, _ := http.Get(ts.URL + "/explain?q=SHOW%20DATASETS")
	resp3.Body.Close()
	if resp3.StatusCode != 400 {
		t.Errorf("non-estimate explain status = %d", resp3.StatusCode)
	}
}

// TestClientDisconnectCancelsQuery drops the connection mid-stream and
// verifies the server keeps working (the query's context is cancelled).
func TestClientDisconnectCancelsQuery(t *testing.T) {
	ts := newTestServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	body := `{"statement": "ESTIMATE AVG(value) FROM uniform WHERE REGION(0,0,100,100) USING RSTREE"}`
	req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/query", strings.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read one line then drop the connection.
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatal("no first snapshot")
	}
	cancel()
	resp.Body.Close()

	// The server must still answer new queries promptly.
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp2, err := http.Post(ts.URL+"/query", "application/json",
			strings.NewReader(`{"statement": "COUNT FROM uniform"}`))
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(io.Discard, resp2.Body)
		resp2.Body.Close()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("server wedged after client disconnect")
	}
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz = %d", resp.StatusCode)
	}
	var body struct {
		Status   string `json:"status"`
		Datasets int    `json:"datasets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "ok" || body.Datasets != 2 {
		t.Errorf("healthz = %+v, want ok with 2 datasets", body)
	}
}

func TestShardsEndpoint(t *testing.T) {
	eng := engine.New(engine.Config{Seed: 3})
	ds := gen.Uniform(5000, 5, geo.Range{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100, MinT: 0, MaxT: 100})
	if _, err := eng.Register(ds, engine.IndexOptions{Shards: 4}); err != nil {
		t.Fatal(err)
	}
	plain, _ := gen.Tweets(gen.TweetsConfig{N: 1000, Users: 20, Seed: 5})
	if _, err := eng.Register(plain, engine.IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(eng))
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/shards")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /shards = %d", resp.StatusCode)
	}
	var infos []ShardInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	// Only the clustered dataset is listed.
	if len(infos) != 1 || infos[0].Dataset != ds.Name() {
		t.Fatalf("shards = %+v, want one entry for %q", infos, ds.Name())
	}
	info := infos[0]
	if info.Remote || info.ShardsDown != 0 || len(info.Shards) != 4 {
		t.Errorf("shard info = %+v, want 4 healthy simulated shards", info)
	}
	for i, st := range info.Shards {
		if st.Shard != i || st.Addr != "loopback" || st.Down {
			t.Errorf("shard %d status = %+v", i, st)
		}
	}
}

package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"storm/internal/engine"
	"storm/internal/gen"
	"storm/internal/geo"
	"storm/internal/ingest"
)

// newIngestServer builds a server whose POST /ingest buffers drain fast,
// so tests can wait on queryability without long sleeps.
func newIngestServer(t *testing.T, cfg ingest.Config) (*httptest.Server, *Server) {
	t.Helper()
	eng := engine.New(engine.Config{Seed: 3})
	ds := gen.Uniform(20000, 5, geo.Range{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100, MinT: 0, MaxT: 100})
	if _, err := eng.Register(ds, engine.IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	srv := New(eng, WithIngestConfig(cfg))
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return ts, srv
}

func ndjson(n int, t0 float64) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `{"lon":%g,"lat":%g,"time":%g}`+"\n",
			float64(i%100), float64(i%100), t0+float64(i))
	}
	return b.String()
}

// TestIngestEndpoint: NDJSON records posted to /ingest/{name} are accepted
// into the buffer and drain into the indexes, and the response reports the
// dataset watermark `LAST` windows anchor at — which only the drain moves.
func TestIngestEndpoint(t *testing.T) {
	ts, srv := newIngestServer(t, ingest.Config{FlushInterval: time.Millisecond})
	h, err := srv.eng.Dataset("uniform")
	if err != nil {
		t.Fatal(err)
	}
	post := func(body string) IngestResponse {
		t.Helper()
		resp, err := http.Post(ts.URL+"/ingest/uniform", "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			raw, _ := io.ReadAll(resp.Body)
			t.Fatalf("status = %d: %s", resp.StatusCode, raw)
		}
		var out IngestResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if wm, _ := h.Watermark(); out.Watermark > wm {
			t.Errorf("reported watermark %v is ahead of the dataset's %v", out.Watermark, wm)
		}
		return out
	}
	if out := post(ndjson(700, 1000)); out.Accepted != 700 {
		t.Errorf("accepted = %d, want 700", out.Accepted)
	}
	// The drained records are queryable: a LAST window anchored at the
	// stream's watermark covers exactly the streamed records.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(
			`{"statement": "SELECT COUNT FROM uniform WHERE REGION(0,0,100,100) LAST 700s SAMPLES 400"}`))
		if err != nil {
			t.Fatal(err)
		}
		var last map[string]any
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" {
				continue
			}
			last = map[string]any{}
			if err := json.Unmarshal([]byte(line), &last); err != nil {
				t.Fatal(err)
			}
		}
		resp.Body.Close()
		if last == nil {
			t.Fatal("no snapshots")
		}
		v, _ := last["value"].(float64)
		if v > 350 && v < 1050 { // true count 700 once drained
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("windowed count never converged on the streamed records: %v", last)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for h.Len() < 20000+700 {
		if time.Now().After(deadline) {
			t.Fatalf("%d records indexed, want all 700 streamed ones drained", h.Len()-20000)
		}
		time.Sleep(time.Millisecond)
	}
	// A late record does not move the watermark the drain left at 1699.
	if out := post(ndjson(1, 0)); out.Watermark != 1000+699 {
		t.Errorf("watermark after the drain = %v, want %v", out.Watermark, 1000+699)
	}
}

// TestIngestBackpressure429: when the buffer is at MaxPending the endpoint
// answers 429 with Retry-After and an exact accepted count instead of
// buffering without bound.
func TestIngestBackpressure429(t *testing.T) {
	// A huge flush threshold and interval keep the drain asleep, so the
	// second request finds the buffer over its tiny MaxPending.
	ts, _ := newIngestServer(t, ingest.Config{
		MaxPending: 10, FlushRecords: 1 << 20, FlushInterval: time.Hour,
	})
	resp, err := http.Post(ts.URL+"/ingest/uniform", "application/x-ndjson",
		strings.NewReader(ndjson(20, 0)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("first post status = %d, want 200 (MaxPending checked on entry)", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/ingest/uniform", "application/x-ndjson",
		strings.NewReader(ndjson(5, 100)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var out IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Accepted != 0 {
		t.Errorf("accepted = %d, want 0 (whole batch rejected)", out.Accepted)
	}
	if out.Error == "" {
		t.Error("429 body carries no error")
	}
}

// TestIngestBadRecord400: a malformed NDJSON line fails the request with
// 400, but every record before it is still accepted (and said so).
func TestIngestBadRecord400(t *testing.T) {
	ts, _ := newIngestServer(t, ingest.Config{FlushInterval: time.Millisecond})
	body := ndjson(3, 0) + "{not json}\n" + ndjson(2, 50)
	resp, err := http.Post(ts.URL+"/ingest/uniform", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	var out IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Accepted != 3 {
		t.Errorf("accepted = %d, want the 3 records before the bad line", out.Accepted)
	}
}

// TestIngestUnknownDataset404.
func TestIngestUnknownDataset(t *testing.T) {
	ts, _ := newIngestServer(t, ingest.Config{})
	resp, err := http.Post(ts.URL+"/ingest/nope", "application/x-ndjson",
		strings.NewReader(ndjson(1, 0)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

// TestContractInfeasible422: once the planner has telemetry, a contract
// whose error target provably cannot fit its deadline is refused up front
// with 422 and the refusal explains the gap.
func TestContractInfeasible422(t *testing.T) {
	ts := newTestServer(t)
	// Warm the planner's per-dataset profile: a feasible contract runs and
	// records sampling-throughput telemetry (USING RSTREE: the exact plan
	// would answer it without drawing).
	warm := `{"statement": "SELECT AVG(value) FROM uniform WHERE REGION(10,10,90,90) ERROR 10% AT CONFIDENCE 95% WITHIN 5s USING RSTREE"}`
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(warm))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("warm query status = %d", resp.StatusCode)
	}
	// 0.01% error in 1ms is beyond any plan the profile can predict, and
	// the exact plan's pass over the region's ~12 800 records does not fit
	// 1ms either, so under Auto it is refused too.
	bad := `{"statement": "SELECT AVG(value) FROM uniform WHERE REGION(10,10,90,90) ERROR 0.01% AT CONFIDENCE 99% WITHIN 1ms"}`
	resp, err = http.Post(ts.URL+"/query", "application/json", strings.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d, want 422: %s", resp.StatusCode, raw)
	}
	var out ContractRefusedJSON
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Error == "" || out.TargetError != 0.0001 || out.DeadlineMS != 1 {
		t.Errorf("refusal = %+v", out)
	}
	if out.PredictedRelError <= out.TargetError {
		t.Errorf("refusal predicts %v error, inside the %v target it refused",
			out.PredictedRelError, out.TargetError)
	}
}

// TestDatasetInfoDuringIngest: listing a dataset's columns while ingest
// drains append to them must go through the handle lock — iterating the
// column maps beside Append's writes is a process-fatal "concurrent map
// iteration and map write" (and a -race report, which is how this test
// fails without the lock).
func TestDatasetInfoDuringIngest(t *testing.T) {
	ts, _ := newIngestServer(t, ingest.Config{FlushInterval: time.Millisecond})
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 40; i++ {
			resp, err := http.Post(ts.URL+"/ingest/uniform", "application/x-ndjson", strings.NewReader(ndjson(200, float64(1000+200*i))))
			if err != nil {
				done <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		done <- nil
	}()
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			return
		default:
		}
		resp, err := http.Get(ts.URL + "/datasets/uniform")
		if err != nil {
			t.Fatal(err)
		}
		var info DatasetInfo
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if err != nil || len(info.Numeric) != 1 || info.Numeric[0] != "value" {
			t.Fatalf("dataset info during ingest = %+v, err %v", info, err)
		}
	}
}

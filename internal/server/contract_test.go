package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"storm/internal/engine"
	"storm/internal/gen"
	"storm/internal/geo"
)

// TestContractQueryOneShot: a statement with the ERROR ... AT CONFIDENCE
// form answers once with a JSON contract verdict instead of an NDJSON
// snapshot stream.
func TestContractQueryOneShot(t *testing.T) {
	ts := newTestServer(t)
	body := `{"statement": "SELECT AVG(value) FROM uniform WHERE REGION(20,20,60,60) ERROR 10% AT CONFIDENCE 95% WITHIN 5s"}`
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q, want one-shot JSON (not a stream)", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	// Exactly one JSON document, not NDJSON.
	if n := strings.Count(strings.TrimSpace(string(raw)), "\n"); n != 0 {
		t.Fatalf("contract answer has %d extra lines: %s", n, raw)
	}
	var out ContractAnswerJSON
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Status != "met" {
		t.Errorf("status = %q (achieved %v), want met", out.Status, out.AchievedError)
	}
	if !out.Done {
		t.Errorf("contract answer not final: %+v", out)
	}
	if out.TargetError != 0.10 || out.TargetConfidence != 0.95 || out.DeadlineMS != 5000 {
		t.Errorf("echoed targets = %v/%v/%v", out.TargetError, out.TargetConfidence, out.DeadlineMS)
	}
	if !out.Exact && (out.AchievedError <= 0 || out.AchievedError > 0.10+1e-9) {
		t.Errorf("achieved_error = %v under a met 10%% contract", out.AchievedError)
	}
	// A met 10% contract stops as soon as its CI is inside ±10%, so the
	// point estimate can sit a full CI away from the truth (~100).
	if out.Value < 80 || out.Value > 120 {
		t.Errorf("value = %v, want within the 10%% contract's reach of 100", out.Value)
	}
	if out.QoSFactor != 0 {
		t.Errorf("unloaded server reported qos_factor = %v", out.QoSFactor)
	}
}

// TestContractQueryQoSDegradation: contract queries admitted past the
// stream cap are never shed with 429 — the contract is scaled by the
// overload factor, the answer reports the effective targets, and a met-
// under-relaxation answer is re-graded against the client's original
// contract.
func TestContractQueryQoSDegradation(t *testing.T) {
	eng := engine.New(engine.Config{Seed: 3})
	ds := gen.Uniform(20000, 5, geo.Range{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100, MinT: 0, MaxT: 100})
	if _, err := eng.Register(ds, engine.IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	srv := New(eng, WithMaxStreams(1))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	// Pin the single slot (same-package test, as in the shedding suite):
	// the contract query below arrives over the cap.
	if !srv.acquireStream() {
		t.Fatal("first acquire should succeed")
	}
	defer srv.releaseStream()

	body := `{"statement": "SELECT AVG(value) FROM uniform WHERE REGION(20,20,60,60) ERROR 10% AT CONFIDENCE 95% WITHIN 5s"}`
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("contract query over the cap: status = %d (want admission, never 429): %s", resp.StatusCode, raw)
	}
	var out ContractAnswerJSON
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.QoSFactor != 2 {
		t.Errorf("qos_factor = %v, want 2 (2 active over a cap of 1)", out.QoSFactor)
	}
	if out.EffectiveError != 0.20 {
		t.Errorf("effective_error = %v, want the scaled 0.20", out.EffectiveError)
	}
	if out.EffectiveDeadlineMS != 2500 {
		t.Errorf("effective_deadline_ms = %v, want the scaled 2500", out.EffectiveDeadlineMS)
	}
	// The verdict is graded against the ORIGINAL 10% target: met only if
	// the achieved error actually reached it, degraded otherwise.
	switch out.Status {
	case "met":
		if !out.Exact && out.AchievedError > out.TargetError+1e-9 {
			t.Errorf("met verdict with achieved %v > requested %v", out.AchievedError, out.TargetError)
		}
	case "degraded":
		if out.AchievedError != 0 && out.AchievedError <= out.TargetError {
			t.Errorf("degraded verdict with achieved %v ≤ requested %v", out.AchievedError, out.TargetError)
		}
	default:
		t.Errorf("status = %q under QoS admission", out.Status)
	}

	// The admission and degradation are visible on /metrics.
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	var metrics map[string]any
	if err := json.NewDecoder(mr.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	if v, _ := metrics["storm.server.contracts"].(float64); v != 1 {
		t.Errorf("storm.server.contracts = %v, want 1", metrics["storm.server.contracts"])
	}
	if v, _ := metrics["storm.server.contracts.qos_degraded"].(float64); v != 1 {
		t.Errorf("storm.server.contracts.qos_degraded = %v, want 1", metrics["storm.server.contracts.qos_degraded"])
	}
	if v, _ := metrics["storm.server.streams.shed"].(float64); v != 0 {
		t.Errorf("contract query was shed: storm.server.streams.shed = %v", metrics["storm.server.streams.shed"])
	}
}

// TestContractQueryErrors: malformed contracts surface as 400s from the
// one-shot path, unknown datasets as 404.
func TestContractQueryErrors(t *testing.T) {
	ts := newTestServer(t)
	cases := []struct {
		name, stmt string
		want       int
	}{
		{"unknown-dataset", "SELECT AVG(value) FROM nope ERROR 2% AT CONFIDENCE 95%", 404},
		{"quantile-contract", "SELECT P90(value) FROM uniform ERROR 2% AT CONFIDENCE 95%", 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body := `{"statement": "` + tc.stmt + `"}`
			resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
			if resp.StatusCode != tc.want {
				t.Errorf("status = %d, want %d", resp.StatusCode, tc.want)
			}
		})
	}
}

// TestColdPlansCountsContractsNotPlans: storm.engine.contracts.cold_plans
// is an alarm on contracts running without telemetry, so it moves once per
// contract that executes on a cold plan — not per planning call. EXPLAIN
// plans without running, the HTTP contract path plans twice (feasibility
// pre-check, then execution), and a 422 refusal plans and runs nothing.
func TestColdPlansCountsContractsNotPlans(t *testing.T) {
	ts := newTestServer(t)
	post := func(stmt string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(`{"statement": "`+stmt+`"}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	coldPlans := func() float64 {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var metrics map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
			t.Fatal(err)
		}
		v, _ := metrics["storm.engine.contracts.cold_plans"].(float64)
		return v
	}
	// USING RSTREE: the exact plan would answer this contract, and it is
	// never a cold plan.
	const contract = "SELECT AVG(value) FROM uniform WHERE REGION(10,10,90,90) ERROR 10% AT CONFIDENCE 95% WITHIN 5s USING RSTREE"

	if code := post("EXPLAIN " + contract); code != 200 {
		t.Fatalf("EXPLAIN status = %d", code)
	}
	if got := coldPlans(); got != 0 {
		t.Errorf("cold_plans after EXPLAIN = %v, want 0 (nothing ran)", got)
	}
	if code := post(contract); code != 200 {
		t.Fatalf("cold contract status = %d", code)
	}
	if got := coldPlans(); got != 1 {
		t.Errorf("cold_plans after one cold contract = %v, want 1", got)
	}
	// The profile is warm now; this one is refused before it runs (the
	// exact plan's pass does not fit its 1ms).
	if code := post("SELECT AVG(value) FROM uniform WHERE REGION(10,10,90,90) ERROR 0.01% AT CONFIDENCE 99% WITHIN 1ms"); code != http.StatusUnprocessableEntity {
		t.Fatalf("infeasible contract status = %d, want 422", code)
	}
	if got := coldPlans(); got != 1 {
		t.Errorf("cold_plans after a 422 refusal = %v, want 1", got)
	}
}

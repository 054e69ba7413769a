package server

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"storm/internal/distr"
	"storm/internal/engine"
	"storm/internal/gen"
	"storm/internal/geo"
)

// newFaultyServer serves a sharded dataset whose fault plan crashes 2 of 8
// shards on their second fetch.
func newFaultyServer(t *testing.T) (*httptest.Server, *engine.Engine) {
	t.Helper()
	eng := engine.New(engine.Config{Seed: 3})
	ds := gen.Uniform(12000, 5, geo.Range{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100, MinT: 0, MaxT: 100})
	plan := &distr.FaultPlan{Shards: map[int]distr.ShardFaultPlan{
		2: {Crash: true, CrashAfterFetches: 1},
		5: {Crash: true, CrashAfterFetches: 1},
	}}
	if _, err := eng.Register(ds, engine.IndexOptions{Shards: 8, Faults: plan}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(eng))
	t.Cleanup(ts.Close)
	return ts, eng
}

// TestStreamReportsDegradation: an NDJSON stream over a cluster that loses
// shards mid-query completes and its final snapshot carries degraded +
// shards_lost, with the shrunken population.
func TestStreamReportsDegradation(t *testing.T) {
	ts, eng := newFaultyServer(t)
	body := `{"statement": "ESTIMATE AVG(value) FROM uniform WHERE REGION(20,20,60,60) SAMPLES 1000000"}`
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d: %s", resp.StatusCode, raw)
	}
	var last SnapshotJSON
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
	}
	if !last.Done || last.Sampler != "distributed-rs-tree" {
		t.Fatalf("final snapshot = %+v", last)
	}
	if !last.Degraded || last.ShardsLost != 2 {
		t.Errorf("degradation flags = (%v, %d), want (true, 2)", last.Degraded, last.ShardsLost)
	}
	if !last.Exact || last.Samples != last.Population {
		t.Errorf("degraded run should finish exact over survivors: %+v", last)
	}
	if last.Recovered {
		t.Error("permanent crashes must not report recovered")
	}
	// The lost-mass worst-case bounds ride along on the degraded snapshot.
	if last.LostMassLow == 0 && last.LostMassHigh == 0 {
		t.Fatalf("degraded snapshot missing lost-mass bounds: %+v", last)
	}
	if last.LostMassLow >= last.LostMassHigh {
		t.Errorf("degenerate lost-mass interval [%v, %v]", last.LostMassLow, last.LostMassHigh)
	}
	if last.Value < last.LostMassLow || last.Value > last.LostMassHigh {
		t.Errorf("surviving mean %v outside widened bounds [%v, %v]",
			last.Value, last.LostMassLow, last.LostMassHigh)
	}
	// The fault counters are scrapable on /metrics.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var metrics map[string]any
	if err := json.NewDecoder(mresp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	if got := metrics["storm.distr.faults.crashes"]; got != float64(2) {
		t.Errorf("storm.distr.faults.crashes = %v, want 2", got)
	}
	if got := metrics["storm.engine.queries.degraded"]; got != float64(1) {
		t.Errorf("storm.engine.queries.degraded = %v, want 1", got)
	}
	_ = eng
}

// TestStreamReportsRecovery: when the crashed shard comes back on a
// recover-after schedule mid-query, the NDJSON final snapshot reports
// recovered over the full population with no degradation flags or
// lost-mass bounds, and the readmit/recovered counters are scrapable.
func TestStreamReportsRecovery(t *testing.T) {
	ds := gen.Uniform(12000, 5, geo.Range{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100, MinT: 0, MaxT: 100})
	rect := geo.NewRect(geo.Vec{20, 20, 0}, geo.Vec{60, 60, 100})

	// Probe an identically partitioned cluster for the shard with the most
	// matching records, so the crash window is always hit mid-query.
	probe, err := engine.New(engine.Config{Seed: 3}).Register(ds, engine.IndexOptions{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	target, best := 0, -1
	for i, sh := range probe.Cluster().Shards() {
		if n := sh.Index().Count(rect); n > best {
			target, best = i, n
		}
	}
	full := probe.Cluster().Count(rect)

	eng := engine.New(engine.Config{Seed: 3})
	plan := &distr.FaultPlan{Shards: map[int]distr.ShardFaultPlan{
		target: {Crash: true, CrashAfterFetches: 1, RecoverAfter: 4},
	}}
	if _, err := eng.Register(ds, engine.IndexOptions{Shards: 8, Faults: plan}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(eng))
	t.Cleanup(ts.Close)

	body := `{"statement": "ESTIMATE AVG(value) FROM uniform WHERE REGION(20,20,60,60) SAMPLES 1000000"}`
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d: %s", resp.StatusCode, raw)
	}
	var last SnapshotJSON
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
	}
	if !last.Done || !last.Recovered {
		t.Fatalf("final snapshot should be done and recovered: %+v", last)
	}
	if last.Degraded || last.ShardsLost != 0 {
		t.Errorf("recovered snapshot still degraded: %+v", last)
	}
	if last.LostMassLow != 0 || last.LostMassHigh != 0 {
		t.Errorf("recovered snapshot should omit lost-mass bounds: %+v", last)
	}
	if !last.Exact || last.Population != full || last.Samples != full {
		t.Errorf("recovered run should exhaust the full population %d: %+v", full, last)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var metrics map[string]any
	if err := json.NewDecoder(mresp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	if got := metrics["storm.engine.queries.recovered"]; got != float64(1) {
		t.Errorf("storm.engine.queries.recovered = %v, want 1", got)
	}
	if got := metrics["storm.distr.faults.readmits"]; got != float64(1) {
		t.Errorf("storm.distr.faults.readmits = %v, want 1", got)
	}
	_ = best
}

// TestStreamReportsFailover: at Replicas=2, killing the serving copy of
// the hottest shard mid-query fails the stream over to the survivor. The
// NDJSON final snapshot reports failed_over over the FULL population —
// exact, not degraded, no lost-mass bounds — and the failover counters
// are scrapable. /shards reports per-replica liveness (the dead copy
// down, the shard itself up), and polling it advances the dead copy's
// recovery clock until it rejoins.
func TestStreamReportsFailover(t *testing.T) {
	ds := gen.Uniform(12000, 5, geo.Range{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100, MinT: 0, MaxT: 100})
	rect := geo.NewRect(geo.Vec{20, 20, 0}, geo.Vec{60, 60, 100})

	// Probe an identically partitioned cluster for the shard with the most
	// matching records, so the crash window is always hit mid-query.
	probe, err := engine.New(engine.Config{Seed: 3}).Register(ds, engine.IndexOptions{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	target, best := 0, -1
	for i, sh := range probe.Cluster().Shards() {
		if n := sh.Index().Count(rect); n > best {
			target, best = i, n
		}
	}
	full := probe.Cluster().Count(rect)

	eng := engine.New(engine.Config{Seed: 3})
	plan := &distr.FaultPlan{Replicas: map[distr.ReplicaTarget]distr.ShardFaultPlan{
		{Shard: target, Replica: 0}: {Crash: true, CrashAfterFetches: 1, RecoverAfter: 4},
	}}
	if _, err := eng.Register(ds, engine.IndexOptions{Shards: 8, Replicas: 2, Faults: plan}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(eng))
	t.Cleanup(ts.Close)

	body := `{"statement": "ESTIMATE AVG(value) FROM uniform WHERE REGION(20,20,60,60) SAMPLES 1000000"}`
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d: %s", resp.StatusCode, raw)
	}
	var last SnapshotJSON
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
	}
	if !last.Done || !last.FailedOver {
		t.Fatalf("final snapshot should be done and failed over: %+v", last)
	}
	if last.Degraded || last.ShardsLost != 0 || last.Recovered {
		t.Errorf("failover must not surface as degradation or recovery: %+v", last)
	}
	if last.LostMassLow != 0 || last.LostMassHigh != 0 {
		t.Errorf("failed-over snapshot should omit lost-mass bounds: %+v", last)
	}
	if !last.Exact || last.Population != full || last.Samples != full {
		t.Errorf("failed-over run should exhaust the full population %d: %+v", full, last)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var metrics map[string]any
	if err := json.NewDecoder(mresp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	if got := metrics["storm.engine.queries.failed_over"]; got != float64(1) {
		t.Errorf("storm.engine.queries.failed_over = %v, want 1", got)
	}
	if got, _ := metrics["storm.distr.replicas.failovers"].(float64); got < 1 {
		t.Errorf("storm.distr.replicas.failovers = %v, want >= 1", metrics["storm.distr.replicas.failovers"])
	}
	if got := metrics["storm.engine.queries.degraded"]; got == float64(1) {
		t.Error("failover must not count as a degraded query")
	}

	// /shards: per-replica liveness rides on each shard entry, the shard
	// itself stays up (a copy survives), and each poll is a coordinator
	// observation — within RecoverAfter polls the dead copy rejoins.
	// (The query itself may already have advanced the clock; the poll
	// loop below tolerates finding the replica already back up.)
	getInfos := func() []ShardInfo {
		r, err := http.Get(ts.URL + "/shards")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		var infos []ShardInfo
		if err := json.NewDecoder(r.Body).Decode(&infos); err != nil {
			t.Fatal(err)
		}
		return infos
	}
	infos := getInfos()
	if len(infos) != 1 || len(infos[0].Shards) != 8 {
		t.Fatalf("/shards = %+v, want the one clustered dataset with 8 shards", infos)
	}
	if infos[0].ShardsDown != 0 {
		t.Errorf("shards_down = %d, want 0 (every shard kept a live copy)", infos[0].ShardsDown)
	}
	for _, st := range infos[0].Shards {
		if len(st.Replicas) != 2 {
			t.Fatalf("shard %d reports %d replicas, want 2: %+v", st.Shard, len(st.Replicas), st)
		}
		if st.Down {
			t.Errorf("shard %d marked down with a live copy: %+v", st.Shard, st)
		}
	}
	revived := false
	for i := 0; i < 10 && !revived; i++ {
		revived = true
		for _, st := range getInfos()[0].Shards {
			for _, rep := range st.Replicas {
				if rep.Down {
					revived = false
				}
			}
		}
	}
	if !revived {
		t.Error("dead replica never rejoined: /shards polls must advance the recovery clock")
	}
	_ = best
}

// TestLoadSheddingCapsStreams: with WithMaxStreams(1) and the single slot
// held, further NDJSON streams are shed with 429 + Retry-After and counted
// under storm.server.streams.shed; releasing the slot re-admits streams
// and non-streaming endpoints are never shed. The slot is pinned directly
// (same-package test) so the boundary is exercised deterministically — a
// real held stream's lifetime depends on query timing.
func TestLoadSheddingCapsStreams(t *testing.T) {
	eng := engine.New(engine.Config{Seed: 3})
	ds := gen.Uniform(20000, 5, geo.Range{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100, MinT: 0, MaxT: 100})
	if _, err := eng.Register(ds, engine.IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	srv := New(eng, WithMaxStreams(1))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	if !srv.acquireStream() {
		t.Fatal("first acquire should succeed")
	}

	// While the slot is held, concurrent streams are shed.
	quick := `{"statement": "ESTIMATE AVG(value) FROM uniform WHERE REGION(20,20,60,60) SAMPLES 100"}`
	const contenders = 4
	var wg sync.WaitGroup
	codes := make([]int, contenders)
	retryAfter := make([]string, contenders)
	for i := 0; i < contenders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(quick))
			if err != nil {
				return
			}
			defer r.Body.Close()
			io.Copy(io.Discard, r.Body)
			codes[i] = r.StatusCode
			retryAfter[i] = r.Header.Get("Retry-After")
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusTooManyRequests {
			t.Errorf("contender %d status = %d, want 429", i, code)
		}
		if retryAfter[i] == "" {
			t.Errorf("contender %d missing Retry-After", i)
		}
	}

	// Non-streaming endpoints are never shed.
	if r, err := http.Get(ts.URL + "/datasets"); err != nil || r.StatusCode != 200 {
		t.Errorf("GET /datasets under load: %v, %v", r, err)
	} else {
		r.Body.Close()
	}

	// Release the slot: the next stream is admitted.
	srv.releaseStream()
	r, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(quick))
	if err != nil {
		t.Fatal(err)
	}
	code := r.StatusCode
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if code != 200 {
		t.Errorf("post-release stream status = %d, want 200", code)
	}

	// Sheds are visible on /metrics.
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	var metrics map[string]any
	if err := json.NewDecoder(mr.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	if shed, _ := metrics["storm.server.streams.shed"].(float64); shed != contenders {
		t.Errorf("storm.server.streams.shed = %v, want %d", metrics["storm.server.streams.shed"], contenders)
	}
	if active, _ := metrics["storm.server.streams.active"].(float64); active != 0 {
		t.Errorf("storm.server.streams.active = %v after all streams closed", active)
	}
}

// TestAcquireStreamCAS: under contention, exactly maxStreams acquires
// succeed — the check-then-acquire is atomic.
func TestAcquireStreamCAS(t *testing.T) {
	eng := engine.New(engine.Config{Seed: 1, NoMetrics: true})
	srv := New(eng, WithMaxStreams(10))
	var wg sync.WaitGroup
	var granted atomic.Int64
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if srv.acquireStream() {
				granted.Add(1)
			}
		}()
	}
	wg.Wait()
	if granted.Load() != 10 {
		t.Errorf("granted %d slots, want 10", granted.Load())
	}
	// Unlimited servers never shed.
	open := New(eng)
	for i := 0; i < 1000; i++ {
		if !open.acquireStream() {
			t.Fatal("uncapped server shed a stream")
		}
	}
}

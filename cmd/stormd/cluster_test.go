package main

// The real-process cluster smoke test: build the stormd binary, spawn
// four -role=shard processes plus a coordinator, query through HTTP,
// kill one shard host mid-stream, and watch the cluster degrade and then
// recover once the host is restarted. This is the one test that runs the
// PR's whole stack — flag parsing, dataset regeneration on shard hosts,
// the wire protocol over real sockets, consistent-hash placement,
// /healthz and /shards, NDJSON degradation stamps — so it spawns real
// processes and is gated behind STORM_CLUSTER_TEST=1 (see `make
// test-cluster`).

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// genFlags keeps dataset generation small and, critically, identical on
// every process: shard hosts regenerate the datasets from these flags, so
// coordinator and hosts must agree on them exactly.
var genFlags = []string{"-osm", "150000", "-tweets", "20000", "-stations", "100", "-seed", "1"}

// proc is one spawned stormd process.
type proc struct {
	cmd  *exec.Cmd
	http string // HTTP base URL
	wire string // shard RPC address; empty for a coordinator
}

// startupLines forwards a child's stderr to the test's and hands its first
// startup line — the one naming the addresses it bound — to ready.
type startupLines struct {
	buf   []byte
	ready chan string
}

func (w *startupLines) Write(b []byte) (int, error) {
	os.Stderr.Write(b)
	w.buf = append(w.buf, b...)
	for {
		line, rest, ok := bytes.Cut(w.buf, []byte("\n"))
		if !ok {
			return len(b), nil
		}
		w.buf = rest
		if bytes.HasPrefix(line, []byte("stormd: listening on ")) ||
			bytes.HasPrefix(line, []byte("stormd: shard host serving RPC on ")) {
			select {
			case w.ready <- string(line):
			default:
			}
		}
	}
}

// spawn starts stormd and waits up to timeout for its startup line. The
// address flags ask for port 0 (a restarted host's recorded wire address
// aside), so each child binds its own ports and reports them: no port is
// picked in the test and freed for another process to take before the
// child binds it.
func spawn(t *testing.T, bin string, timeout time.Duration, args ...string) *proc {
	t.Helper()
	out := &startupLines{ready: make(chan string, 1)}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = out
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting %s %v: %v", bin, args, err)
	}
	p := &proc{cmd: cmd}
	t.Cleanup(func() {
		if p.cmd.Process != nil {
			p.cmd.Process.Kill()
			p.cmd.Wait()
		}
	})
	var line string
	select {
	case line = <-out.ready:
	case <-time.After(timeout):
		t.Fatalf("%s %v printed no startup line within %v", bin, args, timeout)
	}
	if rest, ok := strings.CutPrefix(line, "stormd: shard host serving RPC on "); ok {
		wire, web, _ := strings.Cut(rest, ", HTTP on ")
		p.wire, p.http = wire, "http://"+web
	} else {
		p.http = "http://" + strings.TrimPrefix(line, "stormd: listening on ")
	}
	return p
}

func waitHealthz(t *testing.T, url string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("%s/healthz never answered 200 within %v", url, timeout)
}

// shardInfo mirrors server.ShardInfo (decoded from coordinator /shards).
type shardInfo struct {
	Dataset    string `json:"dataset"`
	Remote     bool   `json:"remote"`
	ShardsDown int    `json:"shards_down"`
	Shards     []struct {
		Shard    int    `json:"shard"`
		Addr     string `json:"addr"`
		Down     bool   `json:"down"`
		Replicas []struct {
			Replica int    `json:"replica"`
			Addr    string `json:"addr"`
			Down    bool   `json:"down"`
		} `json:"replicas"`
	} `json:"shards"`
}

func getShards(t *testing.T, base string) []shardInfo {
	t.Helper()
	resp, err := http.Get(base + "/shards")
	if err != nil {
		t.Fatalf("GET /shards: %v", err)
	}
	defer resp.Body.Close()
	var infos []shardInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatalf("decoding /shards: %v", err)
	}
	return infos
}

// snapshotLine is the subset of the NDJSON snapshot schema the smoke test
// asserts on.
type snapshotLine struct {
	Done       bool    `json:"done"`
	Exact      bool    `json:"exact"`
	Degraded   bool    `json:"degraded"`
	Recovered  bool    `json:"recovered"`
	FailedOver bool    `json:"failed_over"`
	ShardsLost int     `json:"shards_lost"`
	Population int     `json:"population"`
	Samples    int     `json:"samples"`
	Value      float64 `json:"value"`
}

// estimate POSTs the statement and returns the final snapshot; when
// midStream is non-nil it runs after the first NDJSON line, with the
// stream still open.
func estimate(t *testing.T, base, statement string, midStream func()) snapshotLine {
	t.Helper()
	body := fmt.Sprintf(`{"statement": %q}`, statement)
	resp, err := http.Post(base+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /query: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /query = %d", resp.StatusCode)
	}
	var last snapshotLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	first := true
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if first && midStream != nil {
			midStream()
		}
		first = false
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading NDJSON stream: %v", err)
	}
	if !last.Done {
		t.Fatalf("stream ended without a done snapshot: %+v", last)
	}
	return last
}

func TestClusterSmoke(t *testing.T) {
	if os.Getenv("STORM_CLUSTER_TEST") == "" {
		t.Skip("set STORM_CLUSTER_TEST=1 to run the real-process cluster smoke test")
	}

	bin := filepath.Join(t.TempDir(), "stormd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building stormd: %v\n%s", err, out)
	}

	// Four shard hosts: wire RPC port + HTTP healthz port each.
	const hosts = 4
	shard := func(wireAddr string) *proc {
		p := spawn(t, bin, 60*time.Second, append([]string{
			"-role=shard", "-wire-addr", wireAddr, "-addr", "127.0.0.1:0",
		}, genFlags...)...)
		waitHealthz(t, p.http, 10*time.Second)
		return p
	}
	wireAddrs := make([]string, hosts)
	shardProcs := make([]*proc, hosts)
	for i := range shardProcs {
		shardProcs[i] = shard("127.0.0.1:0")
		wireAddrs[i] = shardProcs[i].wire
	}

	// Coordinator: registration blocks on remote shard builds, and it
	// listens only after, so give its startup line a generous deadline.
	coordinator := func(extra ...string) *proc {
		p := spawn(t, bin, 180*time.Second, append(append([]string{
			"-role=coordinator", "-shards", strings.Join(wireAddrs, ","),
			"-addr", "127.0.0.1:0", "-no-pprof",
		}, extra...), genFlags...)...)
		waitHealthz(t, p.http, 10*time.Second)
		return p
	}
	coord := coordinator()

	// Placement sanity: every dataset runs remote with 4 healthy shards.
	infos := getShards(t, coord.http)
	if len(infos) != 3 {
		t.Fatalf("/shards lists %d datasets, want 3", len(infos))
	}
	for _, info := range infos {
		if !info.Remote || info.ShardsDown != 0 || len(info.Shards) != 4 {
			t.Fatalf("unhealthy cluster before faults: %+v", info)
		}
	}

	// Healthy baseline: exhaustive exact AVG over the whole space. The
	// SAMPLES cap keeps it a stream a host can be killed under (uncapped,
	// the count round would answer it exactly).
	const stmt = "ESTIMATE AVG(altitude) FROM osm WHERE REGION(-180,-90,180,90) WITH ERROR 0.0001% SAMPLES 100000000"
	healthy := estimate(t, coord.http, stmt, nil)
	if !healthy.Exact || healthy.Degraded || healthy.Population == 0 {
		t.Fatalf("healthy baseline: %+v", healthy)
	}

	// Find a host serving osm shards and kill it mid-stream: the open
	// query must lose its shards, degrade onto the survivors, and still
	// complete.
	var victim *proc
	var victimIdx int
	for _, info := range infos {
		if info.Dataset != "osm" {
			continue
		}
		for i, addr := range wireAddrs {
			if addr == info.Shards[0].Addr {
				victim, victimIdx = shardProcs[i], i
			}
		}
	}
	if victim == nil {
		t.Fatal("no spawned host serves osm shard 0")
	}
	degraded := estimate(t, coord.http, stmt, func() {
		victim.cmd.Process.Kill()
		victim.cmd.Wait()
	})
	if !degraded.Degraded || degraded.ShardsLost == 0 {
		t.Fatalf("mid-stream host kill not reflected: %+v", degraded)
	}
	if degraded.Population >= healthy.Population {
		t.Fatalf("degraded population %d not shrunk from %d", degraded.Population, healthy.Population)
	}

	// The coordinator's /shards view marks the dead host's shards down.
	down := 0
	for _, info := range getShards(t, coord.http) {
		down += info.ShardsDown
	}
	if down == 0 {
		t.Fatal("/shards reports no shards down after host kill")
	}

	// Restart the host on its recorded wire address (a fresh empty
	// process; the coordinator re-admits a shard where it placed it), wait
	// for the coordinator's probes to re-admit its shards, and check the
	// next query heals: the restarted host rebuilds its shards over the
	// wire and the full population comes back.
	restarted := shard(wireAddrs[victimIdx])
	deadline := time.Now().Add(120 * time.Second)
	for {
		down = 0
		for _, info := range getShards(t, coord.http) {
			down += info.ShardsDown
		}
		if down == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d shards still down after host restart", down)
		}
		time.Sleep(200 * time.Millisecond)
	}
	recovered := estimate(t, coord.http, stmt, nil)
	if recovered.Degraded || !recovered.Exact {
		t.Fatalf("post-restart query still degraded: %+v", recovered)
	}
	if recovered.Population != healthy.Population {
		t.Fatalf("recovered population = %d, want the healthy %d", recovered.Population, healthy.Population)
	}
	// Both runs are exact over the same records; only the accumulation
	// order differs, so the means agree to float tolerance.
	if math.Abs(recovered.Value-healthy.Value) > 1e-6 {
		t.Fatalf("recovered exact AVG = %v, want the healthy %v", recovered.Value, healthy.Value)
	}

	// Replication phase (DESIGN.md §4.8): a second coordinator over the
	// same four hosts at -replicas 2. Shard builds are idempotent on the
	// hosts, so the replicated cluster comes up against live processes.
	// Killing one host mid-stream now loses one COPY of its shards, not
	// the shards themselves: the open query must fail over to the
	// surviving replicas and finish exact over the full population — no
	// degradation, no lost mass.
	procs := make([]*proc, hosts)
	copy(procs, shardProcs)
	procs[victimIdx] = restarted
	coord2 := coordinator("-replicas", "2")

	// Pick the host serving a copy of osm shard 0 (the primary's address)
	// and kill it mid-stream.
	var victim2 *proc
	for _, info := range getShards(t, coord2.http) {
		if info.Dataset != "osm" {
			continue
		}
		for i, addr := range wireAddrs {
			if addr == info.Shards[0].Addr {
				victim2 = procs[i]
			}
		}
	}
	if victim2 == nil {
		t.Fatal("no spawned host serves a copy of osm shard 0 at R=2")
	}
	failedOver := estimate(t, coord2.http, stmt, func() {
		victim2.cmd.Process.Kill()
		victim2.cmd.Wait()
	})
	if failedOver.Degraded || failedOver.ShardsLost != 0 {
		t.Fatalf("R=2 host kill degraded the query instead of failing over: %+v", failedOver)
	}
	if !failedOver.FailedOver {
		t.Fatalf("R=2 host kill not stamped failed_over: %+v", failedOver)
	}
	if !failedOver.Exact || failedOver.Population != healthy.Population {
		t.Fatalf("failed-over query not exact over the full population: %+v (healthy population %d)",
			failedOver, healthy.Population)
	}
	if math.Abs(failedOver.Value-healthy.Value) > 1e-6 {
		t.Fatalf("failed-over exact AVG = %v, want the healthy %v", failedOver.Value, healthy.Value)
	}

	// With one host dead at R=2 every shard still has a live copy, so the
	// coordinator's shard-level view stays healthy: /shards reports zero
	// shards down even as the per-replica flags mark the dead copies.
	downShards, downReplicas := 0, 0
	for _, info := range getShards(t, coord2.http) {
		downShards += info.ShardsDown
		for _, sh := range info.Shards {
			for _, rep := range sh.Replicas {
				if rep.Down {
					downReplicas++
				}
			}
		}
	}
	if downShards != 0 {
		t.Fatalf("/shards reports %d whole shards down at R=2 with one host dead", downShards)
	}
	if downReplicas == 0 {
		t.Fatal("/shards reports no replicas down after R=2 host kill")
	}
}

// Command stormd serves STORM's query interface over HTTP, standing in for
// the paper's web demo (www.estorm.org). It preloads the synthetic demo
// datasets and listens for query-language statements.
//
//	stormd -addr :8080 -osm 500000 -tweets 300000
//
//	curl localhost:8080/datasets
//	curl -d '{"statement":"ESTIMATE AVG(altitude) FROM osm WHERE REGION(-112.4,40.2,-111.4,41.2) WITH ERROR 1%"}' localhost:8080/query
//	curl 'localhost:8080/explain?q=COUNT%20FROM%20osm'
//
// Observability (see DESIGN.md "Observability"):
//
//	curl localhost:8080/metrics              engine + server metrics (expvar JSON)
//	curl localhost:8080/healthz              liveness probe (every role)
//	go tool pprof localhost:8080/debug/pprof/profile?seconds=10
//	curl localhost:8080/debug/pprof/         pprof index
//
// -no-metrics disables metric collection; -no-pprof leaves the profiling
// endpoints unmounted (for exposed deployments).
//
// Cluster mode (see DESIGN.md §4.4): shards can run as real processes.
// A shard host serves its shards over TCP and a coordinator samples
// through them:
//
//	stormd -role=shard -wire-addr :9090 -addr :8090
//	stormd -role=shard -wire-addr :9091 -addr :8091
//	stormd -role=coordinator -shards localhost:9090,localhost:9091
//
// An address flag may name port 0: the process binds a free port and its
// startup line on stderr prints the addresses it bound. The next line
// gives boot timings: the milliseconds spent generating the datasets and,
// on a coordinator or single node, registering them.
//
// Shard hosts regenerate the demo datasets from the same generator flags
// (-seed, -osm, -tweets, -stations), so both sides hold identical rows
// and only sample batches ever cross the wire. A shard host binds both
// ports and prints its startup line first, answers /healthz at once, and
// serves its RPC port once its datasets exist: a coordinator started
// alongside generates its own copy meanwhile, and its Builds wait in the
// host's accept queue. The coordinator's /shards endpoint reports
// per-shard placement and liveness; /healthz answers on every role, and on
// a coordinator only once every dataset is registered. An integer -shards
// value instead builds the simulated in-process cluster:
//
//	stormd -shards 8
//
// Fault tolerance (see DESIGN.md §4.3 and the README operator handbook):
//
//	stormd -shards 8 -fault-plan '2:crash-after=40;5:crash-after=80'
//	stormd -shards 8 -fault-plan '2:crash-after=40,recover-after=6'
//
// -fault-plan injects deterministic shard faults (latency spikes,
// timeouts, transient errors, crashes) at the coordinator's transport
// layer — the same plan drives in-process and remote clusters — whose
// effects surface as storm.distr.faults.* on /metrics and as
// "degraded": true in NDJSON query streams. A crash with recover-after=N
// rejoins after N coordinator observations of the down shard: in-flight
// queries re-admit it, restore the full effective population, and stamp
// "recovered": true instead of degraded. While a shard stays down,
// degraded AVG/SUM snapshots also carry worst-case lost_mass_low/high
// bounds on the full-population answer. -max-streams caps concurrent
// NDJSON streams; excess requests are shed with 429 + Retry-After.
//
// Replication (see DESIGN.md §4.8): -replicas R keeps R copies of every
// shard on distinct hosts (consistent-hash placement). Updates mirror to
// every copy, and when the copy serving a query dies the coordinator
// fails the stream over to a survivor — the query finishes over the full
// population and stamps "failed_over": true instead of degrading:
//
//	stormd -shards localhost:9090,localhost:9091,localhost:9092 -replicas 2 -role=coordinator
//	stormd -shards 8 -replicas 2 -fault-plan '2.0:crash-after=40'
//
// A fault-plan target like '2.0' scripts one replica (shard 2, copy 0);
// a plain '2' applies to every copy of shard 2 independently, so a plain
// crash at R=2 still degrades — both copies die. /shards reports
// per-replica placement and liveness; failover counters land under
// storm.distr.replicas.* on /metrics.
//
// Streaming ingest (see INGEST.md): POST /ingest/{name} accepts NDJSON
// records into sharded in-memory buffers that drain to the indexes in
// the background, and the LAST clause queries the stream's trailing
// event-time window:
//
//	curl -X POST --data-binary @feed.ndjson localhost:8080/ingest/osm
//	curl -d '{"statement":"SELECT COUNT FROM osm LAST 60s"}' localhost:8080/query
//
// -ingest-shards, -ingest-flush-records, -ingest-flush-interval and
// -ingest-max-pending template the per-dataset buffers; when the drain
// backlog reaches -ingest-max-pending the endpoint answers 429 +
// Retry-After with an exact accepted count so producers can resume
// without loss or duplication. Ingest metrics land under
// storm.ingest.<dataset>.* on /metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"storm/internal/data"
	"storm/internal/distr"
	"storm/internal/engine"
	"storm/internal/gen"
	"storm/internal/ingest"
	"storm/internal/server"
	"storm/internal/wire"
)

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	role := flag.String("role", "", "process role: empty/'coordinator' serves queries, 'shard' serves shards over TCP on -wire-addr")
	wireAddr := flag.String("wire-addr", ":9090", "shard RPC listen address (-role=shard)")
	osmN := flag.Int("osm", 500_000, "OSM-like records")
	tweetN := flag.Int("tweets", 300_000, "tweet-like records")
	stations := flag.Int("stations", 2_000, "weather stations")
	seed := flag.Int64("seed", 1, "generator seed")
	pool := flag.Int("pool", 0, "simulated buffer pool pages (0 disables I/O simulation)")
	noMetrics := flag.Bool("no-metrics", false, "disable metric collection and /metrics")
	noPprof := flag.Bool("no-pprof", false, "do not mount /debug/pprof/")
	shardsFlag := flag.String("shards", "", "shard cluster: an integer builds a cluster of in-process shard hosts, a comma-separated host:port list samples through remote -role=shard processes (empty = single node)")
	replicas := flag.Int("replicas", 1, "copies of each shard (requires -shards; R>=2 mirrors updates and fails queries over to surviving copies)")
	faultSpec := flag.String("fault-plan", "", "shard fault plan, e.g. '1:crash-after=40,recover-after=6;*:latency-p=0.05,latency=2ms' (requires -shards)")
	faultSeed := flag.Int64("fault-seed", 1, "seed for probabilistic fault injection")
	maxStreams := flag.Int("max-streams", 0, "max concurrent NDJSON query streams; excess shed with 429 (0 = unlimited)")
	ingestShards := flag.Int("ingest-shards", 8, "buffer shards per dataset behind POST /ingest")
	ingestFlushRecords := flag.Int("ingest-flush-records", 4096, "drain early once any ingest buffer shard holds this many records")
	ingestFlushInterval := flag.Duration("ingest-flush-interval", 25*time.Millisecond, "idle drain period for POST /ingest buffers (worst-case queryability lag)")
	ingestMaxPending := flag.Int("ingest-max-pending", 1<<19, "max records buffered per dataset before POST /ingest returns 429")
	flag.Parse()

	genDatasets := func() []*data.Dataset {
		fmt.Fprintln(os.Stderr, "stormd: generating demo datasets...")
		tweets, _ := gen.Tweets(gen.TweetsConfig{N: *tweetN, Seed: *seed, Snowstorm: true})
		return []*data.Dataset{
			gen.OSM(gen.OSMConfig{N: *osmN, Seed: *seed}),
			tweets,
			gen.Stations(gen.StationsConfig{Stations: *stations, ReadingsPerStation: 48, Seed: *seed, ColdSnap: true}),
		}
	}

	if *role == "shard" {
		runShard(*addr, *wireAddr, genDatasets)
		return
	}
	if *role != "" && *role != "coordinator" {
		log.Fatalf("stormd: unknown -role %q (want 'shard' or 'coordinator')", *role)
	}

	simShards, shardAddrs, err := parseShards(*shardsFlag)
	if err != nil {
		log.Fatalf("stormd: %v", err)
	}
	if *role == "coordinator" && len(shardAddrs) == 0 {
		log.Fatal("stormd: -role=coordinator needs -shards=host:port,… naming the shard processes")
	}

	if *replicas > 1 && simShards == 0 && len(shardAddrs) == 0 {
		log.Fatal("stormd: -replicas requires -shards")
	}

	faults, err := distr.ParseFaultPlan(*faultSpec)
	if err != nil {
		log.Fatalf("stormd: %v", err)
	}
	if faults != nil {
		if simShards == 0 && len(shardAddrs) == 0 {
			log.Fatal("stormd: -fault-plan requires -shards")
		}
		faults.Seed = *faultSeed
	}

	eng := engine.New(engine.Config{Seed: *seed, BufferPoolPages: *pool, NoMetrics: *noMetrics})
	start := time.Now()
	datasets := genDatasets()
	generated := time.Now()
	for _, ds := range datasets {
		opts := engine.IndexOptions{Shards: simShards, ShardAddrs: shardAddrs, Replicas: *replicas, Faults: faults}
		if _, err := eng.Register(ds, opts); err != nil {
			log.Fatalf("stormd: registering %s: %v", ds.Name(), err)
		}
	}
	registered := time.Now()

	// The API server (including /metrics) mounts at the root; the pprof
	// handlers are wired explicitly onto a top-level mux rather than via
	// net/http/pprof's DefaultServeMux side effects, so nothing is served
	// that was not deliberately mounted here.
	mux := http.NewServeMux()
	mux.Handle("/", server.New(eng,
		server.WithMaxStreams(*maxStreams),
		server.WithIngestConfig(ingest.Config{
			Shards:        *ingestShards,
			FlushRecords:  *ingestFlushRecords,
			FlushInterval: *ingestFlushInterval,
			MaxPending:    *ingestMaxPending,
		})))
	if !*noPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "stormd: listening on %s\n", ln.Addr())
	fmt.Fprintf(os.Stderr, "stormd: boot: generate %d ms, register %d ms\n",
		generated.Sub(start).Milliseconds(), registered.Sub(generated).Milliseconds())
	log.Fatal(http.Serve(ln, mux))
}

// parseShards interprets the -shards flag: empty means single node, an
// integer means that many shards on in-process shard hosts, anything else is a
// comma-separated list of remote shard-host addresses.
func parseShards(s string) (sim int, addrs []string, err error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil, nil
	}
	if n, convErr := strconv.Atoi(s); convErr == nil {
		if n < 0 {
			return 0, nil, fmt.Errorf("-shards %d out of range", n)
		}
		return n, nil, nil
	}
	for _, a := range strings.Split(s, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			return 0, nil, fmt.Errorf("-shards %q has an empty host entry", s)
		}
		addrs = append(addrs, a)
	}
	return 0, addrs, nil
}

// runShard binds the shard host's wire and HTTP ports and serves them
// (serveShard). It prints its startup line as soon as both are bound, so
// the line comes before the datasets exist.
func runShard(addr, wireAddr string, generate func() []*data.Dataset) {
	wireLn, err := net.Listen("tcp", wireAddr)
	if err != nil {
		log.Fatalf("stormd: shard RPC listen: %v", err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "stormd: shard host serving RPC on %s, HTTP on %s\n", wireLn.Addr(), ln.Addr())
	log.Fatal(serveShard(ln, wireLn, generate))
}

// serveShard runs a shard host on two bound listeners. /healthz on httpLn
// answers from the start: it is liveness, and it reports how many datasets
// are loaded and how many shards are built. The host then generates its
// datasets and only after that serves the wire protocol on wireLn, so a
// coordinator's Build that arrives early waits in the accept queue until
// the data exists and is answered then, never refused; generation overlaps
// the coordinator's own start. Which shards the host materializes, and
// which records each holds, the coordinators' Build requests name.
// serveShard returns when HTTP serving fails.
func serveShard(httpLn, wireLn net.Listener, generate func() []*data.Dataset) error {
	host := distr.NewHost()
	var loaded atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"status":   "ok",
			"role":     "shard",
			"datasets": loaded.Load(),
			"shards":   host.Shards(),
		})
	})
	go func() {
		start := time.Now()
		datasets := generate()
		for _, ds := range datasets {
			host.AddDataset(ds)
		}
		loaded.Store(int64(len(datasets)))
		fmt.Fprintf(os.Stderr, "stormd: shard host boot: generate %d ms\n", time.Since(start).Milliseconds())
		wire.Serve(wireLn, host)
	}()
	return http.Serve(httpLn, mux)
}

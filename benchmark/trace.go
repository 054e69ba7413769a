package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"storm/internal/data"
	"storm/internal/distr"
	"storm/internal/engine"
	"storm/internal/estimator"
	"storm/internal/gen"
	"storm/internal/ingest"
	"storm/internal/query"
	"storm/internal/sampling"
	"storm/internal/server"
	"storm/internal/wire"
)

// The traced run. Counts come from /metrics deltas of the spawned stormd
// over the measured phases; times come from spans this file records around
// calls into each layer's public functions while it replays the first
// traceInputs generated inputs against an in-process copy of the topology.
// No span is recorded inside the program under test.

// span is one timed call: Parent is the span that caused it (0 = none) and
// Req the replayed input it belongs to. Times are ns since the tracer began.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A disabled tracer hands
// out id 0 and records nothing, which is the untraced replay.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	on    bool
	// active is the span other goroutines' spans attach to: the in-process
	// shard hosts serve a request on their own goroutine and parent their
	// Host.Handle span to whatever call the replay is inside. req is the
	// input being replayed.
	active atomic.Int64
	req    atomic.Int64
}

func newTracer(on bool) *tracer { return &tracer{t0: time.Now(), on: on} }

func (t *tracer) start(name string, parent int) int {
	if !t.on {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: int(t.req.Load()), Name: name, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// dur returns the duration of an ended span.
func (t *tracer) dur(id int) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1].dur()
}

// call records fn as a child of parent and makes it the span that other
// goroutines' spans attach to while it runs.
func (t *tracer) call(name string, parent int, fn func()) {
	id := t.start(name, parent)
	prev := t.active.Swap(int64(id))
	fn()
	t.active.Store(prev)
	t.end(id)
}

// selfTimes returns each span's duration minus the part of its interval that
// its child spans cover (overlapping children are not counted twice).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// discard is the response recorder of the in-process replay: it counts bytes
// and flushes to nowhere, so server.ServeHTTP runs its full encode path.
type discard struct {
	header http.Header
	bytes  int
}

func (d *discard) Header() http.Header { return d.header }
func (d *discard) Write(p []byte) (int, error) {
	d.bytes += len(p)
	return len(p), nil
}
func (d *discard) WriteHeader(int) {}
func (d *discard) Flush()          {}

// tracedHost wraps an in-process shard host: every request it serves
// becomes a span under the replay's active call, and the first keep
// request/response pairs are kept for the codec and round-trip replays.
type tracedHost struct {
	host *distr.Host
	tr   *tracer
	mu   sync.Mutex
	keep int
	reqs []wire.Msg
	resp []wire.Msg
}

func (h *tracedHost) Handle(m wire.Msg) wire.Msg {
	id := h.tr.start("distr.Host.Handle", int(h.tr.active.Load()))
	out := h.host.Handle(m)
	h.tr.end(id)
	h.mu.Lock()
	if len(h.reqs) < h.keep {
		if e, ok := out.(*wire.Entries); ok {
			// The host answers fetches from a per-stream scratch slice.
			out = &wire.Entries{Entries: append([]data.Entry(nil), e.Entries...)}
		}
		h.reqs, h.resp = append(h.reqs, m), append(h.resp, out)
	}
	h.mu.Unlock()
	return out
}

// replica is the in-process copy of the workload's topology.
type replica struct {
	eng    *engine.Engine
	h      *engine.Handle
	srv    *server.Server
	hosts  []*tracedHost
	wires  []*wire.Server
	regS   float64
	closer []func()
}

func (r *replica) close() {
	for i := len(r.closer) - 1; i >= 0; i-- {
		r.closer[i]()
	}
}

// newReplica registers the regenerated dataset with the workload's options:
// the same pool size, LS-tree on, and for the cluster workload two in-process
// shard hosts behind wire.NewServer on loopback ports at -replicas 2.
func newReplica(in *inputs, tr *tracer) (*replica, error) {
	r := &replica{}
	opts := engine.IndexOptions{LSTree: true}
	if in.w.Cluster {
		for i := 0; i < 2; i++ {
			host := distr.NewHost()
			host.AddDataset(gen.OSM(gen.OSMConfig{N: in.w.OSM, Seed: datasetSeed}))
			th := &tracedHost{host: host, tr: tr, keep: 4096}
			ws, err := wire.NewServer("127.0.0.1:0", th)
			if err != nil {
				r.close()
				return nil, fmt.Errorf("in-process shard host: %w", err)
			}
			r.closer = append(r.closer, func() { ws.Close() })
			r.hosts, r.wires = append(r.hosts, th), append(r.wires, ws)
			opts.ShardAddrs = append(opts.ShardAddrs, ws.Addr())
		}
		opts.Replicas = 2
	}
	r.eng = engine.New(engine.Config{Seed: datasetSeed, BufferPoolPages: in.w.Pool})
	start := time.Now()
	h, err := r.eng.Register(in.ds, opts)
	if err != nil {
		r.close()
		return nil, fmt.Errorf("registering the dataset in-process: %w", err)
	}
	r.regS = time.Since(start).Seconds()
	r.h = h
	r.srv = server.New(r.eng)
	r.closer = append(r.closer, func() { r.srv.Close() })
	return r, nil
}

func (r *replica) serve(s *statement) error {
	req, err := http.NewRequest(http.MethodPost, "/query", bytes.NewReader(s.Body))
	if err != nil {
		return err
	}
	w := &discard{header: http.Header{}}
	r.srv.ServeHTTP(w, req)
	if w.bytes == 0 {
		return fmt.Errorf("in-process ServeHTTP wrote nothing for: %s", s.Text)
	}
	return nil
}

// replay runs one input through the real handler and then layer by layer,
// recording a span around each call. The layer calls repeat the work
// ServeHTTP just did (with an explicit seed), so their spans are siblings of
// the ServeHTTP span under one request span, not its children.
func (r *replica) replay(tr *tracer, i int, s *statement, forced bool, out *traceTimes) error {
	tr.req.Store(int64(i))
	root := tr.start("request", 0)
	defer tr.end(root)
	var err error
	tr.call("server.ServeHTTP", root, func() { err = r.serve(s) })
	if err != nil {
		return err
	}

	var q *query.Query
	tr.call("query.Parse", root, func() { q, err = query.Parse(s.Text) })
	if err != nil {
		return fmt.Errorf("query.Parse: %w", err)
	}
	opts := engine.Options{
		Kind: q.Agg, Attr: q.Attr, QuantileP: q.QuantileP, MaxSamples: q.Samples,
		Method: q.Method, Where: q.Where, Last: q.Last, Seed: int64(1000 + i),
	}
	contract := engine.Contract{RelError: q.RelError, Confidence: q.Confidence, Deadline: q.Within}
	rng := q.Range()
	if q.Last > 0 {
		rng = r.h.WindowRange(rng, q.Last)
	}
	tr.call("engine.plan", root, func() {
		if q.Contract {
			_, err = r.h.ExplainContract(q.Range(), opts, contract)
		} else {
			_, err = r.h.ExplainWhere(rng, q.Where, engine.PushdownAuto)
		}
	})
	if err != nil {
		return fmt.Errorf("explain: %w", err)
	}

	var snaps []engine.Snapshot
	tr.call("engine.EstimateOnline", root, func() {
		if q.Contract {
			var res engine.ContractResult
			if res, err = r.h.EstimateContract(context.Background(), q.Range(), opts, contract); err == nil {
				snaps = append(snaps, res.Snapshot)
			}
			return
		}
		opts.Confidence, opts.TargetRelError, opts.TimeBudget = q.Confidence, q.RelError, q.Within
		var ch <-chan engine.Snapshot
		if ch, err = r.h.EstimateOnline(context.Background(), q.Range(), opts); err == nil {
			for snap := range ch {
				snaps = append(snaps, snap)
			}
		}
	})
	if err != nil || len(snaps) == 0 {
		return fmt.Errorf("estimate returned %d snapshots, err %v: %s", len(snaps), err, s.Text)
	}
	final := snaps[len(snaps)-1]

	tr.call("server.encode", root, func() {
		enc := json.NewEncoder(io.Discard)
		for _, snap := range snaps {
			_ = enc.Encode(snapshotJSON(snap)) // io.Discard cannot fail; finite values always encode
		}
	})

	k := final.Samples
	method := engine.Auto
	if len(r.hosts) > 0 {
		method = engine.MethodDistributed
	}
	var entries []data.Entry
	if k > 0 {
		tr.call("sampling.Sample", root, func() {
			entries, err = r.h.Sample(rng, k, method, sampling.WithoutReplacement, opts.Seed)
		})
		if err != nil {
			return fmt.Errorf("Handle.Sample: %w", err)
		}
		col, cerr := r.h.Data().NumericColumn(q.Attr)
		if cerr != nil {
			return cerr
		}
		tr.call("estimator.Add", root, func() {
			est := estimator.MustNew(q.Agg, 0.95, final.Population, true)
			for j, e := range entries {
				est.Add(col[e.ID])
				if (j+1)%64 == 0 { // the engine reports, and so snapshots, every 64 samples
					est.Snapshot()
				}
			}
		})
	}
	out.samples = append(out.samples, k)

	if forced && k > 0 {
		kf := min(k, 2000)
		for _, f := range forcedMethods {
			id := tr.start("sampling.Sample."+f.name, root)
			got, err := r.h.Sample(rng, kf, f.method, sampling.WithoutReplacement, opts.Seed)
			tr.end(id)
			if err != nil {
				return fmt.Errorf("Handle.Sample forced to %s: %w", f.name, err)
			}
			if len(got) > 0 {
				out.forcedUS[f.name] = append(out.forcedUS[f.name], float64(tr.dur(id))/1e3/float64(len(got)))
			}
		}
	}
	return nil
}

// forcedMethods are the samplers sampling.draw_us_per_sample.<name> forces.
var forcedMethods = []struct {
	name   string
	method engine.Method
}{
	{"rstree", engine.MethodRSTree},
	{"lstree", engine.MethodLSTree},
	{"samplefirst", engine.MethodSampleFirst},
}

// snapshotJSON fills the wire form of a snapshot the way package server
// does, for timing the per-snapshot encode on its own.
func snapshotJSON(s engine.Snapshot) server.SnapshotJSON {
	return server.SnapshotJSON{
		Kind: s.Kind.String(), Value: s.Value, HalfWidth: s.HalfWidth, Confidence: s.Confidence,
		Samples: s.Samples, Population: s.Population, Exact: s.Exact,
		ElapsedMS: float64(s.Elapsed) / float64(time.Millisecond), Sampler: s.Method,
		IOReads: s.IO.Reads, IOHits: s.IO.Hits, IOLogical: s.IO.Logical, IOCoalesced: s.IO.Coalesced,
		RejectRatio: s.RejectRatio, Windowed: s.Windowed, WindowLo: s.WindowLo, WindowHi: s.WindowHi, Done: s.Done,
	}
}

// traceTimes is what the replay keeps besides the spans.
type traceTimes struct {
	samples  []int                // samples each input's estimate drew
	forcedUS map[string][]float64 // us per sample of each forced-method draw
}

// nopSink swallows drained batches: AppendBatch is timed without an index.
type nopSink struct{}

func (nopSink) InsertBatch(rows []data.Row) []data.ID { return make([]data.ID, len(rows)) }

// replaySize is how much the in-process replay does; tests shrink it.
type replaySize struct {
	// inputs is the number of generated inputs replayed; insertChunks the
	// number of 4096-row chunks timed through AppendBatch and InsertBatch.
	inputs, insertChunks int
}

var fullReplay = replaySize{inputs: traceInputs, insertChunks: 16}

// traceRun produces every per-layer metric of one traced run.
func traceRun(root string, in *inputs, o *outcome, client *table, timings map[string]timing, size replaySize) (map[string]value, error) {
	layers := newTable(spec.PerLayer)
	set := layers.set
	for name := range layers.vals { // the client metrics BENCHMARK.json lists per layer, and the tails
		if v := client.vals[name]; v.N > 0 {
			layers.vals[name] = v
		}
	}
	setCounts(set, in, o, timings)
	if err := setTimes(set, root, in, timings, size); err != nil {
		return nil, err
	}
	return layers.vals, nil
}

// setCounts fills the count metrics: /metrics deltas of the spawned stormd
// between phase boundaries, and what the client saw of the read phase.
func setCounts(set func(string, float64, int), in *inputs, o *outcome, timings map[string]timing) {
	phase := map[phaseKind]expvars{}
	for i, p := range in.w.Phases {
		phase[p.Kind] = delta(o.scrapes[i], o.scrapes[i+1])
	}
	all := delta(o.scrapes[0], o.scrapes[len(o.scrapes)-1])
	rd, sat := phase[phaseRead], phase[phaseSaturate]
	queries := rd.num("storm.server.queries")
	done := rd.num("storm.engine.queries.done")
	drawn := rd.num("storm.engine.samples.drawn")
	var respBytes, rejects []float64
	for _, ob := range o.read {
		respBytes = append(respBytes, float64(ob.res.Bytes))
		rejects = append(rejects, ob.res.Final.Reject)
	}
	set("server.snapshots_per_query", ratio(rd.num("storm.server.snapshots"), queries), int(queries))
	set("server.resp_bytes_per_query", ratio(sum(respBytes), float64(len(respBytes))), len(respBytes))
	set("server.shed", all.num("storm.server.streams.shed"), 1)
	set("engine.contracts_met", all.num("storm.engine.contracts.met"), 1)
	set("engine.contracts_degraded", all.num("storm.engine.contracts.degraded"), 1)
	set("engine.contracts_missed", all.num("storm.engine.contracts.missed"), 1)
	set("engine.contracts_cold_plans", all.num("storm.engine.contracts.cold_plans"), 1)
	set("pred.pruned_nodes_per_query", ratio(rd.num("storm.engine.pushdown.pruned_nodes"), queries), int(queries))
	set("pred.reject_ratio_p50", summarize(rejects).P50, len(rejects))
	set("engine.samples_per_query", ratio(drawn, done), int(done))
	set("engine.batches_per_query", ratio(histCount(rd, "storm.engine.batch.size"), done), int(done))
	set("sampling.accept_ratio", ratio(drawn, drawn+rd.num("storm.engine.sampler.rejects")), int(drawn))
	set("sampling.buffer_regens", rd.num("storm.dataset.osm.buffer_regens"), 1)
	set("sampling.explosions", rd.num("storm.engine.sampler.explosions"), 1)
	set("sampling.scans", rd.num("storm.engine.sampler.scans"), 1)
	hits, misses := rd.num("storm.iosim.pool.hits"), rd.num("storm.iosim.pool.misses")
	set("iosim.hit_rate", ratio(hits, hits+misses), int(hits+misses))
	set("iosim.misses_per_sample", ratio(misses, drawn), int(drawn))
	set("iosim.evictions", rd.num("storm.iosim.pool.evictions"), 1)
	set("ingest.http_accept_rps", ratio(float64(o.satRecords), o.satAck.Seconds()), o.satRecords)
	set("ingest.drain_batch_ms_p50", all.quantile("storm.ingest.osm.drain.batch_ms", 0.5), int(histCount(all, "storm.ingest.osm.drain.batch_ms")))
	set("ingest.records_per_drain", ratio(all.num("storm.ingest.osm.drained"), all.num("storm.ingest.osm.batches")), int(all.num("storm.ingest.osm.batches")))
	set("ingest.pending_p50", timings["pend"].P50, timings["pend"].N)
	set("ingest.backpressure", all.num("storm.ingest.osm.backpressure"), 1)
	msgs, bytesMoved := "storm.distr.net.messages", func(e expvars) float64 {
		return e.num("storm.distr.net.bytes_sent") + e.num("storm.distr.net.bytes_recv")
	}
	set("distr.msgs_per_query", ratio(rd.num(msgs), queries), int(queries))
	set("distr.fetches_per_query", ratio(rd.num("storm.distr.fetches"), queries), int(queries))
	set("distr.fetch_ms_p50", rd.quantile("storm.distr.fetch.latency_ms", 0.5), int(histCount(rd, "storm.distr.fetch.latency_ms")))
	set("distr.fanout_ms_p50", rd.quantile("storm.distr.fanout.latency_ms", 0.5), int(histCount(rd, "storm.distr.fanout.latency_ms")))
	set("distr.failovers", all.num("storm.distr.replicas.failovers"), 1)
	set("distr.retries", all.num("storm.distr.faults.retries"), 1)
	// The saturation phase runs no queries, so all its traffic is inserts.
	set("distr.msgs_per_insert", ratio(sat.num(msgs), sat.num("storm.ingest.osm.drained")), int(sat.num("storm.ingest.osm.drained")))
	set("wire.bytes_per_insert", ratio(bytesMoved(sat), sat.num("storm.ingest.osm.drained")), int(sat.num("storm.ingest.osm.drained")))
	set("wire.bytes_per_query", ratio(bytesMoved(rd), queries), int(queries))
	set("wire.bytes_per_sample", ratio(bytesMoved(rd), rd.num("storm.distr.net.samples_moved")), int(rd.num("storm.distr.net.samples_moved")))
	set("gen.osm_s", in.genS, 1)
}

// setTimes fills the time metrics from spans recorded around an in-process
// replay of the first size.inputs read-phase statements, and writes the
// spans out.
func setTimes(set func(string, float64, int), root string, in *inputs, timings map[string]timing, size replaySize) error {
	tr := newTracer(true)
	rp, err := newReplica(in, tr)
	if err != nil {
		return err
	}
	defer rp.close()
	set("engine.register_s", rp.regS, 1)
	if in.w.Read == stmtWindow {
		// Windowed statements need a feed in the index: the paced phase's share.
		rp.h.InsertBatch(feedRows(in.seed, in.pacedPosts*in.w.PostRecords, in.w.PacedRPS))
	}
	stmts := in.read[:size.inputs]
	for i := range stmts { // untimed pass: fills sample buffers and planner telemetry like the live warm-up
		if err := rp.serve(&stmts[i]); err != nil {
			return err
		}
	}
	for _, th := range rp.hosts {
		th.mu.Lock()
		th.reqs, th.resp = nil, nil // keep the traced pass's messages, not the warm-up's
		th.mu.Unlock()
	}
	// The same handler behind net/http on a loopback port, driven over one of
	// the benchmark's own connections: what it takes beyond a direct ServeHTTP
	// call is the HTTP path, measured in one process on an otherwise idle box.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: rp.srv}
	go func() { _ = hs.Serve(lis) }() // ends with ErrServerClosed at hs.Close below
	defer hs.Close()
	loop := newConn(lis.Addr().String())
	defer loop.close()
	if res := loop.query(stmts[0].Body); res.Err != "" { // untimed: dials the connection
		return fmt.Errorf("loopback query: %s", res.Err)
	}
	// Each input is served three times back to back: under spans, bare, and
	// over the loopback connection, alternating whether the spans go first.
	// The bare calls are the untraced replay that trace.overhead_pct compares
	// against; loopback minus bare, input by input, is the HTTP overhead.
	tt := &traceTimes{forcedUS: map[string][]float64{}}
	var bare, looped, httpMS []float64
	serveBare := func(i int) error {
		start := time.Now()
		if err := rp.serve(&stmts[i]); err != nil {
			return err
		}
		direct := ms(time.Since(start))
		res := loop.query(stmts[i].Body)
		if res.Err != "" {
			return fmt.Errorf("loopback query: %s: %s", res.Err, stmts[i].Text)
		}
		bare, looped = append(bare, direct), append(looped, ms(res.Latency))
		httpMS = append(httpMS, ms(res.Latency)-direct)
		return nil
	}
	for i := range stmts {
		if i%2 == 1 {
			if err := serveBare(i); err != nil {
				return err
			}
		}
		if err := rp.replay(tr, i+1, &stmts[i], i < 30, tt); err != nil {
			return err
		}
		if i%2 == 0 {
			if err := serveBare(i); err != nil {
				return err
			}
		}
	}

	if len(rp.hosts) > 0 {
		if err := rp.wireReplay(tr, set); err != nil {
			return err
		}
	}
	rp.ingestReplay(tr, in, size.insertChunks, set)

	// Reduce the spans: per input, the duration of each named call.
	per := map[int]map[string]float64{}
	var handle []float64
	for _, s := range tr.spans {
		if s.Name == "distr.Host.Handle" {
			handle = append(handle, float64(s.dur())/1e3)
		}
		if s.Req == 0 {
			continue
		}
		if per[s.Req] == nil {
			per[s.Req] = map[string]float64{}
		}
		per[s.Req][s.Name] += float64(s.dur()) / 1e6
	}
	var serve, parse, plan, selfSrv, selfEng, enc, resid, shareS, addNS, drawUS []float64
	for i := 1; i <= len(stmts); i++ {
		p := per[i]
		sv := p["server.ServeHTTP"]
		serve = append(serve, sv)
		parse = append(parse, p["query.Parse"]*1e3)
		plan = append(plan, p["engine.plan"]*1e3)
		enc = append(enc, p["server.encode"])
		// The handler plans explicitly only for contracts (ExplainContract
		// before EstimateContract); a stream's planning is inside
		// EstimateOnline, and ExplainWhere — timed as engine.plan_us — is
		// what GET /explain would cost, not part of the request.
		inner := p["query.Parse"] + p["engine.EstimateOnline"]
		if stmts[i-1].Contract {
			inner += p["engine.plan"]
		}
		selfSrv = append(selfSrv, max(0, sv-inner))
		selfEng = append(selfEng, max(0, p["engine.EstimateOnline"]-p["sampling.Sample"]-p["estimator.Add"]))
		explained := inner + p["server.encode"]
		resid = append(resid, 100*abs(sv-explained)/sv)
		shareS = append(shareS, 100*min(1, (p["sampling.Sample"]+p["estimator.Add"]+p["server.encode"])/sv))
		if k := tt.samples[i-1]; k > 0 {
			addNS = append(addNS, p["estimator.Add"]*1e6/float64(k))
			drawUS = append(drawUS, p["sampling.Sample"]*1e3/float64(k))
		}
	}
	n := len(stmts)
	inproc := summarize(serve).P50
	set("trace.inproc_p50_ms", inproc, n)
	set("server.http_overhead_ms", summarize(httpMS).P50, n)
	if socket := timings["query"]; socket.N > 0 {
		set("trace.socket_gap_pct", 100*(socket.P50-summarize(looped).P50)/socket.P50, socket.N)
	}
	set("server.self_ms", summarize(selfSrv).P50, n)
	set("server.encode_ms", summarize(enc).P50, n)
	set("query.parse_us", summarize(parse).P50, n)
	set("engine.plan_us", summarize(plan).P50, n)
	set("engine.estimate_self_ms", summarize(selfEng).P50, n)
	set("estimator.add_ns_per_sample", summarize(addNS).P50, len(addNS))
	set("sampling.draw_us_per_sample.auto", summarize(drawUS).P50, len(drawUS))
	set("trace.residual_pct", summarize(resid).P50, n)
	if len(rp.hosts) > 0 {
		// On the cluster the sample path is the coordinator's fan-out, the
		// wire codec, TCP and the shard hosts' service.
		set("trace.share_distr_wire_pct", summarize(shareS).P50, n)
		set("distr.host_handle_us", ratio(sum(handle), float64(len(handle))), len(handle))
	} else {
		set("trace.share_sampling_pct", summarize(shareS).P50, n)
	}
	set("trace.overhead_pct", 100*(sum(serve)-sum(bare))/sum(bare), n)
	for _, f := range forcedMethods {
		set("sampling.draw_us_per_sample."+f.name, summarize(tt.forcedUS[f.name]).P50, len(tt.forcedUS[f.name]))
	}

	return writeTrace(root, in, tr)
}

// wireReplay re-sends, over its own TCP clients, the requests the shard
// hosts served during the traced pass (stream ids shifted so the streams are
// fresh), with a span around each round trip; the host's Handle span nests
// inside it. It then times the codec alone on the same frames and counts the
// allocations of a minimal round trip.
func (r *replica) wireReplay(tr *tracer, set func(string, float64, int)) error {
	const streamShift = 1 << 40
	tr.req.Store(0)
	var rt, netSelf []float64
	var frames [][]byte
	var msgs []wire.Msg
	for hi, th := range r.hosts {
		th.mu.Lock()
		reqs, resps := th.reqs, th.resp
		th.keep = 0
		th.mu.Unlock()
		c := wire.NewTCPClient(r.wires[hi].Addr())
		for i, m := range reqs {
			switch q := m.(type) {
			case *wire.Open:
				cp := *q
				cp.Stream += streamShift
				m = &cp
			case *wire.Fetch:
				cp := *q
				cp.Stream += streamShift
				m = &cp
			case *wire.Close:
				cp := *q
				cp.Stream += streamShift
				m = &cp
			case *wire.Build, *wire.Insert, *wire.Delete:
				continue // would change shard state
			}
			id := tr.start("wire.TCPClient.RoundTrip", 0)
			prev := tr.active.Swap(int64(id))
			resp, err := c.RoundTrip(m, 5*time.Second)
			tr.active.Store(prev)
			tr.end(id)
			if err != nil {
				c.Close()
				return fmt.Errorf("replaying %T over TCP: %w", m, err)
			}
			if e, ok := resp.(*wire.Error); ok {
				c.Close()
				return fmt.Errorf("replaying %T over TCP: shard host answered %s", m, e.Msg)
			}
			msgs = append(msgs, m, resps[i])
		}
		// Allocation floor of the transport: the smallest frame both ways,
		// against a handler that allocates one Pong.
		const pings = 2000
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < pings; i++ {
			if _, err := c.RoundTrip(&wire.Ping{}, 5*time.Second); err != nil {
				c.Close()
				return fmt.Errorf("ping over TCP: %w", err)
			}
		}
		runtime.ReadMemStats(&after)
		if hi == 0 {
			set("wire.allocs_per_roundtrip", float64(after.Mallocs-before.Mallocs)/pings, pings)
		}
		c.Close()
	}
	self := selfTimes(tr.spans)
	for _, s := range tr.spans {
		if s.Name == "wire.TCPClient.RoundTrip" {
			rt = append(rt, float64(s.dur())/1e3)
			netSelf = append(netSelf, float64(self[s.ID])/1e3)
		}
	}
	set("wire.roundtrip_us", summarize(rt).P50, len(rt))
	set("wire.net_self_us", summarize(netSelf).P50, len(netSelf))

	enc := tr.start("wire.AppendFrame", 0)
	for _, m := range msgs {
		frames = append(frames, wire.AppendFrame(nil, m))
	}
	tr.end(enc)
	dec := tr.start("wire.DecodeFrame", 0)
	for _, f := range frames {
		if _, _, err := wire.DecodeFrame(f); err != nil {
			return fmt.Errorf("decoding a frame this run encoded: %w", err)
		}
	}
	tr.end(dec)
	set("wire.encode_ns_per_frame", ratio(float64(tr.dur(enc)), float64(len(frames))), len(frames))
	set("wire.decode_ns_per_frame", ratio(float64(tr.dur(dec)), float64(len(frames))), len(frames))
	return nil
}

// ingestReplay times ingest.AppendBatch into a sink that indexes nothing,
// and Handle.InsertBatch in 4096-row chunks into the replica's indexes.
func (r *replica) ingestReplay(tr *tracer, in *inputs, chunks int, set func(string, float64, int)) {
	tr.req.Store(0)
	const chunk = 4096
	if in.w.Cluster {
		chunks = 1 // every record is (S+R) round trips under the write lock
	}
	// A fresh stretch of the feed, past what a windowed replay already inserted.
	rows := feedRows(in.seed+7, chunks*chunk, in.w.PacedRPS)

	ing := ingest.New(nopSink{}, ingest.Config{Name: "trace"})
	id := tr.start("ingest.AppendBatch", 0)
	for i := 0; i+512 <= len(rows); i += 512 { // the server appends in 512-record chunks
		if err := ing.AppendBatch(rows[i : i+512]); err != nil {
			break // backpressure cannot fire: the sink is free and the rows fit MaxPending
		}
	}
	tr.end(id)
	ing.Close()
	set("ingest.append_ns_per_record", float64(tr.dur(id))/float64(len(rows)), len(rows))

	var total int64
	for i := 0; i < len(rows); i += chunk {
		id := tr.start("engine.Handle.InsertBatch", 0)
		r.h.InsertBatch(rows[i : i+chunk])
		tr.end(id)
		total += tr.dur(id)
	}
	set("engine.insertbatch_us_per_record", float64(total)/1e3/float64(len(rows)), len(rows))
}

func writeTrace(root string, in *inputs, tr *tracer) error {
	dir := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{in.w.Name, in.seed, tr.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+in.w.Name+".json"), b, 0o644)
}

func histCount(e expvars, name string) float64 {
	if h := e[name].Hist; h != nil {
		return h.Count
	}
	return 0
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

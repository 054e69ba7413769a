// Package server exposes STORM's query interface over HTTP — the
// reproduction's equivalent of the paper's web front end (www.estorm.org).
//
// Endpoints:
//
//	GET  /datasets                    list registered datasets
//	GET  /datasets/{name}             one dataset's schema and size
//	POST /query                       execute a STORM statement; online
//	                                  snapshots stream back as NDJSON
//	POST /datasets/{name}/records     insert records (the updates demo)
//	POST /ingest/{name}               stream NDJSON records through the
//	                                  buffered ingest path (429 + Retry-After
//	                                  under backpressure)
//	GET  /explain?q=<statement>       the optimizer plan for an estimate
//	GET  /metrics                     engine + server metrics as one flat
//	                                  expvar-format JSON object
//	GET  /healthz                     liveness probe
//	GET  /shards                      per-dataset shard placement and
//	                                  liveness (clustered datasets only)
//
// Online queries honor client disconnection: dropping the connection
// cancels the query, the paper's interactive-exploration semantics over
// HTTP.
//
// The server is fully concurrent: net/http serves each request on its own
// goroutine and the engine's read path is shared, so any number of NDJSON
// query streams run in parallel against the same dataset, serialized only
// against inserts and deletes (see package engine's concurrency model).
// Each stream's snapshots carry that query's own simulated I/O counters.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"storm/internal/data"
	"storm/internal/distr"
	"storm/internal/engine"
	"storm/internal/geo"
	"storm/internal/ingest"
	"storm/internal/obs"
	"storm/internal/query"
)

// Server is an http.Handler serving a STORM engine.
type Server struct {
	eng *engine.Engine
	mux *http.ServeMux
	met serverMetrics
	// maxStreams caps concurrent NDJSON estimate streams (load shedding);
	// 0 means unlimited. activeStreams is the authoritative counter — the
	// storm.server.streams.active gauge mirrors it but cannot provide the
	// atomic check-then-acquire the cap needs.
	maxStreams    int
	activeStreams atomic.Int64
	// ingCfg templates per-dataset ingestors (WithIngestConfig); ing holds
	// one lazily created Ingestor per dataset streamed to via POST /ingest.
	ingCfg ingest.Config
	ingMu  sync.Mutex
	ing    map[string]*ingest.Ingestor
	// writeTimeout bounds each NDJSON flush burst (see streamEstimate);
	// always streamWriteTimeout outside tests.
	writeTimeout time.Duration
}

// streamWriteTimeout is how long one burst of NDJSON snapshots may take to
// reach the client before the stream is abandoned. A healthy reader drains
// a burst in well under a millisecond; half a minute only ever ends streams
// whose reader has stopped.
const streamWriteTimeout = 30 * time.Second

// Option configures a Server.
type Option func(*Server)

// WithMaxStreams caps the number of concurrently open NDJSON estimate
// streams. Requests beyond the cap are shed with 429 Too Many Requests and
// a Retry-After header rather than degrading every in-flight query's
// latency; sheds are counted under storm.server.streams.shed. n <= 0 means
// unlimited.
func WithMaxStreams(n int) Option {
	return func(s *Server) {
		if n < 0 {
			n = 0
		}
		s.maxStreams = n
	}
}

// WithIngestConfig templates the per-dataset ingest buffers behind
// POST /ingest/{name}: shard count, flush thresholds and the MaxPending
// backpressure bound. Name and Obs are set per dataset when an ingestor
// is created; the other fields are taken as given (zero values get the
// package ingest defaults).
func WithIngestConfig(cfg ingest.Config) Option {
	return func(s *Server) { s.ingCfg = cfg }
}

// serverMetrics holds the server's resolved metric handles; all-nil (every
// write a no-op) when the engine's metrics are disabled.
type serverMetrics struct {
	// queries counts POST /query statements accepted for execution.
	queries *obs.Counter
	// streams is the number of NDJSON estimate streams currently open.
	streams *obs.Gauge
	// snapshots counts NDJSON snapshot lines written across all streams.
	snapshots *obs.Counter
	// inserts counts records inserted through the HTTP API.
	inserts *obs.Counter
	// shed counts NDJSON streams rejected by the WithMaxStreams cap.
	shed *obs.Counter
	// contracts counts one-shot contract queries served; qosDegraded
	// counts those admitted over the stream cap with a proportionally
	// relaxed contract instead of a 429 (per-query QoS); infeasible counts
	// contracts refused up front with 422 (provably unmeetable).
	contracts   *obs.Counter
	qosDegraded *obs.Counter
	infeasible  *obs.Counter
}

// New returns a server over the engine. The engine's metrics registry
// (when enabled) is served at /metrics and extended with the server's own
// per-connection counters.
func New(eng *engine.Engine, opts ...Option) *Server {
	reg := eng.Obs()
	s := &Server{eng: eng, mux: http.NewServeMux(), writeTimeout: streamWriteTimeout, met: serverMetrics{
		queries:     reg.Counter("storm.server.queries"),
		streams:     reg.Gauge("storm.server.streams.active"),
		snapshots:   reg.Counter("storm.server.snapshots"),
		inserts:     reg.Counter("storm.server.inserts"),
		shed:        reg.Counter("storm.server.streams.shed"),
		contracts:   reg.Counter("storm.server.contracts"),
		qosDegraded: reg.Counter("storm.server.contracts.qos_degraded"),
		infeasible:  reg.Counter("storm.server.contracts.infeasible"),
	}}
	for _, opt := range opts {
		opt(s)
	}
	s.mux.HandleFunc("GET /datasets", s.handleDatasets)
	s.mux.HandleFunc("GET /datasets/{name}", s.handleDataset)
	s.mux.HandleFunc("POST /datasets/{name}/records", s.handleInsert)
	s.mux.HandleFunc("POST /ingest/{name}", s.handleIngest)
	s.mux.HandleFunc("POST /query", s.handleQuery)
	s.mux.HandleFunc("GET /explain", s.handleExplain)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /shards", s.handleShards)
	return s
}

// handleHealthz is the liveness probe: a serving process answers 200 with
// its dataset count. Load balancers and the cluster smoke tests poll it.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"status":   "ok",
		"datasets": len(s.eng.Datasets()),
	})
}

// ShardInfo describes one dataset's shard cluster as the coordinator sees
// it: where each shard lives and whether its host answers.
type ShardInfo struct {
	Dataset string `json:"dataset"`
	// Remote is true for a TCP cluster (shards are separate processes),
	// false for a cluster of in-process shard hosts.
	Remote bool                `json:"remote"`
	Shards []distr.ShardStatus `json:"shards"`
	// ShardsDown counts shards whose host is currently unreachable (or
	// crashed by fault injection).
	ShardsDown int `json:"shards_down"`
}

// handleShards reports shard placement and liveness for every dataset
// registered with a cluster. The liveness check is a regular coordinator
// probe, so polling this endpoint also advances injected recovery clocks.
func (s *Server) handleShards(w http.ResponseWriter, r *http.Request) {
	names := s.eng.Datasets()
	sort.Strings(names)
	out := []ShardInfo{}
	for _, name := range names {
		h, err := s.eng.Dataset(name)
		if err != nil {
			continue
		}
		cl := h.Cluster()
		if cl == nil {
			continue
		}
		info := ShardInfo{Dataset: name, Remote: cl.Remote(), Shards: cl.ShardStatus()}
		for _, st := range info.Shards {
			if st.Down {
				info.ShardsDown++
			}
		}
		out = append(out, info)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// handleMetrics serves the engine's registry as one flat expvar-format
// JSON object. With metrics disabled it serves "{}" rather than erroring,
// so scrapers never need to special-case a NoMetrics deployment.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.eng.Obs().WriteJSON(w)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// DatasetInfo describes one registered dataset.
type DatasetInfo struct {
	Name    string   `json:"name"`
	Records int      `json:"records"`
	Numeric []string `json:"numeric_columns"`
	String  []string `json:"string_columns"`
}

func (s *Server) datasetInfo(name string) (DatasetInfo, error) {
	h, err := s.eng.Dataset(name)
	if err != nil {
		return DatasetInfo{}, err
	}
	num, str := h.Columns()
	return DatasetInfo{Name: name, Records: h.Len(), Numeric: num, String: str}, nil
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	names := s.eng.Datasets()
	sort.Strings(names)
	out := make([]DatasetInfo, 0, len(names))
	for _, n := range names {
		info, err := s.datasetInfo(n)
		if err != nil {
			continue
		}
		out = append(out, info)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

func (s *Server) handleDataset(w http.ResponseWriter, r *http.Request) {
	info, err := s.datasetInfo(r.PathValue("name"))
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(info)
}

// InsertRequest is the body of POST /datasets/{name}/records.
type InsertRequest struct {
	Records []InsertRecord `json:"records"`
}

// InsertRecord is one record to insert.
type InsertRecord struct {
	Lon  float64            `json:"lon"`
	Lat  float64            `json:"lat"`
	Time float64            `json:"time"`
	Num  map[string]float64 `json:"num,omitempty"`
	Str  map[string]string  `json:"str,omitempty"`
}

// row converts the wire record to an engine row.
func (rec InsertRecord) row() data.Row {
	return data.Row{Pos: geo.Vec{rec.Lon, rec.Lat, rec.Time}, Num: rec.Num, Str: rec.Str}
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	h, err := s.eng.Dataset(r.PathValue("name"))
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	var req InsertRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "decoding body: %v", err)
		return
	}
	if len(req.Records) == 0 {
		httpError(w, http.StatusBadRequest, "no records")
		return
	}
	rows := make([]data.Row, len(req.Records))
	for i, rec := range req.Records {
		rows[i] = rec.row()
	}
	// One InsertBatch per request: the dataset write lock is taken once for
	// the whole body instead of once per record.
	ids := h.InsertBatch(rows)
	s.met.inserts.Add(uint64(len(ids)))
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"inserted": len(ids), "first_id": ids[0]})
}

// ingestor returns (creating on first use) the dataset's buffered ingestor,
// draining into the dataset handle's InsertBatch.
func (s *Server) ingestor(name string, h *engine.Handle) *ingest.Ingestor {
	s.ingMu.Lock()
	defer s.ingMu.Unlock()
	if in, ok := s.ing[name]; ok {
		return in
	}
	if s.ing == nil {
		s.ing = make(map[string]*ingest.Ingestor)
	}
	cfg := s.ingCfg
	cfg.Name = name
	cfg.Obs = s.eng.Obs()
	in := ingest.New(h, cfg)
	s.ing[name] = in
	return in
}

// Close flushes and stops every ingestor POST /ingest created. The HTTP
// mux itself is stateless; only the ingest buffers hold background work.
func (s *Server) Close() error {
	s.ingMu.Lock()
	defer s.ingMu.Unlock()
	for _, in := range s.ing {
		in.Close()
	}
	s.ing = nil
	return nil
}

// IngestResponse is the body of a POST /ingest/{name} response. Accepted
// counts records buffered by THIS request; on a 429 it tells the client
// how far through its stream the backpressure hit.
type IngestResponse struct {
	Accepted int `json:"accepted"`
	// Pending is the ingestor's drain backlog after this request.
	Pending int `json:"pending"`
	// Watermark is the dataset's event-time watermark (maximum Pos[2]
	// indexed), the anchor `LAST <dur>` windows trail behind.
	Watermark float64 `json:"watermark,omitempty"`
	Error     string  `json:"error,omitempty"`
}

// handleIngest streams records into the buffered ingest path: the body is
// NDJSON (one InsertRecord per line), appended record-by-record to the
// dataset's ingestor, which drains to the indexes in the background as
// batched bulk inserts. Producers therefore never take the dataset write
// lock. When the drain backlog hits the configured MaxPending the request
// stops with 429 + Retry-After and reports how many records it accepted —
// the client resumes from there after backing off.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	h, err := s.eng.Dataset(name)
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	in := s.ingestor(name, h)
	dec := json.NewDecoder(r.Body)
	accepted := 0
	respond := func(status int, errMsg string) {
		s.met.inserts.Add(uint64(accepted)) // buffered records count even on 429/400
		out := IngestResponse{Accepted: accepted, Pending: in.Pending(), Error: errMsg}
		if wm, ok := h.Watermark(); ok {
			out.Watermark = wm
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(out)
	}
	// Decoded records accumulate into chunks handed to AppendBatch: one
	// shard-lock acquisition per chunk instead of per record. AppendBatch
	// is all-or-nothing, so `accepted` stays exact on a mid-stream 429.
	const chunk = 512
	batch := make([]data.Row, 0, chunk)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if err := in.AppendBatch(batch); err != nil {
			return err
		}
		accepted += len(batch)
		batch = batch[:0]
		return nil
	}
	for {
		var rec InsertRecord
		if err := dec.Decode(&rec); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			if ferr := flush(); ferr != nil { // records before the bad line still count
				w.Header().Set("Retry-After", "1")
				respond(http.StatusTooManyRequests, ferr.Error())
				return
			}
			respond(http.StatusBadRequest, fmt.Sprintf("decoding record %d: %v", accepted, err))
			return
		}
		batch = append(batch, rec.row())
		if len(batch) == chunk {
			if err := flush(); err != nil {
				// Backpressure (or a closing server): surface 429 so the
				// producer backs off; everything already accepted is safe.
				w.Header().Set("Retry-After", "1")
				respond(http.StatusTooManyRequests, err.Error())
				return
			}
		}
	}
	if err := flush(); err != nil {
		w.Header().Set("Retry-After", "1")
		respond(http.StatusTooManyRequests, err.Error())
		return
	}
	respond(http.StatusOK, "")
}

// QueryRequest is the body of POST /query.
type QueryRequest struct {
	// Statement is a STORM query-language statement.
	Statement string `json:"statement"`
}

// SnapshotJSON is one streamed snapshot of an online estimate.
type SnapshotJSON struct {
	Kind       string  `json:"kind"`
	Value      float64 `json:"value"`
	HalfWidth  float64 `json:"half_width"`
	Confidence float64 `json:"confidence"`
	Samples    int     `json:"samples"`
	Population int     `json:"population"`
	Exact      bool    `json:"exact"`
	ElapsedMS  float64 `json:"elapsed_ms"`
	Sampler    string  `json:"sampler"`
	// IOReads/IOHits are this query's simulated page misses and buffer
	// hits (per-query attribution; zero when I/O simulation is off).
	// These are the RAW batched-charging numbers: IOHits includes hits
	// whose verdict was manufactured by run-coalescing on the batched
	// path, so it can exceed what a serial interleaving of the same
	// queries would have charged (see iosim.Stats.Coalesced).
	IOReads uint64 `json:"io_reads,omitempty"`
	IOHits  uint64 `json:"io_hits,omitempty"`
	// IOLogical is total logical accesses (hits + misses) and
	// IOCoalesced is how many of the hits were coalescing-granted;
	// IOAdjHits = IOHits - IOCoalesced is the batch-adjusted hit count,
	// whose verdicts all came from genuine buffer-pool lookups. Raw and
	// adjusted views are both reported so operators can bound how much
	// hit rate batching manufactured.
	IOLogical   uint64 `json:"io_logical,omitempty"`
	IOCoalesced uint64 `json:"io_coalesced,omitempty"`
	IOAdjHits   uint64 `json:"io_adj_hits,omitempty"`
	// Degraded marks a distributed query that lost ShardsLost shards
	// mid-stream; Population has been shrunk to the surviving matching
	// count, so the CI is honest over what could still be sampled (see
	// DESIGN.md §4.3 and the README fault-tolerance handbook).
	Degraded   bool `json:"degraded,omitempty"`
	ShardsLost int  `json:"shards_lost,omitempty"`
	// Recovered marks a query that lost shards mid-stream and re-admitted
	// all of them after they came back: Population is restored to the
	// full matching count. Mutually exclusive with Degraded.
	Recovered bool `json:"recovered,omitempty"`
	// FailedOver marks a query that moved at least one shard stream onto
	// a surviving replica mid-query (Replicas >= 2). The population is
	// intact — no lost mass, full-strength CI (see DESIGN.md §4.8).
	FailedOver bool `json:"failed_over,omitempty"`
	// RejectRatio is the fraction of the sampler's draws its rejection
	// steps discarded (predicate or out-of-range rejections); zero for
	// exact answers and clean pushdown streams.
	RejectRatio float64 `json:"reject_ratio,omitempty"`
	// LostMassLow/LostMassHigh, present only on degraded AVG/SUM
	// snapshots, bound the aggregate over the full pre-crash population:
	// the surviving CI widened by the lost shards' min/max attribute
	// summaries (see DESIGN.md §4.3).
	LostMassLow  float64 `json:"lost_mass_low,omitempty"`
	LostMassHigh float64 `json:"lost_mass_high,omitempty"`
	// Unbounded marks a CI that is still unbounded (fewer than two
	// samples on a non-exact estimate); half_width is then omitted
	// because JSON cannot carry +Inf.
	Unbounded bool `json:"unbounded,omitempty"`
	// Windowed marks a `LAST <dur>` query; WindowLo/WindowHi are the
	// resolved event-time bounds (seconds) the estimate covered —
	// [watermark-dur, watermark] intersected with any TIME clause.
	Windowed bool    `json:"windowed,omitempty"`
	WindowLo float64 `json:"window_lo,omitempty"`
	WindowHi float64 `json:"window_hi,omitempty"`
	Done     bool    `json:"done"`
}

// handleQuery executes an estimate statement and streams NDJSON snapshots.
// Non-estimate statements (KDE, TERMS, ...) run to completion and return
// their text rendering in a single JSON object.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "decoding body: %v", err)
		return
	}
	q, err := query.Parse(req.Statement)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.met.queries.Inc()

	// Single-aggregate estimates answer once with their guarantee
	// (contracts) or stream; everything else — aggregate lists and GROUP BY
	// included, whose joint answers have no NDJSON form — renders once.
	if q.Op == query.OpEstimate && !q.Explain && q.GroupBy == "" && len(q.MultiAggs) <= 1 {
		if q.Contract {
			s.contractQuery(w, r, q)
		} else {
			s.streamEstimate(w, r, q)
		}
		return
	}
	var buf textBuffer
	if err := query.Run(r.Context(), s.eng, q, &buf); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]string{"output": buf.String()})
}

// acquireStream reserves an NDJSON stream slot, or reports that the
// WithMaxStreams cap is reached. The CAS loop makes check-then-acquire
// atomic across concurrent requests; the storm.server.streams.active gauge
// mirrors the count for scrapers.
func (s *Server) acquireStream() bool {
	for {
		cur := s.activeStreams.Load()
		if s.maxStreams > 0 && cur >= int64(s.maxStreams) {
			return false
		}
		if s.activeStreams.CompareAndSwap(cur, cur+1) {
			s.met.streams.Add(1)
			return true
		}
	}
}

func (s *Server) releaseStream() {
	s.activeStreams.Add(-1)
	s.met.streams.Add(-1)
}

func (s *Server) streamEstimate(w http.ResponseWriter, r *http.Request, q *query.Query) {
	// Load shedding: reject beyond-cap streams up front — before the query
	// starts sampling — so in-flight queries keep their latency instead of
	// everyone degrading together.
	if !s.acquireStream() {
		s.met.shed.Inc()
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests,
			"stream limit reached (%d concurrent NDJSON streams); retry shortly", s.maxStreams)
		return
	}
	defer s.releaseStream()
	h, err := s.eng.Dataset(q.Dataset)
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	// r.Context() is cancelled when the client disconnects, which stops
	// the query — interactive exploration over HTTP.
	ch, err := h.EstimateOnline(r.Context(), q.Range(), q.Options())
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	encode := func(snap engine.Snapshot) bool {
		if enc.Encode(snapshotJSON(snap)) != nil {
			return false
		}
		s.met.snapshots.Inc()
		return true
	}
	rc := http.NewResponseController(w)
	for snap := range ch {
		// The query goroutine holds the dataset's read lock until this
		// handler returns, and a writer waiting on that lock parks every
		// new reader behind it — so a client that stops reading must fail
		// the write, not block it forever. One deadline covers the burst's
		// writes and its flush; a ResponseWriter without deadlines or
		// flushing (tests, in-process callers) streams without them.
		if err := rc.SetWriteDeadline(time.Now().Add(s.writeTimeout)); err != nil && !errors.Is(err, http.ErrNotSupported) {
			return
		}
		if !encode(snap) {
			return // client gone or stalled; ctx cancellation stops the query
		}
		// Coalesce: when the evaluator's batched loop produced several
		// snapshots since the last write, encode everything already queued
		// and flush the connection once for the whole burst.
	drain:
		for {
			select {
			case more, ok := <-ch:
				if !ok {
					break drain
				}
				if !encode(more) {
					return
				}
			default:
				break drain
			}
		}
		if err := rc.Flush(); err != nil && !errors.Is(err, http.ErrNotSupported) {
			return
		}
	}
}

// snapshotJSON converts an engine snapshot to its wire form — shared by
// the NDJSON stream and the one-shot contract answer. An unbounded CI
// (fewer than two samples on a non-exact estimate) is reported as
// unbounded=true with half_width omitted, since JSON has no +Inf.
func snapshotJSON(snap engine.Snapshot) SnapshotJSON {
	adj := snap.IO.BatchAdjusted()
	out := SnapshotJSON{
		Kind:         snap.Kind.String(),
		Value:        snap.Value,
		HalfWidth:    snap.HalfWidth,
		Confidence:   snap.Confidence,
		Samples:      snap.Samples,
		Population:   snap.Population,
		Exact:        snap.Exact,
		ElapsedMS:    float64(snap.Elapsed) / float64(time.Millisecond),
		Sampler:      snap.Method,
		IOReads:      snap.IO.Reads,
		IOHits:       snap.IO.Hits,
		IOLogical:    snap.IO.Logical,
		IOCoalesced:  snap.IO.Coalesced,
		IOAdjHits:    adj.Hits,
		Degraded:     snap.Degraded,
		ShardsLost:   snap.ShardsLost,
		Recovered:    snap.Recovered,
		FailedOver:   snap.FailedOver,
		RejectRatio:  snap.RejectRatio,
		LostMassLow:  snap.LostMassLow,
		LostMassHigh: snap.LostMassHigh,
		Windowed:     snap.Windowed,
		WindowLo:     snap.WindowLo,
		WindowHi:     snap.WindowHi,
		Done:         snap.Done,
	}
	if math.IsInf(out.HalfWidth, 0) || math.IsNaN(out.HalfWidth) {
		out.HalfWidth = 0
		out.Unbounded = true
	}
	return out
}

// ContractAnswerJSON is the one-shot response of a contract query
// (POST /query with an "ERROR ... AT CONFIDENCE ..." statement): the final
// snapshot plus the contract's verdict, targets, and what the planner
// predicted. When the server admitted the query over the stream cap, the
// qos_factor/effective_* fields report the relaxed contract it actually
// ran under (per-query QoS degradation instead of a 429).
type ContractAnswerJSON struct {
	SnapshotJSON
	// Status is the guarantee verdict: "met", "degraded" or "missed",
	// always graded against the client's requested contract.
	Status string `json:"status"`
	// TargetError/TargetConfidence/DeadlineMS echo the requested contract.
	TargetError      float64 `json:"target_error,omitempty"`
	TargetConfidence float64 `json:"target_confidence"`
	DeadlineMS       float64 `json:"deadline_ms,omitempty"`
	// AchievedError is the final relative CI half-width; omitted when the
	// estimate is unbounded (see SnapshotJSON.Unbounded).
	AchievedError float64 `json:"achieved_error,omitempty"`
	// PlannedSamples/PredictedMS/ColdPlan/Feasible summarize the
	// contract planner's prediction (see engine.ContractPlan).
	PlannedSamples int     `json:"planned_samples,omitempty"`
	PredictedMS    float64 `json:"predicted_ms,omitempty"`
	ColdPlan       bool    `json:"cold_plan,omitempty"`
	Feasible       bool    `json:"feasible"`
	// QoSFactor > 1 marks overload admission: the query ran under the
	// requested contract scaled by this factor (error target widened,
	// deadline shrunk — the effective_* fields).
	QoSFactor           float64 `json:"qos_factor,omitempty"`
	EffectiveError      float64 `json:"effective_error,omitempty"`
	EffectiveDeadlineMS float64 `json:"effective_deadline_ms,omitempty"`
}

// ContractRefusedJSON is the 422 body for a contract the planner proves
// infeasible before execution: the requested targets alongside what the
// planner predicts the deadline can actually buy (see OPERATIONS.md).
type ContractRefusedJSON struct {
	Error            string  `json:"error"`
	TargetError      float64 `json:"target_error"`
	TargetConfidence float64 `json:"target_confidence"`
	DeadlineMS       float64 `json:"deadline_ms"`
	// PredictedRelError is the relative error the planner expects the
	// deadline's BudgetSamples-sample budget to deliver; PlannedSamples is
	// what the error target would need; PredictedMS how long that would take.
	PredictedRelError float64 `json:"predicted_rel_error"`
	PredictedMS       float64 `json:"predicted_ms"`
	BudgetSamples     int     `json:"budget_samples"`
	PlannedSamples    int     `json:"planned_samples"`
}

// contractQuery executes a contract-mode estimate and answers once with
// its guarantee. Contract queries are never shed: beyond the stream cap
// the contract is scaled by the overload factor instead, so heavy
// dashboard traffic degrades per-query error bounds rather than taking
// 429s (see engine.Contract.Scale).
func (s *Server) contractQuery(w http.ResponseWriter, r *http.Request, q *query.Query) {
	h, err := s.eng.Dataset(q.Dataset)
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	s.met.contracts.Inc()
	// Contract queries occupy a stream slot for accounting but are
	// admitted past the cap: overload shows up in their guarantee, not as
	// rejections.
	cur := s.activeStreams.Add(1)
	s.met.streams.Add(1)
	defer s.releaseStream()
	factor := 1.0
	if s.maxStreams > 0 && cur > int64(s.maxStreams) {
		factor = float64(cur) / float64(s.maxStreams)
		s.met.qosDegraded.Inc()
	}
	req := q.ContractSpec()
	eff := req.Scale(factor)
	opts := q.Options()
	// One planning call serves both the refusal below and the execution,
	// which reuses the plan's range count.
	plan, err := h.ExplainContract(q.Range(), opts, eff)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Provably infeasible contracts are refused up front with 422: the
	// planner's warm-profile prediction says the error target cannot fit
	// the deadline, so running the query would burn the whole deadline to
	// deliver a "missed" verdict anyway. Cold plans (no telemetry yet) get
	// the benefit of the doubt and run.
	if !plan.Feasible && !plan.Cold {
		s.met.infeasible.Inc()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusUnprocessableEntity)
		json.NewEncoder(w).Encode(ContractRefusedJSON{
			Error:             "contract provably infeasible: predicted error within the deadline exceeds the target",
			TargetError:       req.RelError,
			TargetConfidence:  plan.Target.Confidence,
			DeadlineMS:        float64(req.Deadline) / float64(time.Millisecond),
			PredictedRelError: plan.PredictedRelError,
			PredictedMS:       plan.PredictedMS,
			BudgetSamples:     plan.Budget,
			PlannedSamples:    plan.Samples,
		})
		return
	}
	res, err := h.ExecuteContract(r.Context(), q.Range(), opts, plan)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The engine graded against the effective (scaled) contract; the
	// client is owed a verdict against what it asked for.
	if factor > 1 && res.Status == engine.ContractMet && req.RelError > 0 &&
		!res.Exact && res.AchievedRelError > req.RelError {
		res.Status = engine.ContractDegraded
	}
	out := ContractAnswerJSON{
		SnapshotJSON:     snapshotJSON(res.Snapshot),
		Status:           res.Status.String(),
		TargetError:      req.RelError,
		TargetConfidence: res.Contract.Confidence,
		DeadlineMS:       float64(req.Deadline) / float64(time.Millisecond),
		PlannedSamples:   res.Plan.Samples,
		PredictedMS:      res.Plan.PredictedMS,
		ColdPlan:         res.Plan.Cold,
		Feasible:         res.Plan.Feasible,
	}
	if !out.Unbounded && !math.IsInf(res.AchievedRelError, 0) && !math.IsNaN(res.AchievedRelError) {
		out.AchievedError = res.AchievedRelError
	}
	if factor > 1 {
		out.QoSFactor = factor
		out.EffectiveError = eff.RelError
		out.EffectiveDeadlineMS = float64(eff.Deadline) / float64(time.Millisecond)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// PlanJSON is the /explain response. The where_* fields appear only for
// statements with attribute predicates: the canonical predicate, the
// exact qualifying count, the planner's selectivity estimate, and whether
// it chose pushdown over rejection.
type PlanJSON struct {
	Dataset          string  `json:"dataset"`
	N                int     `json:"n"`
	Matching         int     `json:"matching"`
	Selectivity      float64 `json:"selectivity"`
	Method           string  `json:"method"`
	CanonicalSize    int     `json:"canonical_size"`
	TreeHeight       int     `json:"tree_height"`
	Where            string  `json:"where,omitempty"`
	Qualifying       int     `json:"qualifying"`
	WhereSelectivity float64 `json:"where_selectivity"`
	Pushdown         bool    `json:"pushdown,omitempty"`
	// Windowed marks a `LAST <dur>` statement (the plan's counts are over
	// the narrowed range); WindowEmpty means the window misses the queried
	// time span entirely, so nothing can qualify.
	Windowed    bool `json:"windowed,omitempty"`
	WindowEmpty bool `json:"window_empty,omitempty"`
	// SampleNeed is the sample need the exact plan was priced against when
	// Method is "exact" (omitted without an error target); it reads the
	// Qualifying records.
	SampleNeed int `json:"sample_need,omitempty"`
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	stmt := r.URL.Query().Get("q")
	if stmt == "" {
		httpError(w, http.StatusBadRequest, "missing q parameter")
		return
	}
	q, err := query.Parse(stmt)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if q.Op != query.OpEstimate {
		httpError(w, http.StatusBadRequest, "explain applies to estimate statements")
		return
	}
	h, err := s.eng.Dataset(q.Dataset)
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	rng := q.Range()
	if q.Last > 0 {
		rng = h.WindowRange(rng, q.Last)
		if !rng.Valid() {
			// The window misses the queried time span (empty dataset, or it
			// slid past the TIME clause): nothing qualifies.
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(PlanJSON{Dataset: q.Dataset, Windowed: true, WindowEmpty: true})
			return
		}
	}
	plan, err := h.ExplainEstimate(rng, q.ExplainOptions())
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	out := PlanJSON{
		Dataset:          plan.Dataset,
		N:                plan.N,
		Matching:         plan.Matching,
		Selectivity:      plan.Selectivity,
		Method:           plan.Method.String(),
		CanonicalSize:    plan.CanonicalSize,
		TreeHeight:       plan.TreeHeight,
		Where:            plan.Where,
		Qualifying:       plan.Qualifying,
		WhereSelectivity: plan.WhereSelectivity,
		Pushdown:         plan.Pushdown,
		Windowed:         q.Last > 0,
	}
	if plan.Exact {
		out.Method = "exact"
		if plan.SampleNeed < math.MaxInt {
			out.SampleNeed = plan.SampleNeed
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// textBuffer is a minimal io.Writer accumulating query output.
type textBuffer struct{ b []byte }

func (t *textBuffer) Write(p []byte) (int, error) {
	t.b = append(t.b, p...)
	return len(p), nil
}

func (t *textBuffer) String() string { return string(t.b) }

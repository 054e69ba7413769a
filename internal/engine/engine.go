// Package engine is STORM's query and analytics evaluator: it wires the
// sampler, ST-indexing, feature (estimator) and update-manager modules of
// the paper's Figure 2 architecture into online query execution.
//
// Every query shape — single and joint estimates, GROUP BY, KDE, terms,
// trajectory, clustering — runs through one driver loop (driver.go) that
// pulls spatial online samples in batches, hands them to the shape's
// consumer (an online estimator or analytic), and periodically emits
// snapshots whose confidence intervals tighten over time. The loop
// terminates when the caller's accuracy target is met, the time budget
// expires, the context is cancelled (the user moved on to a different
// region — the paper's interactive-exploration scenario), or the sample is
// exhausted (the estimate is then exact).
//
// # Concurrency
//
// Queries against one Handle run concurrently: each query goroutine holds
// the handle's read lock for its whole run, keeps all mutable state
// (sampler cursors, RNG, estimator, I/O counter) to itself, and only reads
// the shared indexes, which publish their lazy sample buffers
// copy-on-write (see packages rstree and lstree). Updates (Insert,
// InsertBatch, Delete, DeleteRange) take the write lock and serialize against
// in-flight queries; Go's RWMutex blocks new readers once a writer waits,
// so a steady query stream cannot starve updates. Per-query randomness is
// deterministic: a query's seed (explicit or drawn from the engine's
// atomic seed sequence) fully determines its sample stream, independent of
// what other queries run at the same time.
package engine

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"storm/internal/data"
	"storm/internal/distr"
	"storm/internal/geo"
	"storm/internal/iosim"
	"storm/internal/lstree"
	"storm/internal/obs"
	"storm/internal/rstree"
	"storm/internal/rtree"
	"storm/internal/sampling"
	"storm/internal/stats"
)

// Method selects the sampling strategy for a query.
type Method int

// Available sampling methods. Auto lets the query optimizer decide.
const (
	Auto Method = iota
	MethodRSTree
	MethodLSTree
	MethodRandomPath
	MethodQueryFirst
	MethodSampleFirst
	// MethodDistributed samples through the dataset's shard cluster
	// coordinator (register with IndexOptions.Shards > 0). The stream is
	// without-replacement only and degrades gracefully on shard loss. It
	// names the copies that answer, not a sampler: the exact plan may
	// answer a mean-family estimate from the shards' count round instead.
	MethodDistributed
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case Auto:
		return "auto"
	case MethodRSTree:
		return "rs-tree"
	case MethodLSTree:
		return "ls-tree"
	case MethodRandomPath:
		return "random-path"
	case MethodQueryFirst:
		return "query-first"
	case MethodSampleFirst:
		return "sample-first"
	case MethodDistributed:
		return "distributed"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Config controls engine-wide behaviour.
type Config struct {
	// Seed drives all sampling randomness; a fixed seed makes query
	// results reproducible.
	Seed int64
	// BufferPoolPages sizes the simulated buffer pool shared by all
	// indexes; 0 disables I/O simulation entirely.
	BufferPoolPages int
	// Fanout overrides the index fanout; 0 means rtree.DefaultFanout.
	Fanout int
	// Obs receives the engine's metrics. Nil means the engine creates a
	// private registry (metrics are on by default, retrievable via
	// Engine.Obs); pass a shared registry to merge engine metrics with a
	// server's or benchmark's.
	Obs *obs.Registry
	// NoMetrics disables metric collection entirely: Engine.Obs returns
	// nil and every instrumentation site degrades to a nil check (see
	// package obs). Config.Obs is ignored when set.
	NoMetrics bool
}

// Engine manages datasets, their sampling indexes, and query execution.
type Engine struct {
	mu       sync.RWMutex
	cfg      Config
	datasets map[string]*Handle
	// registering holds the names Register has reserved and is still
	// building, so the build itself can run outside mu.
	registering map[string]struct{}
	device      *iosim.Device
	seedSeq     int64
	obs         *obs.Registry
	met         *metrics
	// startShards is distr.Start; tests watch it through this.
	startShards func(ds *data.Dataset, order rtree.DatasetOrder, cfg distr.Config, addrs []string) func() (*distr.Cluster, error)
}

// New returns an engine with the given configuration.
func New(cfg Config) *Engine {
	e := &Engine{cfg: cfg, datasets: make(map[string]*Handle), registering: make(map[string]struct{}), startShards: distr.Start}
	if cfg.BufferPoolPages > 0 {
		e.device = iosim.NewDevice(cfg.BufferPoolPages, iosim.DefaultCostModel())
	}
	if !cfg.NoMetrics {
		e.obs = cfg.Obs
		if e.obs == nil {
			e.obs = obs.NewRegistry()
		}
	}
	e.met = newMetrics(e.obs)
	if e.device != nil {
		// Re-export the shared buffer pool's counters as live gauges:
		// the device owns the numbers, the Funcs read them at scrape
		// time, so nothing is double-counted.
		dev := e.device
		e.obs.PublishFunc("storm.iosim.pool.hits", func() any { return dev.Stats().Hits })
		e.obs.PublishFunc("storm.iosim.pool.misses", func() any { return dev.Stats().Reads })
		e.obs.PublishFunc("storm.iosim.pool.evictions", func() any { return dev.Stats().Evictions })
	}
	return e
}

// Obs returns the engine's metrics registry, or nil when metrics are
// disabled (Config.NoMetrics). The registry serves expvar-format JSON via
// its ServeHTTP — package server mounts it at /metrics.
func (e *Engine) Obs() *obs.Registry { return e.obs }

// Device returns the engine's simulated block device, or nil when I/O
// simulation is disabled.
func (e *Engine) Device() *iosim.Device { return e.device }

// IndexOptions controls which sampling indexes Register builds.
type IndexOptions struct {
	// LSTree builds the LS-tree during Register (the RS-tree is always
	// built: it is the engine's default sampler and range counter).
	// Without it the first query that samples with MethodLSTree builds
	// the LS-tree over the live records, holding that query's read lock
	// for the build; either way every later update maintains it.
	LSTree bool
	// Shards additionally builds a distributed cluster with this many
	// shards, served by in-process shard hosts (see package distr); 0
	// disables. When set, the optimizer prefers MethodDistributed and updates
	// are mirrored into the shard trees.
	Shards int
	// Faults installs a deterministic fault-injection plan on the cluster
	// (ignored without a cluster); nil leaves the cluster healthy. The
	// plan's own Seed field drives the injected fault sequence. Faults are
	// injected at the transport decorator, so the same plan drives
	// in-process and remote clusters identically.
	Faults *distr.FaultPlan
	// ShardAddrs runs the shard cluster remotely instead of in-process:
	// shards are placed on these stormd -role=shard host addresses by
	// consistent hashing and reached over TCP. Each host must already
	// hold a copy of the dataset under the same name (shard hosts
	// regenerate demo datasets from the same generator seed). Shards
	// defaults to len(ShardAddrs) when 0.
	ShardAddrs []string
	// Replicas keeps this many copies of each shard (0 means 1). With
	// R >= 2 the coordinator mirrors updates to every copy and fails
	// queries over to a surviving copy when a shard host dies — snapshots
	// then report failed_over instead of degraded, and answers keep their
	// full population. Ignored without a cluster. See DESIGN.md §4.8.
	Replicas int
}

// Handle is a registered dataset with its indexes. Queries share the
// handle's RWMutex as readers — the indexes publish shared state (RS-tree
// sample buffers) copy-on-write, so any number of queries run in parallel
// against one dataset — while updates (Insert, InsertBatch, Delete,
// DeleteRange) take the write side and serialize against in-flight samplers. A
// query holds the read lock for its whole run; Go's RWMutex blocks new
// readers once a writer is waiting, so updates are not starved by a steady
// query stream.
type Handle struct {
	mu   sync.RWMutex
	name string
	ds   *data.Dataset
	rs   *rstree.Index
	// ls is the dataset's LS-tree, nil until lsTree publishes it: during
	// Register when IndexOptions.LSTree asks for it, else on the first
	// MethodLSTree query (under that query's read lock, hence atomic).
	// Updates maintain it under the write lock once it exists.
	ls     atomic.Pointer[lstree.Index]
	lsOnce sync.Once
	lsErr  error
	// lsSeed seeds the LS-tree's level coin flips; fixed at Register.
	lsSeed int64
	// sums maintains the RS-tree's per-node attribute summaries (min/max
	// per numeric column). The planner prunes subtrees and estimates
	// predicate selectivity from them; they are version-keyed, so index
	// updates invalidate exactly the nodes they touch.
	sums *rtree.Summaries
	// cluster is the dataset's shard cluster (IndexOptions.Shards
	// > 0), nil otherwise. Structural mutation is additionally guarded by
	// the cluster's own lock, so queries can fetch from shards while holding
	// only this handle's read lock.
	cluster *distr.Cluster
	eng     *Engine
	// deleted marks records removed from the indexes; the columnar store
	// is append-only, so SampleFirst (which samples the raw store) must
	// filter them out. Guarded by mu: queries read it under RLock, updates
	// write it under Lock.
	deleted map[data.ID]struct{}
	// prof is the dataset's contract profile (sampling throughput and
	// per-attribute CV EWMAs); every completed estimate feeds it and the
	// contract planner reads it. Internally synchronized.
	prof contractProfile
	// dsTTCI holds the dataset's own time-to-CI milestone histograms
	// (storm.dataset.<name>.ttci.*), same thresholds as the engine-wide
	// set; the contract planner extrapolates convergence time from them.
	// Built once at Register, nil with metrics disabled.
	dsTTCI []ttciMilestone
	// wm/wmSet hold the dataset's event-time watermark (float64 bits of
	// the maximum t coordinate ever indexed); `LAST <dur>` windows anchor
	// to it. Written under the write lock, read lock-free (see window.go).
	wm    atomic.Uint64
	wmSet atomic.Bool
	// version counts the mutations that changed the indexed records; only
	// insertLocked and deleteLocked move it. Guarded by mu. A range count
	// taken at one version describes the dataset until the next.
	version uint64
}

// beginQuery is metrics.beginQuery plus the handle's per-dataset
// time-to-CI milestones, so contract telemetry accrues to the dataset the
// query actually ran on.
func (h *Handle) beginQuery(start time.Time) *queryObs {
	qo := h.eng.met.beginQuery(start)
	qo.ds = h.dsTTCI
	return qo
}

// Register indexes a dataset and makes it queryable. The dataset must not
// be mutated directly afterwards; use Insert/Delete on the handle.
//
// The engine lock is held only to reserve the name and to publish the
// finished handle, never across the build: lookups of, and queries on, the
// datasets already registered proceed while this one is indexed. Of several
// concurrent registrations of one name exactly one succeeds.
func (e *Engine) Register(ds *data.Dataset, opts IndexOptions) (*Handle, error) {
	name := ds.Name()
	e.mu.Lock()
	_, dup := e.datasets[name]
	if _, busy := e.registering[name]; dup || busy {
		e.mu.Unlock()
		return nil, fmt.Errorf("engine: dataset %q already registered", name)
	}
	e.registering[name] = struct{}{}
	e.mu.Unlock()

	h, err := e.build(ds, opts)

	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.registering, name)
	if err != nil {
		return nil, err
	}
	e.datasets[name] = h
	e.publishDataset(h)
	return h, nil
}

// build constructs a dataset's handle and indexes without touching the
// engine's registry. It sorts the dataset once: the shard cluster — its
// own devices, usually other processes — is cut from that order and built
// concurrently with the local pack of it. What is
// order-sensitive stays in the order it always had: the per-index seeds are
// drawn RS, LS (only when the LS-tree is built here; a lazily built one
// mixes the RS seed), cluster before any work starts, and the trees are
// packed against the shared device serially, RS-tree then LS-tree levels
// bottom-up, so page writes, buffer-pool state and every seeded stream are
// those of a one-index-at-a-time build.
func (e *Engine) build(ds *data.Dataset, opts IndexOptions) (*Handle, error) {
	rsSeed := e.nextSeed()
	lsSeed := stats.MixSeed(rsSeed)
	if opts.LSTree {
		lsSeed = e.nextSeed()
	}
	order := rtree.STROrderDataset(e.cfg.Fanout, ds)
	joinCluster := e.startCluster(ds, order, opts)

	h, err := e.buildLocal(ds, order, opts.LSTree, rsSeed, lsSeed)
	cluster, clusterErr := joinCluster()
	if err == nil && clusterErr != nil {
		err = fmt.Errorf("engine: building cluster for %q: %w", ds.Name(), clusterErr)
	}
	if err != nil {
		if cluster != nil {
			cluster.Close()
		}
		return nil, err
	}
	h.cluster = cluster
	return h, nil
}

// startCluster begins building the dataset's shard cluster from order, if
// opts asks for one, and returns the function that waits for it. Every
// copy's Build is written before it returns, so the shard hosts — remote
// processes or in-process Hosts — build while the local tree packs; sent
// from a goroutine, they would wait on a one-P coordinator until the local
// build yielded. Every path through build calls the returned function, so
// nothing started here outlives Register.
func (e *Engine) startCluster(ds *data.Dataset, order rtree.DatasetOrder, opts IndexOptions) (join func() (*distr.Cluster, error)) {
	if opts.Shards == 0 && len(opts.ShardAddrs) == 0 {
		return func() (*distr.Cluster, error) { return nil, nil }
	}
	return e.startShards(ds, order, distr.Config{
		Shards:   opts.Shards,
		Replicas: opts.Replicas,
		Fanout:   e.cfg.Fanout,
		Seed:     e.nextSeed(),
		Obs:      e.obs,
		Faults:   opts.Faults,
	}, opts.ShardAddrs)
}

// buildLocal builds the handle's in-process indexes from order, the
// dataset's STR order: the RS-tree, its attribute summaries, and the
// LS-tree when asked for. The sort's first read bounded the records for
// the pack's keys and found their latest time, and the leaves keep the
// sorted list's memory. The LS-tree is the one its first query would
// build (lsTree).
func (e *Engine) buildLocal(ds *data.Dataset, order rtree.DatasetOrder, withLS bool, rsSeed, lsSeed int64) (*Handle, error) {
	h := &Handle{name: ds.Name(), ds: ds, eng: e, deleted: make(map[data.ID]struct{}), lsSeed: lsSeed}
	h.advanceWatermark(order.MaxT)
	var err error
	h.rs, err = rstree.BuildSorted(order.Entries, rstree.Config{
		Fanout: e.cfg.Fanout,
		Device: e.accountant(),
		Bounds: order.Bounds,
		Seed:   rsSeed,
	})
	if err != nil {
		return nil, fmt.Errorf("engine: building RS-tree for %q: %w", ds.Name(), err)
	}
	// Bulk-load-time summary build: one tree walk computes every node's
	// attribute digests so the first predicate query pays no lazy
	// recomputation.
	h.sums = rtree.NewSummaries(h.rs.Tree(), ds)
	h.sums.Precompute()
	if withLS {
		if _, err := h.lsTree(); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// accountant is what the engine's indexes charge page accesses to: the
// shared device, or iosim.Discard without I/O simulation.
func (e *Engine) accountant() iosim.Accountant {
	if e.device != nil {
		return e.device
	}
	return iosim.Discard
}

// lsTree returns the handle's LS-tree, building it exactly once per handle
// over the live records — the dataset's rows in ID order minus the deleted
// ones, exactly the RS-tree's population: Register calls it when
// IndexOptions.LSTree asks, otherwise the first MethodLSTree query does.
// Every later call returns the first call's outcome. The caller holds h.mu
// (read side suffices: writers, the only other users of the population,
// are excluded, and concurrent first readers wait on lsOnce) or is
// building the handle.
func (h *Handle) lsTree() (*lstree.Index, error) {
	h.lsOnce.Do(func() {
		entries := h.ds.Entries()
		if len(h.deleted) > 0 {
			live := entries[:0]
			for _, e := range entries {
				if _, gone := h.deleted[e.ID]; !gone {
					live = append(live, e)
				}
			}
			entries = live
		}
		ls, err := lstree.Build(entries, lstree.Config{Fanout: h.eng.cfg.Fanout, Device: h.eng.accountant(), Seed: h.lsSeed, Attrs: h.ds})
		if err != nil {
			h.lsErr = fmt.Errorf("engine: building LS-tree for %q: %w", h.name, err)
			return
		}
		h.ls.Store(ls)
		h.eng.met.lsBuilds.Inc()
	})
	return h.ls.Load(), h.lsErr
}

// publishDataset registers a freshly published handle's per-dataset metrics.
// Caller holds e.mu, which orders it against Unregister's teardown.
func (e *Engine) publishDataset(h *Handle) {
	// Per-dataset live gauges; torn down by Unregister via the shared
	// name prefix. Publish replaces, so re-registering after Unregister
	// rebinds the Funcs to the new handle.
	prefix := "storm.dataset." + h.name + "."
	e.obs.PublishFunc(prefix+"records", func() any { return h.Len() })
	e.obs.PublishFunc(prefix+"buffer_regens", func() any { return h.rs.BufferRegens() })
	// Per-dataset convergence telemetry and contract-profile scrape
	// views: the contract planner predicts from these, and operators can
	// watch a dataset warm up. Same prefix, so Unregister tears them
	// down too.
	if e.obs != nil {
		for _, t := range ttciThresholds {
			h.dsTTCI = append(h.dsTTCI, ttciMilestone{rel: t.rel, hist: e.obs.TuningHistogram(prefix+t.short, 0.1, 16)})
		}
	}
	e.obs.PublishFunc(prefix+"contract.rate_spms", func() any {
		rate, _, _ := h.prof.snapshot("")
		return rate
	})
	e.obs.PublishFunc(prefix+"contract.profiled_queries", func() any {
		_, _, n := h.prof.snapshot("")
		return n
	})
}

// nextSeed derives a fresh deterministic seed; safe for concurrent use.
func (e *Engine) nextSeed() int64 {
	return e.cfg.Seed*1_000_003 + atomic.AddInt64(&e.seedSeq, 1)
}

// Unregister removes a dataset and its indexes from the engine. Queries
// already running against its handle finish normally; new lookups fail.
func (e *Engine) Unregister(name string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	h, ok := e.datasets[name]
	if !ok {
		return fmt.Errorf("engine: unknown dataset %q", name)
	}
	delete(e.datasets, name)
	e.obs.Unpublish("storm.dataset." + name + ".")
	if h.cluster != nil {
		// Releases a remote cluster's TCP transports and lets the obs
		// registry drop the cluster.
		h.cluster.Close()
	}
	return nil
}

// Dataset returns the handle for a registered dataset.
func (e *Engine) Dataset(name string) (*Handle, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	h, ok := e.datasets[name]
	if !ok {
		return nil, fmt.Errorf("engine: unknown dataset %q", name)
	}
	return h, nil
}

// Datasets returns the names of all registered datasets.
func (e *Engine) Datasets() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	names := make([]string, 0, len(e.datasets))
	for n := range e.datasets {
		names = append(names, n)
	}
	return names
}

// Name returns the dataset name.
func (h *Handle) Name() string { return h.name }

// Data returns the underlying dataset for read access.
func (h *Handle) Data() *data.Dataset { return h.ds }

// Columns returns the dataset's numeric and string column names, each
// sorted. Appends add columns under the write lock, so listings must come
// through here rather than iterate Data()'s column maps directly.
func (h *Handle) Columns() (numeric, str []string) {
	h.mu.RLock()
	numeric, str = h.ds.NumericColumns(), h.ds.StringColumns()
	h.mu.RUnlock()
	sort.Strings(numeric)
	sort.Strings(str)
	return numeric, str
}

// Len returns the number of live (indexed) records.
func (h *Handle) Len() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.rs.Len()
}

// Count returns |P ∩ q| exactly.
func (h *Handle) Count(q geo.Range) int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.rs.Count(q.Rect())
}

// Insert appends a record and adds it to every index (the update manager
// path: new data becomes immediately sampleable, the paper's "updates"
// demo component).
func (h *Handle) Insert(row data.Row) data.ID {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.insertLocked([]data.Row{row})[0]
}

// InsertBatch appends a batch of rows and adds them to every index under
// ONE write-lock acquisition — the streaming ingest drain path (package
// ingest) and multi-row INSERT statements. The RS-tree ingests the batch as
// Hilbert-sorted runs (rtree.Tree.InsertBatch): one descent per run instead
// of one per record, whole-run leaf splices, and evenly-filled multi-way
// splits, which is what lets the drain keep pace with producer append
// rates. Returned IDs are in the rows' original order.
func (h *Handle) InsertBatch(rows []data.Row) []data.ID {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.insertLocked(rows)
}

// insertLocked is the one insert path of the update manager: it appends
// rows to the store and adds them to every index, advances the watermark
// and moves the version once. Caller holds h.mu for writing.
func (h *Handle) insertLocked(rows []data.Row) []data.ID {
	if len(rows) == 0 {
		return nil
	}
	ids := make([]data.ID, len(rows))
	entries := make([]data.Entry, len(rows))
	h.ds.Grow(len(rows))
	for i, row := range rows {
		ids[i] = h.ds.Append(row)
		entries[i] = data.Entry{ID: ids[i], Pos: row.Pos}
	}
	h.rs.InsertBatch(entries) // reorders entries in place
	// The cluster mirrors record by record, in the RS-tree's Hilbert order;
	// the LS-tree then takes the batch (and reorders it too).
	if h.cluster != nil {
		for _, e := range entries {
			h.cluster.Insert(e)
		}
	}
	if ls := h.ls.Load(); ls != nil {
		ls.InsertBatch(entries)
	}
	h.noteTime(entries)
	h.version++
	return ids
}

// Delete removes a record from every index; its row remains in the
// columnar store but is no longer reachable by any query. Returns false if
// the record was not indexed.
func (h *Handle) Delete(id data.ID) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if int(id) >= h.ds.Len() {
		return false
	}
	return h.deleteLocked([]data.Entry{{ID: id, Pos: h.ds.Pos(id)}}) == 1
}

// deleteLocked is the one delete path of the update manager: it removes
// from every index the entries the RS-tree holds, skips the rest, and moves
// the version once if anything went. Returns how many were removed. Caller
// holds h.mu for writing.
func (h *Handle) deleteLocked(entries []data.Entry) int {
	ls := h.ls.Load()
	n := 0
	for _, e := range entries {
		if !h.rs.Delete(e) {
			continue
		}
		if ls != nil {
			ls.Delete(e)
		}
		if h.cluster != nil {
			h.cluster.Delete(e)
		}
		h.deleted[e.ID] = struct{}{}
		n++
	}
	if n > 0 {
		h.version++
	}
	return n
}

// HasLSTree reports whether the handle's LS-tree has been built, during
// Register (IndexOptions.LSTree) or by the first MethodLSTree query.
func (h *Handle) HasLSTree() bool {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.ls.Load() != nil
}

// Cluster returns the dataset's shard cluster, or nil when the
// dataset was registered without IndexOptions.Shards. Exposed for fault
// diagnostics (Cluster.FaultStats) and benchmarks.
func (h *Handle) Cluster() *distr.Cluster { return h.cluster }

// DeleteRange removes every record inside the range from all indexes and
// returns how many were removed — the update manager's bulk path
// ("DELETE FROM ds WHERE REGION(...)" in the query language).
func (h *Handle) DeleteRange(q geo.Range) (int, error) {
	if !q.Valid() {
		return 0, fmt.Errorf("engine: invalid range %+v", q)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.deleteLocked(h.rs.Tree().ReportAll(q.Rect())), nil
}

// newSampler builds a sampler for the query using the resolved method (see
// resolve; Auto is not one), seeded with seed. A non-nil plan applies
// its WHERE predicate: pushdown plans use the predicate-aware sampler
// variants (node-summary pruning with the acceptance correction that
// keeps samples uniform over qualifying records), rejection plans wrap
// the plain sampler in sampling.Filtered. Every sampler draws without
// replacement; in WithReplacement mode the outermost one is wrapped in
// sampling.WithReplacementOf over population, the qualifying count the
// stream holds (read only in that mode). When I/O simulation is enabled,
// the sampler charges a fresh per-query iosim.Counter that forwards to the
// shared device, so each concurrent query's I/O is attributed race-free;
// the returned counter is nil otherwise. The caller closes the sampler and
// holds h.mu (read side suffices).
func (h *Handle) newSampler(method Method, q geo.Rect, mode sampling.Mode, population int, seed int64, plan *wherePlan) (sampling.Sampler, *iosim.Counter, error) {
	if method == MethodDistributed && mode == sampling.WithReplacement {
		// A stream that loses a shard shrinks its population mid-stream,
		// so the adapter's fixed population would over-weight the lost
		// shard's emitted records.
		return nil, nil, fmt.Errorf("engine: distributed sampling supports without-replacement only: a lost shard would leave its emitted records over-weighted")
	}
	s, ctr, err := h.newStream(method, q, stats.NewRNG(seed), plan)
	if err != nil || mode != sampling.WithReplacement {
		return s, ctr, err
	}
	return sampling.WithReplacementOf(s, population, stats.NewRNG(stats.MixSeed(seed))), ctr, nil
}

// newStream builds newSampler's without-replacement stream.
func (h *Handle) newStream(method Method, q geo.Rect, rng *stats.RNG, plan *wherePlan) (sampling.Sampler, *iosim.Counter, error) {
	// acct stays a nil interface without a device: the samplers then charge
	// their tree's device, as they always do.
	var acct iosim.Accountant
	var ctr *iosim.Counter
	if h.eng.device != nil {
		ctr = iosim.NewCounter(h.eng.device)
		acct = ctr
	}
	switch method {
	case MethodDistributed:
		if h.cluster == nil {
			return nil, nil, fmt.Errorf("engine: dataset %q has no shard cluster (register with IndexOptions.Shards)", h.name)
		}
		if plan != nil {
			return h.cluster.SamplerWhere(q, rng, plan.terms), ctr, nil
		}
		return h.cluster.Sampler(q, rng), ctr, nil
	case MethodRSTree:
		if plan.usePushdown() {
			return h.rs.SamplerWhere(q, rng, plan.treeFilter(h.sums), acct), ctr, nil
		}
		return plan.reject(h.rs.SamplerWhere(q, rng, nil, acct)), ctr, nil
	case MethodLSTree:
		ls, err := h.lsTree()
		if err != nil {
			return nil, nil, err
		}
		if plan.usePushdown() {
			return ls.SamplerWhere(q, rng, plan.compiled, acct), ctr, nil
		}
		return plan.reject(ls.SamplerWhere(q, rng, nil, acct)), ctr, nil
	case MethodRandomPath:
		if plan.usePushdown() {
			return sampling.NewRandomPathWhere(h.rs.Tree(), q, rng, plan.treeFilter(h.sums), acct), ctr, nil
		}
		return plan.reject(sampling.NewRandomPathWhere(h.rs.Tree(), q, rng, nil, acct)), ctr, nil
	case MethodQueryFirst:
		if plan.usePushdown() {
			return sampling.NewQueryFirstWhere(h.rs.Tree(), q, rng, plan.treeFilter(h.sums), acct), ctr, nil
		}
		return plan.reject(sampling.NewQueryFirstWhere(h.rs.Tree(), q, rng, nil, acct)), ctr, nil
	case MethodSampleFirst:
		sf := sampling.NewSampleFirst(h.ds, q, rng, acct, h.rs.Tree().Fanout())
		if plan != nil {
			// SampleFirst is itself a rejection loop over the raw store;
			// the predicate joins its accept test (with the degraded-scan
			// fallback when acceptance collapses).
			sf.Pred = plan.compiled
		}
		if len(h.deleted) > 0 {
			sf.Filter = func(id data.ID) bool {
				_, gone := h.deleted[id]
				return !gone
			}
		}
		return sf, ctr, nil
	default:
		return nil, nil, fmt.Errorf("engine: unknown method %v", method)
	}
}

// Plan describes what the query optimizer would do for a range — the
// EXPLAIN output of the query language.
type Plan struct {
	// Dataset and N identify the input.
	Dataset string
	N       int
	// Matching is q = |P ∩ Q| and Selectivity is q/N.
	Matching    int
	Selectivity float64
	// Method is the sampler the optimizer picks for Auto.
	Method Method
	// CanonicalSize is r(N), the number of canonical parts of the range.
	CanonicalSize int
	// TreeHeight is the RS-tree's height.
	TreeHeight int
	// Where is the canonical form of the query's WHERE predicate; empty
	// without one.
	Where string
	// Qualifying is |P ∩ q ∩ σ|, the records satisfying both the range
	// and the predicate (equals Matching without a predicate).
	Qualifying int
	// WhereSelectivity is the planner's estimated fraction of range
	// matches satisfying the predicate (1 without one).
	WhereSelectivity float64
	// Pushdown reports whether the planner chose node-summary pruning
	// over the rejection baseline for the predicate.
	Pushdown bool
	// Exact reports that the exact plan answers the estimate without
	// sampling (ExplainEstimate): one pass over the Qualifying records,
	// taken because they are at most a fixed multiple of SampleNeed, the
	// samples its target needs (math.MaxInt without a target). Method is
	// then the sampler it would otherwise have used.
	Exact      bool
	SampleNeed int
}

// Explain returns the optimizer's plan for a range without executing it.
func (h *Handle) Explain(q geo.Range) (Plan, error) {
	return h.ExplainWhere(q, nil, PushdownAuto)
}

// choose implements the query optimizer's method selection rules
// (paper §3.2): tiny results are cheapest to report outright; queries
// covering most of the data sample efficiently straight from the raw file;
// everything else uses the RS-tree. A dataset registered with a shard
// cluster is sampled through its coordinator — that is the deployment the
// operator asked for, and the only path with graceful shard-loss
// degradation. matching yields the range's count |P ∩ q| (the request's one
// descent, see resolution.matching) and is asked only when a rule needs it.
func (h *Handle) choose(matching func() int) Method {
	if h.cluster != nil {
		return MethodDistributed
	}
	n := h.rs.Len()
	if n == 0 {
		return MethodRSTree
	}
	cnt := matching()
	switch {
	case cnt <= 2*h.rs.Tree().Fanout():
		return MethodQueryFirst
	case float64(cnt)/float64(n) >= 0.5:
		return MethodSampleFirst
	default:
		return MethodRSTree
	}
}

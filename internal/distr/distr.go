// Package distr implements STORM's distributed deployment: the paper runs
// on "a cluster of commodity machines" with a distributed Hilbert R-tree.
// Here a Cluster is a coordinator that answers spatial online sampling
// queries across a set of shard servers, each holding a contiguous run of
// leaves of the data's one STR order — the coordinator's own leaves — with
// a local RS-tree.
//
// Correctness rests on the same disjointness argument as the RS-tree's
// canonical parts: shards partition P, so drawing the next sample from
// shard s with probability proportional to s's remaining matching count
// yields a uniform without-replacement stream over P ∩ Q.
//
// The coordinator reaches shards only through the ShardClient interface
// (client.go), and every shard copy is served by a Host (host.go). The
// coordinator sorts the dataset once and each copy's Build names its
// shard's run of leaves by record ID; a host packs those records from its
// own copy of the dataset and sorts nothing. An in-process cluster runs
// its shard hosts in the coordinator's process and hands them requests
// through an in-memory transport; a remote cluster speaks the wire
// protocol over TCP to shard-host processes. Both are started by the same
// code (Start), and both report the messages their transports counted
// (one per request and one per response), so benchmarks can compare
// message counts and per-shard balance across them; TCP adds the bytes it
// moved.
//
// # Concurrency
//
// The coordinator fans shard work out in parallel: Count and a Sampler's
// initialization round contact every shard concurrently, as a real
// coordinator would. Any number of queries (Count, Samplers) may run
// concurrently; Insert and Delete take each shard's write lock and so
// serialize against in-flight rounds on that shard only. A long-lived
// Sampler that straddles an update may mix pre- and post-update state
// across batches (each batch is internally consistent); quiesce updates
// around a sampler when an exactly-uniform stream over a fixed population
// is required.
package distr

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"storm/internal/data"
	"storm/internal/estimator"
	"storm/internal/geo"
	"storm/internal/obs"
	"storm/internal/pred"
	"storm/internal/rstree"
	"storm/internal/rtree"
	"storm/internal/sampling"
	"storm/internal/stats"
	"storm/internal/wire"
)

// Config controls cluster shape.
type Config struct {
	// Shards is the number of shard servers (>= 1).
	Shards int
	// Replicas is how many copies of each shard the cluster keeps (0
	// means 1, the unreplicated layout). Remote placement maps each shard
	// to Replicas distinct hosts — the consistent-hash ring's successor
	// rule, so a pool smaller than Replicas yields fewer copies — and
	// Build runs Replicas in-process shard hosts, copy r of every shard
	// on host r. Updates mirror to every copy, the coordinator's fetch
	// path fails over to a surviving copy when the serving one dies
	// (Sampler.failover), and a query only degrades when every copy of a
	// shard is lost. See DESIGN.md §4.8.
	Replicas int
	// Fanout is each shard's RS-tree fanout; 0 means the default.
	Fanout int
	// Seed seeds the shards' RS-trees, so it fixes their sample buffers.
	Seed int64
	// Obs receives the cluster's metrics (fan-out latency, per-shard
	// fetch latency, live network counters). Nil disables collection at
	// zero cost (see package obs).
	Obs *obs.Registry
	// Faults installs a deterministic fault-injection plan (see
	// FaultPlan); nil leaves the cluster healthy and the fetch path
	// byte-identical to a plan-free build. Faults are injected at the
	// ShardClient boundary (a transport decorator), so the same plan
	// drives in-process and TCP clusters identically.
	Faults *FaultPlan
	// FetchTimeout is the coordinator's per-fetch deadline: an injected
	// latency spike at or beyond it surfaces as a timeout, and the TCP
	// transport enforces it as the request deadline. 0 means 50ms.
	FetchTimeout time.Duration
	// MaxRetries bounds how many times the coordinator retries a fetch
	// that failed transiently or timed out before abandoning the shard
	// for the query; 0 means 3. Negative disables retries.
	MaxRetries int
	// RetryBackoff is the initial retry backoff, doubled per retry; 0
	// means 200µs. Negative disables backoff sleeps (fast tests).
	RetryBackoff time.Duration
}

// normalize validates the config and fills in defaults, in place.
func (cfg *Config) normalize() error {
	if cfg.Shards < 1 {
		return fmt.Errorf("distr: need at least one shard")
	}
	if cfg.Replicas == 0 {
		cfg.Replicas = 1
	}
	if cfg.Replicas < 1 {
		return fmt.Errorf("distr: replica count %d invalid", cfg.Replicas)
	}
	if cfg.FetchTimeout == 0 {
		cfg.FetchTimeout = 50 * time.Millisecond
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 3
	} else if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = 200 * time.Microsecond
	} else if cfg.RetryBackoff < 0 {
		cfg.RetryBackoff = 0
	}
	return nil
}

// NetStats counts network traffic as the cluster's transports measured
// it: messages (requests and responses) and, over TCP, frame bytes (byte
// counters stay zero in-process, where nothing is encoded). SamplesMoved
// is the samples the coordinator's fetches delivered.
type NetStats struct {
	Messages     uint64
	SamplesMoved uint64
	BytesSent    uint64
	BytesRecv    uint64
}

// Shard is one built copy of a shard, as a Host serves it.
type Shard struct {
	ID    int
	index *rstree.Index
	// attrs maintains per-node attribute digests over the shard's local
	// RS-tree so predicate queries prune shard subtrees without any
	// coordinator round trips; guarded like the index.
	attrs *rtree.Summaries
}

// Len returns the number of records on the shard.
func (s *Shard) Len() int { return s.index.Len() }

// Index returns the shard's local RS-tree (diagnostics and benchmarks).
func (s *Shard) Index() *rstree.Index { return s.index }

// Cluster is a distributed STORM deployment: a coordinator plus one
// ShardClient per shard copy. Build wires the clients to in-process shard
// hosts in memory; BuildRemote (remote.go) wires them to shard processes
// over TCP. All coordinator logic is transport-blind.
type Cluster struct {
	// mu guards the seed sequence and the shard envelopes.
	mu  sync.Mutex
	cfg Config
	ds  *data.Dataset
	// env holds each shard's box and value envelope, indexed by shard
	// (see summary.go).
	env []envelope
	// clients is the coordinator's primary (replica 0) view of the
	// shards, in shard order, with the fault decorator applied when a
	// plan is installed; query, update and metadata traffic starts there
	// and fails over through repl.
	clients []ShardClient
	// repl holds every copy of every shard, indexed [shard][replica],
	// with repl[i][0] == clients[i]. Replicas are exact clones (same
	// partition, same build seed), so any copy can serve any request;
	// the sampler's fetch path moves a stream between copies on failure.
	// Remote replica sets may be shorter than cfg.Replicas when the host
	// pool is smaller — size per-shard loops by len(repl[i]).
	repl [][]ShardClient
	// mirrorMisses[i][r] counts update mirrors (inserts/deletes) that
	// replica r of shard i failed to apply; a failover onto a replica
	// with misses is counted as a stale read.
	mirrorMisses [][]atomic.Uint64
	// hosts are an in-process cluster's shard hosts, copy r of every shard
	// on hosts[r]; nil on a remote cluster, whose shards live in other
	// processes.
	hosts []*Host
	// transports are the distinct carriers to the shard hosts, one per
	// host; Net sums their counts.
	transports []wire.Transport
	// samplesMoved counts samples the coordinator's fetches delivered
	// (SamplesMoved has no transport-level counterpart to measure).
	samplesMoved atomic.Uint64
	// streamSeq allocates cluster-unique sample stream IDs.
	streamSeq atomic.Uint64
	met       clusterMetrics
	// faults holds the per-replica fault injectors, indexed
	// [shard][replica] (nil without a plan); ftot is the always-on fault
	// accounting (see fault.go) and rtot the replication accounting.
	faults [][]*faultState
	ftot   faultTotals
	rtot   replTotals
}

// ReplicaStats is a snapshot of cluster-wide replication activity. All
// fields are also published under storm.distr.replicas.* when the cluster
// has an observability registry.
type ReplicaStats struct {
	// Failovers counts fetch-path failovers: a sampler abandoning a dead
	// replica's stream and reopening it on a surviving copy (the query
	// keeps its full population instead of degrading).
	Failovers uint64
	// StaleReads counts failovers that landed on a replica with missed
	// update mirrors, whose stream may not reflect the newest writes.
	StaleReads uint64
	// Rebuilds counts remote shard rebuilds pushed to restarted hosts
	// (an unknown-shard answer re-ships the Build request).
	Rebuilds uint64
}

// replTotals is the cluster's always-on replication accounting (atomics,
// exact with or without an obs registry, which re-exports them as
// scrape-time Funcs).
type replTotals struct {
	failovers  atomic.Uint64
	staleReads atomic.Uint64
	rebuilds   atomic.Uint64
}

// ReplicaStats returns a snapshot of replication activity; all-zero on an
// unreplicated cluster.
func (c *Cluster) ReplicaStats() ReplicaStats {
	return ReplicaStats{
		Failovers:  c.rtot.failovers.Load(),
		StaleReads: c.rtot.staleReads.Load(),
		Rebuilds:   c.rtot.rebuilds.Load(),
	}
}

// Replicas returns the configured replication factor (remote shards may
// hold fewer copies when the host pool is smaller; see ShardStatus).
func (c *Cluster) Replicas() int { return c.cfg.Replicas }

// clusterMetrics holds the cluster's resolved metric handles; all-nil
// (every write a no-op) when Config.Obs is nil.
type clusterMetrics struct {
	// fanoutMS times each coordinator fan-out round: a Count round or a
	// sampler's initialization round.
	fanoutMS *obs.TuningHistogram
	// fetchMS times individual shard sample fetches (one request/response
	// round trip).
	fetchMS *obs.TuningHistogram
	// fetches counts shard sample-fetch messages issued by samplers.
	fetches *obs.Counter
}

// registries holds, per obs registry, the clusters publishing to it.
// Registry.Publish overwrites duplicate names, so per-cluster Funcs would
// expose only the most recently built cluster (a server registers one
// cluster per sharded dataset); instead the storm.distr.* Funcs are
// published once per registry and sum across its clusters at scrape time.
var registries = struct {
	sync.Mutex
	m map[*obs.Registry]*published
}{m: map[*obs.Registry]*published{}}

// published is one registry's share of storm.distr.*: its live clusters,
// and the final counter totals of the ones already closed, indexed like
// distrCounters. Close moves a cluster from live into retired, so the
// registry does not keep it alive and its counters never go down.
type published struct {
	live    []*Cluster
	retired [len(distrCounters)]uint64
}

// distrCounters are the monotonic storm.distr.* totals. Each cluster owns
// its atomics (exact with or without a registry); the registry reads them
// at scrape time.
var distrCounters = [...]struct {
	name string
	read func(*Cluster) uint64
}{
	{"storm.distr.net.messages", func(c *Cluster) uint64 { return c.Net().Messages }},
	{"storm.distr.net.samples_moved", func(c *Cluster) uint64 { return c.Net().SamplesMoved }},
	{"storm.distr.net.bytes_sent", func(c *Cluster) uint64 { return c.Net().BytesSent }},
	{"storm.distr.net.bytes_recv", func(c *Cluster) uint64 { return c.Net().BytesRecv }},
	{"storm.distr.faults.injected", func(c *Cluster) uint64 { return c.ftot.injected.Load() }},
	{"storm.distr.faults.latency", func(c *Cluster) uint64 { return c.ftot.latency.Load() }},
	{"storm.distr.faults.transient", func(c *Cluster) uint64 { return c.ftot.transient.Load() }},
	{"storm.distr.faults.timeouts", func(c *Cluster) uint64 { return c.ftot.timeouts.Load() }},
	{"storm.distr.faults.crashes", func(c *Cluster) uint64 { return c.ftot.crashes.Load() }},
	{"storm.distr.faults.retries", func(c *Cluster) uint64 { return c.ftot.retries.Load() }},
	{"storm.distr.faults.recoveries", func(c *Cluster) uint64 { return c.ftot.recoveries.Load() }},
	{"storm.distr.faults.exhausted", func(c *Cluster) uint64 { return c.ftot.exhausted.Load() }},
	{"storm.distr.faults.readmits", func(c *Cluster) uint64 { return c.ftot.readmits.Load() }},
	{"storm.distr.replicas.failovers", func(c *Cluster) uint64 { return c.rtot.failovers.Load() }},
	{"storm.distr.replicas.stale_reads", func(c *Cluster) uint64 { return c.rtot.staleReads.Load() }},
	{"storm.distr.replicas.rebuilds", func(c *Cluster) uint64 { return c.rtot.rebuilds.Load() }},
}

// initMetrics resolves the cluster's metrics against cfg.Obs and
// re-exports the network and fault totals as live scrape-time Funcs.
func (c *Cluster) initMetrics() {
	reg := c.cfg.Obs
	c.met = clusterMetrics{
		fanoutMS: reg.TuningHistogram("storm.distr.fanout.latency_ms", 0.1, 16),
		fetchMS:  reg.TuningHistogram("storm.distr.fetch.latency_ms", 0.1, 16),
		fetches:  reg.Counter("storm.distr.fetches"),
	}
	if reg == nil {
		return
	}
	registries.Lock()
	defer registries.Unlock()
	if p := registries.m[reg]; p != nil {
		p.live = append(p.live, c) // this registry's scrape Funcs are already live
		return
	}
	p := &published{live: []*Cluster{c}}
	registries.m[reg] = p
	// Every Func sums under the lock, so a cluster being retired is counted
	// once: live or retired, never both.
	for i, m := range distrCounters {
		reg.PublishFunc(m.name, func() any {
			registries.Lock()
			defer registries.Unlock()
			n := p.retired[i]
			for _, c := range p.live {
				n += m.read(c)
			}
			return n
		})
	}
	// The two gauges describe live clusters only.
	reg.PublishFunc("storm.distr.shards", func() any {
		registries.Lock()
		defer registries.Unlock()
		n := 0
		for _, c := range p.live {
			n += len(c.clients)
		}
		return n
	})
	reg.PublishFunc("storm.distr.faults.shards_down", func() any {
		registries.Lock()
		defer registries.Unlock()
		var n int64
		for _, c := range p.live {
			n += c.ftot.shardsDown.Load()
		}
		return n
	})
}

// retire removes a closed cluster from its registry's live list and folds
// its final counter totals into the registry's retired sums. It is a no-op
// without a registry and on a second Close.
func (c *Cluster) retire() {
	registries.Lock()
	defer registries.Unlock()
	p := registries.m[c.cfg.Obs]
	if p == nil {
		return
	}
	i := slices.Index(p.live, c)
	if i < 0 {
		return
	}
	p.live = slices.Delete(p.live, i, i+1)
	for j, m := range distrCounters {
		p.retired[j] += m.read(c)
	}
}

// observeMS records elapsed wall time since start into h (no-op on a nil
// histogram).
func observeMS(h *obs.TuningHistogram, start time.Time) {
	if h == nil {
		return
	}
	h.Observe(float64(time.Since(start)) / float64(time.Millisecond))
}

// Build runs the cluster's shard hosts in this process: cfg.Replicas
// Hosts, each holding ds itself and reached through an in-memory
// transport, with copy r of every shard on host r. It sorts ds once and
// builds every shard copy from that order exactly as a cluster of shard
// processes is built (Start). Leaf runs keep shards spatially coherent, so
// selective queries touch few shards — one packed R-tree cut across
// machines, the layout the paper describes.
func Build(ds *data.Dataset, cfg Config) (*Cluster, error) {
	return Start(ds, rtree.STROrderDataset(cfg.Fanout, ds), cfg, nil)()
}

// newMirrorMisses sizes the per-replica missed-mirror counters to the
// cluster's actual replica sets (remote sets may be shorter than the
// configured factor).
func newMirrorMisses(repl [][]ShardClient) [][]atomic.Uint64 {
	mm := make([][]atomic.Uint64, len(repl))
	for i := range repl {
		mm[i] = make([]atomic.Uint64, len(repl[i]))
	}
	return mm
}

// Shards returns the primary copy of every shard of an in-process
// cluster — the shards its host 0 built — and nil on a remote one.
func (c *Cluster) Shards() []*Shard {
	if c.Remote() {
		return nil
	}
	out := make([]*Shard, len(c.clients))
	for s := range out {
		out[s] = c.hosts[0].backend(wire.Target{DS: c.ds.Name(), Shard: uint32(s)}).shard
	}
	return out
}

// NumShards returns how many shards the cluster has, local or remote.
func (c *Cluster) NumShards() int { return len(c.clients) }

// Remote reports whether the cluster's shards are remote processes (it
// runs no in-process shard host).
func (c *Cluster) Remote() bool { return len(c.hosts) == 0 }

// Net returns the traffic the cluster's transports counted since they
// were built or last reset, and the samples its fetches delivered.
func (c *Cluster) Net() NetStats {
	n := NetStats{SamplesMoved: c.samplesMoved.Load()}
	for _, t := range c.transports {
		ct := t.Counts()
		n.Messages += ct.MsgsSent + ct.MsgsRecv
		n.BytesSent += ct.BytesSent
		n.BytesRecv += ct.BytesRecv
	}
	return n
}

// ResetNet zeroes the network counters.
func (c *Cluster) ResetNet() {
	for _, t := range c.transports {
		t.Reset()
	}
	c.samplesMoved.Store(0)
}

// Close releases the cluster's transports and withdraws it from its obs
// registry, whose storm.distr.* counters keep its final totals.
func (c *Cluster) Close() error {
	var first error
	for _, t := range c.transports {
		if err := t.Close(); err != nil && first == nil {
			first = err
		}
	}
	c.retire()
	return first
}

// Insert routes a new record to the live shard whose coordinator-side box
// grows least (see Cluster.route), widens that shard's envelope with the
// record's position and values, and mirrors it into every replica of the
// shard's RS-tree (one request/response message per copy) — no other
// shard is asked. A replica that fails to apply the mirror is charged a
// missed mirror, so a later failover onto it counts as a stale read. The
// record must already exist in the shared dataset (its ID addresses the
// attribute columns).
func (c *Cluster) Insert(e data.Entry) {
	// Liveness first, outside c.mu: a down remote shard's check may probe
	// TCP.
	live := make([]int, 0, len(c.clients))
	for i := range c.clients {
		if !c.shardDown(i) {
			live = append(live, i)
		}
	}
	num, str := insertAttrs(c.ds, e.ID)
	best := c.route(live, e.Pos, num)
	if best < 0 {
		return // every shard down: nowhere to route the record
	}
	for r, cl := range c.repl[best] {
		if err := cl.Insert(e, num, str); err != nil {
			c.mirrorMisses[best][r].Add(1)
		}
	}
}

// Delete removes a record from whichever shard holds it — mirrored to
// every replica of that shard — and returns false if no shard does.
// Worst case it asks every copy of every shard (2 messages each). A
// replica that errored while another copy of the same shard held the
// record is charged a missed mirror.
func (c *Cluster) Delete(e data.Entry) bool {
	for i := range c.clients {
		if c.shardDown(i) {
			continue
		}
		found := false
		var missed []int
		for r, cl := range c.repl[i] {
			ok, err := cl.Delete(e)
			if err != nil {
				missed = append(missed, r)
				continue
			}
			if ok {
				found = true
			}
		}
		if found {
			for _, r := range missed {
				c.mirrorMisses[i][r].Add(1)
			}
			return true
		}
	}
	return false
}

// Count returns |P ∩ q| by fanning the count to every shard in parallel
// (one request and one response message each), as the coordinator of a
// real cluster would. Crashed shards do not answer; their records are
// simply absent from the total, so a degraded cluster reports the
// surviving population — the honest effective N for estimators built on
// top of it.
func (c *Cluster) Count(q geo.Rect) int {
	return c.CountWhere(q, nil)
}

// CountWhere is Count restricted to records satisfying the predicate
// terms: the predicate ships to every shard (a few dozen bytes each), and
// each shard counts with its local summaries pruning the descent — the
// records the predicate rejects never cross the wire.
func (c *Cluster) CountWhere(q geo.Rect, where []pred.Term) int {
	total := 0
	for _, ok := range c.countRound(wire.Count{Query: q, Where: where}) {
		total += int(ok.N)
	}
	return total
}

// Moments is the count round of the exact plan: CountWhere's fan-out,
// whose request also names attribute attr and a record limit, so each
// shard with at most limit qualifying records answers with the moments of
// attr's present values over them. m.Records is the total count, m.Values
// the shards' moments merged by Chan–Golub–LeVeque, and summed reports
// that every shard holding qualifying records summed them, so Values
// covers all Records. Shards that do not answer are absent from both, as
// from CountWhere's total.
func (c *Cluster) Moments(q geo.Rect, where []pred.Term, attr string, limit int) (m rtree.Moments, summed bool) {
	summed = true
	for _, ok := range c.countRound(wire.Count{Query: q, Where: where, Attr: attr, Limit: uint64(limit)}) {
		m.Records += int(ok.N)
		if !ok.Summed && ok.N > 0 {
			summed = false
		}
		m.Values.Merge(estimator.FromMoments(int(ok.Values.N), ok.Values.Mean, ok.Values.M2))
	}
	return m, summed
}

// countRound sends req to every shard that is not down, in parallel (one
// request and one response message each), and returns one answer per
// shard: the zero CountOK for a shard none of whose copies answered.
func (c *Cluster) countRound(req wire.Count) []wire.CountOK {
	start := time.Now()
	defer observeMS(c.met.fanoutMS, start)
	answers := make([]wire.CountOK, len(c.clients))
	var wg sync.WaitGroup
	for i := range c.clients {
		if c.shardDown(i) {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Replicas hold identical trees: the first copy that answers
			// speaks for the shard (the primary answers first in the
			// healthy case, keeping the unreplicated path unchanged).
			for _, cl := range c.repl[i] {
				if ok, err := cl.Count(req); err == nil {
					answers[i] = ok
					return
				}
			}
		}(i)
	}
	wg.Wait()
	return answers
}

// Sampler returns a without-replacement online sampler over the cluster.
type Sampler struct {
	cluster *Cluster
	query   geo.Rect
	// where is the query's predicate in normal form (nil = none); it rides
	// on every Open — including fault-recovery reopens — so shards prune
	// and filter locally.
	where []pred.Term
	// rng is the query's: it draws the shards' open seeds, then every
	// sample's shard, so the query's seed fixes the whole stream.
	rng *stats.RNG
	// per-shard state: the sample stream ID each shard serves this query
	// under, whether that stream was opened, and the remaining matching
	// count driving the draw distribution.
	streams []uint64
	// seeds[i] is the seed shard i's stream was last opened with; a reopen
	// (resume) steps it by stats.MixSeed rather than drawing from rng, so
	// where a fault lands in a round cannot shift the shard draws.
	seeds     []int64
	open      []bool
	remaining []int
	buffers   [][]data.Entry
	// heads[i] is the read cursor into buffers[i]; entries before it have
	// been emitted.
	heads []int
	// emitted records each shard's emitted record IDs so a restarted
	// shard's stream can be reopened — or failed over to another replica —
	// with an exclude list (the fresh stream must not redeliver them).
	emitted [][]data.ID
	// repl[i] is the replica currently serving shard i's stream; the
	// fetch path's failover moves it to a surviving copy (see failover).
	repl   []int
	total  int
	init   bool
	closed bool
	// draws counts the samples NextBatch has delivered.
	draws uint64
	// failovers counts this query's fetch-path failovers.
	failovers int
	// degradation state: shards this query lost mid-stream (crashes or
	// retry exhaustion) and the matching population that went with them.
	// lost stashes each lost shard's unemitted count so a crashed shard
	// that comes back can be re-admitted exactly where it left off (see
	// maybeReadmit); readmits counts the re-admissions this query made.
	lostShards int
	lostPop    int
	lost       map[int]lostShard
	readmits   int
	// round scratch (see batchRound), reused across rounds.
	simRem  []int
	choices []int
	demand  []int
	// deadline, when set, bounds the query's wall clock at the fetch
	// boundary (see SetDeadline); deadlineHit latches once it passes so
	// draw loops stop cleanly instead of writing reachable shards off.
	deadline    time.Time
	deadlineHit bool
}

// Sampler returns an online sampler for q across all shards, drawing from
// rng: two samplers over the same cluster state and equally seeded RNGs
// deliver the same stream.
func (c *Cluster) Sampler(q geo.Rect, rng *stats.RNG) *Sampler {
	return c.SamplerWhere(q, rng, nil)
}

// SamplerWhere returns an online sampler for q restricted to records
// satisfying the predicate terms. The predicate ships with every shard
// stream open, so shards prune with their local summaries and rejected
// records never cross the wire; the merged stream is exactly uniform over
// the cluster's qualifying records. Nil terms are exactly Sampler.
func (c *Cluster) SamplerWhere(q geo.Rect, rng *stats.RNG, where []pred.Term) *Sampler {
	return &Sampler{cluster: c, query: q, where: where, rng: rng}
}

var _ sampling.Sampler = (*Sampler)(nil)

// Name implements sampling.Sampler.
func (s *Sampler) Name() string { return "distributed-rs-tree" }

// SamplerStats implements sampling.Sampler. Draws is the samples delivered
// to the consumer; the shards' own rejections and scans stay on the shards.
func (s *Sampler) SamplerStats() sampling.SamplerStats {
	return sampling.SamplerStats{Draws: s.draws}
}

// SetDeadline installs a wall-clock deadline enforced at the shard fetch
// boundary: per-fetch RPC timeouts are capped at the time remaining,
// retry/backoff cycles stop at the deadline, and draw calls return short
// once it has passed — without writing any shard off, since a deadline
// expiry says nothing about shard health. The engine threads
// Options.TimeBudget (and with it contract deadlines) through here so one
// slow or faulted shard cannot run a bounded query past its budget. The
// zero time clears the deadline.
func (s *Sampler) SetDeadline(t time.Time) {
	s.deadline = t
	s.deadlineHit = false
}

// expired reports (and latches) whether the sampler's deadline passed.
func (s *Sampler) expired() bool {
	if s.deadlineHit {
		return true
	}
	if !s.deadline.IsZero() && !time.Now().Before(s.deadline) {
		s.deadlineHit = true
	}
	return s.deadlineHit
}

// initialize runs the coordinator's count round, opening a sample stream
// on every shard in parallel. The shards' seeds are the query RNG's first
// draws, taken serially up front, so the stream is deterministic in the
// query's seed regardless of shard timing.
func (s *Sampler) initialize() {
	start := time.Now()
	s.init = true
	cl := s.cluster
	defer observeMS(cl.met.fanoutMS, start)
	n := len(cl.clients)
	s.streams = make([]uint64, n)
	s.open = make([]bool, n)
	s.remaining = make([]int, n)
	s.buffers = make([][]data.Entry, n)
	s.heads = make([]int, n)
	s.repl = make([]int, n)
	s.emitted = make([][]data.ID, n)
	s.seeds = make([]int64, n)
	for i := range s.seeds {
		s.seeds[i] = s.rng.Int63()
	}
	for i := range s.streams {
		s.streams[i] = cl.streamSeq.Add(1)
	}
	var wg sync.WaitGroup
	for i := range cl.clients {
		if cl.shardDown(i) {
			// Already-crashed shards do not answer the count round: the
			// query runs over the surviving population from the start
			// (and is not marked degraded — nothing was lost mid-query).
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Open on the first replica that answers (the primary, when
			// healthy — identical to the unreplicated path). A replica that
			// refuses the open is skipped like a pre-crashed shard; only a
			// shard none of whose copies answered is absent from the query.
			for r, rc := range cl.repl[i] {
				got, err := rc.Open(s.streams[i], s.query, s.seeds[i], nil, s.where)
				if err != nil {
					continue
				}
				s.repl[i] = r
				s.remaining[i] = got
				s.open[i] = got > 0
				return
			}
		}(i)
	}
	wg.Wait()
	for _, rem := range s.remaining {
		s.total += rem
	}
}

// buffered returns how many fetched-but-unemitted samples shard has.
func (s *Sampler) buffered(shard int) int {
	return len(s.buffers[shard]) - s.heads[shard]
}

// pop emits the next buffered sample of shard, updating the counts.
func (s *Sampler) pop(shard int) data.Entry {
	e := s.buffers[shard][s.heads[shard]]
	s.heads[shard]++
	s.remaining[shard]--
	s.total--
	if s.emitted != nil {
		s.emitted[shard] = append(s.emitted[shard], e.ID)
	}
	return e
}

// NextBatch implements sampling.Sampler with the coordinator's one
// protocol, run in rounds (see batchRound): each sample's owning shard is
// drawn with probability proportional to its remaining matching count, the
// round's per-shard demand is fetched with ONE request per shard — sized by
// that demand — and the round is assembled from the buffered shard streams
// in draw order. k samples therefore cost at most one message round trip
// per participating shard, and a one-sample pull is a round of one draw.
func (s *Sampler) NextBatch(dst []data.Entry, k int) int {
	if k > len(dst) {
		k = len(dst)
	}
	if k <= 0 {
		return 0
	}
	if !s.init {
		s.initialize()
	}
	got := 0
	for got < k {
		if s.deadlineHit {
			break
		}
		// Poll for recovered shards before giving up on an exhausted
		// stream: a crashed shard that came back re-enters the draw
		// distribution here, and the poll itself advances a still-down
		// shard's recovery clock (no-op for healthy queries).
		s.maybeReadmit()
		if s.total <= 0 {
			break
		}
		n := s.batchRound(dst[got:], k-got)
		if n == 0 && s.total <= 0 {
			break
		}
		if n == 0 && s.deadlineHit {
			break
		}
		got += n
	}
	s.draws += uint64(got)
	return got
}

// batchRound serves up to k samples: simulate choices, fetch deficits,
// assemble. Returns how many samples were written to dst.
func (s *Sampler) batchRound(dst []data.Entry, k int) int {
	m := k
	if m > s.total {
		m = s.total
	}
	shards := len(s.remaining)
	if cap(s.simRem) < shards {
		s.simRem = make([]int, shards)
		s.demand = make([]int, shards)
	}
	simRem := s.simRem[:shards]
	demand := s.demand[:shards]
	copy(simRem, s.remaining)
	for i := range demand {
		demand[i] = 0
	}
	if cap(s.choices) < m {
		s.choices = make([]int, m)
	}
	choices := s.choices[:m]

	// Phase 1: draw the round's shard sequence against scratch counts,
	// one RNG step per sample whatever the round size — which is what
	// keeps the stream chunking-invariant.
	total := s.total
	for j := 0; j < m; j++ {
		r := s.rng.Intn(total)
		shard := 0
		for i, rem := range simRem {
			if r < rem {
				shard = i
				break
			}
			r -= rem
		}
		choices[j] = shard
		simRem[shard]--
		total--
		demand[shard]++
	}

	// Phase 2: one demand-sized fetch per shard that needs more samples.
	for i := range demand {
		if deficit := demand[i] - s.buffered(i); deficit > 0 {
			s.fetchInto(i, deficit)
		}
	}

	// Phase 3: assemble in choice order. A shard that under-delivered — it
	// was lost in phase 2, or (never expected) bookkeeping said it had
	// samples and it returned none — has its count zeroed and its choices
	// skipped. The survivors' choices stay proportional to their counts, so
	// the stream stays uniform, but the rest of a round wider than one draw
	// is not the sequence redrawing would have produced: losing a shard
	// mid-round is the one state in which the stream depends on pull size.
	got := 0
	for _, shard := range choices {
		if s.remaining[shard] <= 0 {
			continue
		}
		if s.buffered(shard) == 0 {
			if s.deadlineHit {
				// The shard's fetch was cut off by the deadline, not
				// refused: abandon the round without zeroing its count.
				break
			}
			s.total -= s.remaining[shard]
			s.remaining[shard] = 0
			continue
		}
		dst[got] = s.pop(shard)
		got++
	}
	return got
}

// fetchInto pulls up to n more samples from the shard's stream into its
// buffer (one request and one response message).
func (s *Sampler) fetchInto(shard, n int) {
	if !s.open[shard] {
		return
	}
	if n > s.remaining[shard] {
		n = s.remaining[shard]
	}
	if n <= 0 {
		return
	}
	if s.buffered(shard) == 0 {
		s.buffers[shard] = s.buffers[shard][:0]
		s.heads[shard] = 0
	}
	fetchStart := time.Now()
	defer observeMS(s.cluster.met.fetchMS, fetchStart)
	s.cluster.met.fetches.Inc()
	buf := s.buffers[shard]
	start := len(buf)
	if cap(buf) < start+n {
		grown := make([]data.Entry, start, start+n)
		copy(grown, buf)
		buf = grown
	}
	buf = buf[:start+n]
	got, lost, crashed := s.clientFetch(shard, buf[start:], n)
	s.buffers[shard] = buf[:start+got]
	if lost {
		s.loseShard(shard, crashed)
		return
	}
	s.cluster.samplesMoved.Add(uint64(got))
}

// clientFetch performs one fetch against the replica serving the shard's
// stream, retrying transient failures and timeouts with exponential
// backoff up to cfg.MaxRetries. It returns lost = true when the shard is
// unavailable to this query; crashLost distinguishes a down shard
// (cluster-wide — a recoverable one may later be re-admitted via
// maybeReadmit) from retry exhaustion (the server stayed up; the loss is
// query-local and final). A recoverable down replica is retried like a
// transient fault — each probe advances an injected crash's recovery
// clock, so a replica that comes back within the retry budget serves the
// fetch and the stream is untouched.
//
// With replication, every point that would write the shard off first
// tries to fail the stream over to a surviving replica (see failover);
// the shard is lost — and the query degrades — only when no copy can
// serve it. The failover budget of one move per surviving replica per
// fetch bounds ping-ponging when a fault plan is hitting every copy at
// once. On a healthy client the first attempt succeeds and the path is
// byte-identical to a direct backend fetch.
func (s *Sampler) clientFetch(shard int, dst []data.Entry, n int) (got int, lost, crashLost bool) {
	cl := s.cluster
	backoff := cl.cfg.RetryBackoff
	reopened := false
	failoversLeft := len(cl.repl[shard]) - 1
	// tryFailover moves the stream to a surviving replica and restarts
	// the attempt/backoff cycle against it; done (with zero remaining)
	// means the reopened stream has nothing left to deliver — the shard
	// is exhausted, not lost.
	tryFailover := func() (moved, done bool) {
		if failoversLeft <= 0 || !s.failover(shard) {
			return false, false
		}
		failoversLeft--
		return true, s.remaining[shard] == 0
	}
	for attempt := 0; ; attempt++ {
		if s.expired() {
			// Deadline passed before this attempt: give the query back to
			// the evaluator with what it has. The shard is NOT lost —
			// nothing here is evidence against it.
			return 0, false, false
		}
		got, err := s.fetchOnce(shard, dst, n)
		if err == nil {
			if attempt > 0 {
				cl.ftot.recoveries.Add(1)
			}
			return got, false, false
		}
		var down *shardDownError
		switch {
		case errors.As(err, &down):
			if !down.Recoverable || attempt >= cl.cfg.MaxRetries {
				// Permanently down, or down past this fetch's retry
				// budget: fail over to a surviving replica, or — with no
				// copy left — write the shard off. A recoverable shard
				// may still rejoin a later coordinator contact.
				if moved, done := tryFailover(); moved {
					if done {
						return 0, false, false
					}
					attempt, reopened = -1, false
					continue
				}
				return 0, true, true
			}
		case errors.Is(err, ErrUnknownStream):
			// The shard answered but no longer has the stream — the
			// signature of a shard process restart. Resume it once on the
			// same replica; if that fails (or the resumed stream is
			// unknown again) the stream fails over, or without replicas
			// the shard is written off like a crash so re-admission can
			// retry later.
			if !reopened {
				if got, ok := s.resume(shard, s.repl[shard]); ok && got > 0 {
					reopened = true
					continue
				}
			}
			if moved, done := tryFailover(); moved {
				if done {
					return 0, false, false
				}
				attempt, reopened = -1, false
				continue
			}
			return 0, true, true
		default:
			// Timeouts, transient faults, and transport errors that are
			// not a down verdict: retryable.
		}
		if attempt >= cl.cfg.MaxRetries {
			if moved, done := tryFailover(); moved {
				if done {
					return 0, false, false
				}
				attempt, reopened = -1, false
				continue
			}
			cl.ftot.exhausted.Add(1)
			return 0, true, false
		}
		cl.ftot.retries.Add(1)
		if backoff > 0 {
			if !s.deadline.IsZero() && !time.Now().Add(backoff).Before(s.deadline) {
				// Sleeping through the deadline helps nobody: stop the
				// retry cycle here (again without losing the shard).
				s.deadlineHit = true
				return 0, false, false
			}
			time.Sleep(backoff)
			backoff *= 2
		}
	}
}

// client returns the ShardClient currently serving shard's stream: the
// replica the query opened on, or the one it last failed over to.
func (s *Sampler) client(shard int) ShardClient {
	return s.cluster.repl[shard][s.repl[shard]]
}

// fetchOnce performs a single fetch attempt under the sampler's deadline
// (the TCP transport caps the request timeout at the time remaining, so a
// stuck shard cannot hold the query past its budget).
func (s *Sampler) fetchOnce(shard int, dst []data.Entry, n int) (int, error) {
	return s.client(shard).Fetch(s.streams[shard], dst, n, s.deadline)
}

// resume opens a fresh stream for shard on replica r with this query's
// emitted IDs excluded and makes it the stream the shard is served from —
// the one way a stream continues after the one it was on is gone, whether
// the serving process restarted (same replica) or died (failover).
// Filtering a uniform WOR stream by a fixed exclude set leaves the
// complement uniform, so the merged emissions stay exactly uniform without
// replacement. The fetched-but-unemitted buffer came from the abandoned
// stream and the fresh one would redeliver it, so it is dropped and the
// shard's remaining count re-based on the fresh stream's matching count.
// ok is false when the open failed, in which case nothing changed.
func (s *Sampler) resume(shard, r int) (got int, ok bool) {
	cl := s.cluster
	stream := cl.streamSeq.Add(1)
	var exclude []data.ID
	if s.emitted != nil {
		exclude = s.emitted[shard]
	}
	seed := stats.MixSeed(s.seeds[shard])
	got, err := cl.repl[shard][r].Open(stream, s.query, seed, exclude, s.where)
	if err != nil {
		return 0, false
	}
	s.seeds[shard] = seed
	s.buffers[shard] = s.buffers[shard][:0]
	s.heads[shard] = 0
	s.total += got - s.remaining[shard]
	s.remaining[shard] = got
	s.streams[shard] = stream
	s.open[shard] = got > 0
	s.repl[shard] = r
	return got, true
}

// failover moves shard's stream to a surviving replica after the serving
// copy died (see resume). The shard's unemitted matching count re-enters
// the draw distribution at the reopened stream's count, so nothing is
// written off, the population does not shrink, and the query does not
// degrade. Returns false when no surviving replica could serve the stream
// (the caller then degrades exactly as an unreplicated cluster would); a
// successful move onto an already-exhausted stream still returns true —
// the shard is drained, not lost.
func (s *Sampler) failover(shard int) bool {
	cl := s.cluster
	reps := cl.repl[shard]
	cur := s.repl[shard]
	for step := 1; step < len(reps); step++ {
		r := (cur + step) % len(reps)
		if cl.replicaDown(shard, r) {
			continue
		}
		if _, ok := s.resume(shard, r); !ok {
			continue
		}
		s.failovers++
		cl.rtot.failovers.Add(1)
		if cl.mirrorMisses[shard][r].Load() > 0 {
			cl.rtot.staleReads.Add(1)
		}
		return true
	}
	return false
}

// lostShard stashes a lost shard's unemitted matching count so a crashed
// shard that recovers can be re-admitted exactly where it left off (the
// stream itself survives on the shard side — in the backend's table, or
// reopened on a restarted process with the emitted IDs excluded).
type lostShard struct {
	remaining int
	// crash marks a cluster-wide shard crash (re-admittable when the
	// shard recovers) as opposed to query-local retry exhaustion (the
	// shard server never went down, so there is no recovery to wait for
	// and the loss is final).
	crash bool
}

// loseShard degrades the query after shard became unavailable (crash, or
// retries exhausted): its unemitted matching population is written off,
// which both re-weights the draw distribution over the survivors (draws
// are proportional to per-shard remaining counts) and shrinks the stream's
// effective population so estimators widen their intervals honestly.
// Samples already emitted from the shard stay in the stream. The unemitted
// count is stashed rather than discarded (remaining still counts the
// buffered entries, so the write-off is exact and unreachable entries stay
// unreachable): if the shard was crash-lost and later recovers,
// maybeReadmit restores the stream exactly where it stopped.
func (s *Sampler) loseShard(shard int, crash bool) {
	if !s.open[shard] && s.remaining[shard] == 0 {
		return
	}
	if s.lost == nil {
		s.lost = make(map[int]lostShard)
	}
	s.lost[shard] = lostShard{remaining: s.remaining[shard], crash: crash}
	s.lostShards++
	s.lostPop += s.remaining[shard]
	s.total -= s.remaining[shard]
	s.remaining[shard] = 0
}

// maybeReadmit re-admits crash-lost shards whose servers have come back:
// the stashed unemitted matching count is restored, the draw distribution
// re-weights itself back over the full population (draws are proportional
// to per-shard remaining counts, so restoring the count IS the
// re-weighting — every still-unemitted record, on every shard, is again
// equally likely next), and Status reports the smaller lost population so
// the query driver re-grows its effective N. Each poll of a still-down shard
// advances its recovery clock, making a sampling query double as the
// liveness probe. No-op for healthy queries (len(lost) == 0) and for
// exhaustion-lost shards (nothing to recover from). Queries that started
// while a shard was already down scoped themselves to the surviving
// population at their count round and never re-admit it.
func (s *Sampler) maybeReadmit() {
	if len(s.lost) == 0 {
		return
	}
	for shard, st := range s.lost {
		if !st.crash || s.cluster.shardDown(shard) {
			continue
		}
		delete(s.lost, shard)
		s.remaining[shard] = st.remaining
		s.total += st.remaining
		s.lostShards--
		s.lostPop -= st.remaining
		s.readmits++
	}
}

// Close releases the query's sample streams on every shard (best-effort:
// a down shard's stream dies with its process). Safe to call more than
// once; a sampler that was never initialized has nothing to close.
func (s *Sampler) Close() error {
	if s.closed || !s.init {
		s.closed = true
		return nil
	}
	s.closed = true
	for i, open := range s.open {
		if open {
			_ = s.client(i).CloseStream(s.streams[i])
		}
	}
	return nil
}

// StreamStatus is the health of one query's merged shard stream at a
// point in time: the one value the engine's query driver reads to stamp
// snapshots degraded / recovered / failed-over and to shrink the
// effective population. The zero value is a healthy stream.
type StreamStatus struct {
	// ShardsLost and LostPopulation are the shards the query has
	// currently written off and the matching records stranded on them.
	ShardsLost, LostPopulation int
	// Readmits counts lost shards re-admitted after recovering; a stream
	// with Readmits > 0 and ShardsLost == 0 is back on its full population.
	Readmits int
	// Failovers counts shard streams moved onto a surviving replica; the
	// population stays intact across a failover.
	Failovers int
	// LostLo and LostHi bound every lost record's value of the attribute
	// Status was asked about (see LostMassBounds); LostBounded is false
	// when the stream is healthy, no attribute was named, or the lost
	// shards' envelopes give no sound bound for it.
	LostLo, LostHi float64
	LostBounded    bool
}

// Status reports the stream's current health. attr, when non-empty, names
// the aggregated attribute whose lost-mass value bounds the status should
// carry; the envelopes behind them are only consulted while degraded.
func (s *Sampler) Status(attr string) StreamStatus {
	st := StreamStatus{
		ShardsLost:     s.lostShards,
		LostPopulation: s.lostPop,
		Readmits:       s.readmits,
		Failovers:      s.failovers,
	}
	if attr != "" && s.lostShards > 0 {
		st.LostLo, st.LostHi, _, st.LostBounded = s.LostMassBounds(attr)
	}
	return st
}

// Fault injection and graceful degradation for the cluster.
//
// A FaultPlan scripts, per shard, the failure modes a distributed STORM
// deployment sees in practice — latency spikes, transient fetch errors,
// request timeouts, and hard shard crashes — deterministically in a seed,
// so every robustness test replays bit-for-bit. Faults are injected at the
// ShardClient boundary by a transport decorator (faultClient): the
// coordinator's fetch path observes them exactly where a real coordinator
// observes remote failures, and the same plan drives in-process shard
// hosts and a TCP cluster identically.
//
// The coordinator's contract under faults follows BlinkDB-style partial
// failure semantics: it never blocks a query on a lost shard. Transient
// faults and timeouts are retried with exponential backoff up to
// Config.MaxRetries; a crashed shard (or one whose retries are exhausted)
// is dropped from the query, the fetch distribution re-weights itself over
// the surviving shards (draws are proportional to per-shard remaining
// counts, so zeroing the lost shard's count is the re-weighting), and the
// lost population mass is reported through Sampler.Status so the query
// driver shrinks its effective N and keeps confidence intervals honest
// over the surviving population instead of silently biasing.
//
// Crashes need not be permanent: a recover-after schedule brings the
// shard back once the coordinator has observed it down that many times,
// and the coordinator re-admits it — cluster-wide (shards_down clears,
// count rounds and routing see it again) and per query (an in-flight
// sampler restores the shard's stashed stream and matching count, so the
// draw distribution re-weights back over the full population and
// estimators re-grow their effective N). See Sampler.maybeReadmit and
// DESIGN.md §4.3.
//
// Every fault event is counted under storm.distr.faults.* when the cluster
// has an obs.Registry, and is always available via Cluster.FaultStats.
package distr

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"storm/internal/data"
	"storm/internal/stats"
)

// FaultKind classifies one injected fault event.
type FaultKind int

// The injectable fault kinds, in escalating severity.
const (
	// FaultNone means the fetch proceeds normally.
	FaultNone FaultKind = iota
	// FaultLatency delays the fetch by the plan's Latency; a delay at or
	// beyond the per-fetch deadline is observed by the coordinator as a
	// timeout instead.
	FaultLatency
	// FaultTransient fails the fetch with a retryable error (a dropped
	// connection, a momentary shard overload).
	FaultTransient
	// FaultTimeout makes the fetch exceed the coordinator's per-fetch
	// deadline; retryable.
	FaultTimeout
	// FaultCrash marks the shard down. Without a RecoverAfter schedule the
	// crash is permanent and never retried; with one, the coordinator keeps
	// probing the shard (each probe advances the recovery clock) and
	// re-admits it once it comes back.
	FaultCrash
)

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultLatency:
		return "latency"
	case FaultTransient:
		return "transient"
	case FaultTimeout:
		return "timeout"
	case FaultCrash:
		return "crash"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// ShardFaultPlan scripts the faults of one shard. The zero value is a
// healthy shard. Deterministic "every nth fetch attempt" counters and
// seeded per-attempt probabilities may be combined; when several fire on
// the same attempt the most severe wins (crash > timeout > transient >
// latency).
type ShardFaultPlan struct {
	// Crash permanently downs the shard once it has served
	// CrashAfterFetches successful fetches; CrashAfterFetches = 0 crashes
	// it on its first fetch attempt (mid-query: the shard still answers
	// the query's count/init round).
	Crash             bool
	CrashAfterFetches int

	// RecoverAfter, when > 0, brings a crashed shard back after the
	// coordinator has observed it down RecoverAfter times (fetch probes,
	// count rounds, routing checks — every coordinator contact with the
	// down shard advances the clock, so a cluster that keeps getting
	// queried is also the liveness prober). The crash→recover cycle runs
	// once per shard: a recovered shard does not crash again. 0 keeps
	// crashes permanent (the pre-recovery behavior).
	RecoverAfter int

	// TransientEvery fails every nth fetch attempt transiently (0
	// disables). TimeoutEvery and LatencyEvery are analogous.
	TransientEvery int
	TimeoutEvery   int
	LatencyEvery   int

	// TransientProb / TimeoutProb / LatencyProb inject the corresponding
	// fault on each attempt with the given probability, drawn from a
	// per-shard RNG seeded by the plan seed (deterministic per seed).
	TransientProb float64
	TimeoutProb   float64
	LatencyProb   float64

	// Latency is the delay injected by latency faults; 0 means
	// DefaultFaultLatency. Delays at or beyond the coordinator's
	// per-fetch deadline surface as timeouts.
	Latency time.Duration
}

// enabled reports whether the shard plan injects anything at all.
func (p ShardFaultPlan) enabled() bool {
	return p.Crash || p.TransientEvery > 0 || p.TimeoutEvery > 0 || p.LatencyEvery > 0 ||
		p.TransientProb > 0 || p.TimeoutProb > 0 || p.LatencyProb > 0
}

// FaultPlan is a deterministic cluster-wide fault schedule: one
// ShardFaultPlan per shard ID, plus a seed driving the probabilistic
// injections. A nil *FaultPlan (Config.Faults' default) disables injection
// entirely and leaves the fetch path byte-identical to a healthy cluster.
//
// With replication (Config.Replicas > 1) a plain shard script applies to
// every replica of that shard independently — each replica gets its own
// injector running the same script, so "crash shard 2" still crashes the
// whole shard and the pre-replication degradation suites behave
// identically at any R. Scripting a single replica (the failover
// scenarios) uses the Replicas map or the '<shard>.<replica>' spec target.
type FaultPlan struct {
	// Seed drives the probabilistic fault draws; per-shard RNGs are
	// derived from it so concurrent shards stay deterministic.
	Seed int64
	// Shards maps shard ID to that shard's script, applied to all of the
	// shard's replicas. IDs outside the cluster are ignored. ShardAll
	// applies to every shard.
	Shards map[int]ShardFaultPlan
	// Replicas scripts exactly one replica of a shard (Shard may be
	// ShardAll to hit replica Replica of every shard). A replica entry is
	// more specific than a plain shard entry and wins where both match;
	// see newFaultStates for the full precedence.
	Replicas map[ReplicaTarget]ShardFaultPlan
}

// ReplicaTarget names one replica of one shard in FaultPlan.Replicas.
// Shard may be ShardAll; Replica is a non-negative replica index
// (replica 0 is the placement-primary copy).
type ReplicaTarget struct {
	Shard   int
	Replica int
}

// ShardAll is the FaultPlan.Shards key (and fault-plan spec target "*")
// that applies a script to every shard in the cluster.
const ShardAll = -1

// DefaultFaultLatency is the delay injected by latency faults when the
// shard plan leaves Latency zero.
const DefaultFaultLatency = time.Millisecond

// PlanFor resolves the effective plain script for one shard: an explicit
// per-shard entry wins over a ShardAll wildcard. Replica-scoped scripts
// are not consulted — newFaultStates layers them over this plain
// resolution.
func (p *FaultPlan) PlanFor(shard int) ShardFaultPlan {
	if p == nil {
		return ShardFaultPlan{}
	}
	if sp, ok := p.Shards[shard]; ok {
		return sp
	}
	return p.Shards[ShardAll]
}

// ParseFaultPlan parses the operator-facing fault-plan syntax used by
// stormd's -fault-plan flag:
//
//	plan    := segment (';' segment)*
//	segment := target ':' fault (',' fault)*
//	target  := <shard id> | <lo>-<hi> | '*'
//	         | <shard id> '.' <replica> | '*' '.' <replica>
//	fault   := crash-after=<n> | recover-after=<n>
//	         | transient-every=<n> | timeout-every=<n>
//	         | latency-every=<n> | latency=<duration>
//	         | transient-p=<f> | timeout-p=<f> | latency-p=<f>
//
// Example: "1:crash-after=40;3:crash-after=80,recover-after=20;*:latency-p=0.05,latency=2ms"
// crashes shards 1 and 3 after 40 and 80 fetches, brings shard 3 back
// after the coordinator has observed it down 20 times, and gives every
// shard a 5% chance of a 2ms latency spike per fetch. Set FaultPlan.Seed
// on the result to pin the probabilistic draws.
//
// A dotted target scripts one replica of a replicated shard (replica 0 is
// the placement primary): "2.0:crash-after=5" crashes only the primary
// copy of shard 2, which at Replicas >= 2 makes the coordinator fail over
// to a surviving replica instead of degrading. A plain target applies to
// all replicas of the shard; '2.0' and '2' stay distinct scripts (see
// newFaultStates for precedence). Replica targets do not combine with
// <lo>-<hi> ranges.
func ParseFaultPlan(spec string) (*FaultPlan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	plan := &FaultPlan{Shards: make(map[int]ShardFaultPlan)}
	for _, seg := range strings.Split(spec, ";") {
		seg = strings.TrimSpace(seg)
		if seg == "" {
			continue
		}
		target, faults, ok := strings.Cut(seg, ":")
		if !ok {
			return nil, fmt.Errorf("distr: fault plan segment %q missing ':'", seg)
		}
		ids, replica, err := parseFaultTarget(strings.TrimSpace(target))
		if err != nil {
			return nil, err
		}
		var sp ShardFaultPlan
		for _, f := range strings.Split(faults, ",") {
			if err := parseFaultSpec(strings.TrimSpace(f), &sp); err != nil {
				return nil, err
			}
		}
		for _, id := range ids {
			if replica >= 0 {
				if plan.Replicas == nil {
					plan.Replicas = make(map[ReplicaTarget]ShardFaultPlan)
				}
				rt := ReplicaTarget{Shard: id, Replica: replica}
				merged := plan.Replicas[rt]
				mergeShardFaults(&merged, sp)
				plan.Replicas[rt] = merged
				continue
			}
			merged := plan.Shards[id]
			mergeShardFaults(&merged, sp)
			plan.Shards[id] = merged
		}
	}
	return plan, nil
}

// String renders the plan back into the -fault-plan syntax in a canonical
// form: segments sorted by shard ID with the '*' wildcard first, each
// shard's plain all-replica segment before its replica-scoped segments
// (replicas ascending), fault specs in a fixed key order, and zero-valued
// scripts dropped. The output reparses to an equivalent plan, and
// String∘ParseFaultPlan is a fixpoint
// (Parse(p.String()).String() == p.String()), which the fuzz target
// relies on. The Seed is not part of the grammar (stormd carries it in
// -fault-seed) and is not rendered.
func (p *FaultPlan) String() string {
	if p == nil || (len(p.Shards) == 0 && len(p.Replicas) == 0) {
		return ""
	}
	idSet := make(map[int]struct{}, len(p.Shards)+len(p.Replicas))
	for id := range p.Shards {
		idSet[id] = struct{}{}
	}
	replicasOf := make(map[int][]int)
	for rt := range p.Replicas {
		idSet[rt.Shard] = struct{}{}
		replicasOf[rt.Shard] = append(replicasOf[rt.Shard], rt.Replica)
	}
	ids := make([]int, 0, len(idSet))
	for id := range idSet {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var b strings.Builder
	segment := func(target string, specs []string) {
		if len(specs) == 0 {
			return
		}
		if b.Len() > 0 {
			b.WriteByte(';')
		}
		b.WriteString(target)
		b.WriteByte(':')
		b.WriteString(strings.Join(specs, ","))
	}
	for _, id := range ids {
		target := strconv.Itoa(id)
		if id == ShardAll {
			target = "*"
		}
		segment(target, p.Shards[id].specs())
		reps := replicasOf[id]
		sort.Ints(reps)
		for _, r := range reps {
			segment(target+"."+strconv.Itoa(r), p.Replicas[ReplicaTarget{Shard: id, Replica: r}].specs())
		}
	}
	return b.String()
}

// specs renders one shard script as its fault specs, in canonical order;
// empty for a zero-valued (healthy) script.
func (p ShardFaultPlan) specs() []string {
	var out []string
	if p.Crash {
		out = append(out, "crash-after="+strconv.Itoa(p.CrashAfterFetches))
	}
	if p.RecoverAfter > 0 {
		out = append(out, "recover-after="+strconv.Itoa(p.RecoverAfter))
	}
	if p.TransientEvery > 0 {
		out = append(out, "transient-every="+strconv.Itoa(p.TransientEvery))
	}
	if p.TimeoutEvery > 0 {
		out = append(out, "timeout-every="+strconv.Itoa(p.TimeoutEvery))
	}
	if p.LatencyEvery > 0 {
		out = append(out, "latency-every="+strconv.Itoa(p.LatencyEvery))
	}
	if p.TransientProb > 0 {
		out = append(out, "transient-p="+strconv.FormatFloat(p.TransientProb, 'g', -1, 64))
	}
	if p.TimeoutProb > 0 {
		out = append(out, "timeout-p="+strconv.FormatFloat(p.TimeoutProb, 'g', -1, 64))
	}
	if p.LatencyProb > 0 {
		out = append(out, "latency-p="+strconv.FormatFloat(p.LatencyProb, 'g', -1, 64))
	}
	if p.Latency > 0 {
		out = append(out, "latency="+p.Latency.String())
	}
	return out
}

// parseFaultTarget resolves a segment target to shard IDs ('*' → ShardAll)
// plus the replica index of a dotted '<shard>.<replica>' target (-1 for a
// plain all-replica target). Ranges cannot be replica-scoped, and no shard
// ID reaches maxShards.
func parseFaultTarget(target string) (ids []int, replica int, err error) {
	replica = -1
	if shard, rep, dotted := strings.Cut(target, "."); dotted {
		r, errR := strconv.Atoi(rep)
		if errR != nil || r < 0 || strings.ContainsAny(rep, "+- ") {
			return nil, 0, fmt.Errorf("distr: fault plan target %q: want <shard>.<replica> with a non-negative replica", target)
		}
		if strings.Contains(shard, "-") {
			return nil, 0, fmt.Errorf("distr: fault plan target %q: ranges cannot take a replica suffix", target)
		}
		ids, _, err = parseFaultTarget(shard)
		if err != nil {
			return nil, 0, err
		}
		return ids, r, nil
	}
	if target == "*" {
		return []int{ShardAll}, replica, nil
	}
	if lo, hi, ok := strings.Cut(target, "-"); ok {
		a, errA := strconv.Atoi(lo)
		b, errB := strconv.Atoi(hi)
		if errA != nil || errB != nil || a < 0 || b < a {
			return nil, 0, fmt.Errorf("distr: fault plan target %q: want <lo>-<hi>", target)
		}
		if b >= maxShards {
			return nil, 0, fmt.Errorf("distr: fault plan target %q: shard IDs must be below %d", target, maxShards)
		}
		ids = make([]int, 0, b-a+1)
		for i := a; i <= b; i++ {
			ids = append(ids, i)
		}
		return ids, replica, nil
	}
	id, errID := strconv.Atoi(target)
	if errID != nil || id < 0 {
		return nil, 0, fmt.Errorf("distr: fault plan target %q: want shard id, <lo>-<hi>, '*', or <shard>.<replica>", target)
	}
	if id >= maxShards {
		return nil, 0, fmt.Errorf("distr: fault plan target %q: shard IDs must be below %d", target, maxShards)
	}
	return []int{id}, replica, nil
}

// parseFaultSpec applies one key=value fault spec to sp.
func parseFaultSpec(f string, sp *ShardFaultPlan) error {
	key, val, _ := strings.Cut(f, "=")
	intVal := func() (int, error) {
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 {
			return 0, fmt.Errorf("distr: fault %q: want a non-negative integer", f)
		}
		return n, nil
	}
	probVal := func() (float64, error) {
		p, err := strconv.ParseFloat(val, 64)
		if err != nil || p < 0 || p > 1 {
			return 0, fmt.Errorf("distr: fault %q: want a probability in [0, 1]", f)
		}
		return p, nil
	}
	var err error
	switch key {
	case "crash-after":
		sp.Crash = true
		sp.CrashAfterFetches, err = intVal()
	case "recover-after":
		sp.RecoverAfter, err = intVal()
	case "transient-every":
		sp.TransientEvery, err = intVal()
	case "timeout-every":
		sp.TimeoutEvery, err = intVal()
	case "latency-every":
		sp.LatencyEvery, err = intVal()
	case "latency":
		sp.Latency, err = time.ParseDuration(val)
		if err == nil && sp.Latency < 0 {
			err = fmt.Errorf("distr: fault %q: negative latency", f)
		}
	case "transient-p":
		sp.TransientProb, err = probVal()
	case "timeout-p":
		sp.TimeoutProb, err = probVal()
	case "latency-p":
		sp.LatencyProb, err = probVal()
	default:
		err = fmt.Errorf("distr: unknown fault %q", f)
	}
	return err
}

// mergeShardFaults folds src into dst, letting later segments add faults
// to a shard already targeted by an earlier one.
func mergeShardFaults(dst *ShardFaultPlan, src ShardFaultPlan) {
	if src.Crash {
		dst.Crash = true
		dst.CrashAfterFetches = src.CrashAfterFetches
	}
	if src.RecoverAfter > 0 {
		dst.RecoverAfter = src.RecoverAfter
	}
	if src.TransientEvery > 0 {
		dst.TransientEvery = src.TransientEvery
	}
	if src.TimeoutEvery > 0 {
		dst.TimeoutEvery = src.TimeoutEvery
	}
	if src.LatencyEvery > 0 {
		dst.LatencyEvery = src.LatencyEvery
	}
	if src.Latency > 0 {
		dst.Latency = src.Latency
	}
	if src.TransientProb > 0 {
		dst.TransientProb = src.TransientProb
	}
	if src.TimeoutProb > 0 {
		dst.TimeoutProb = src.TimeoutProb
	}
	if src.LatencyProb > 0 {
		dst.LatencyProb = src.LatencyProb
	}
}

// faultState is the runtime fault injector of one shard. Crash state is
// cluster-wide (a downed shard server is down for every query), so the
// state lives on the Cluster, one per shard, guarded by its own mutex —
// never by the cluster's structural locks.
type faultState struct {
	plan ShardFaultPlan

	mu       sync.Mutex
	rng      *stats.RNG
	attempts uint64 // fetch attempts seen (drives the Every counters)
	fetches  uint64 // successful fetches served (drives the crash schedule)
	down     bool
	downObs  uint64 // coordinator observations since the crash (recovery clock)
}

// newFaultStates materializes per-replica injectors for a plan, indexed
// [shard][replica]; nil when the plan injects nothing (the
// healthy-cluster fast path). Each replica gets its own injector — a
// plain shard script therefore crashes replicas independently on their
// own fetch/attempt clocks, while a ReplicaTarget script touches exactly
// one copy. Replica 0 keeps the pre-replication RNG stream so single-copy
// clusters replay bit-for-bit.
//
// This is the one place replica precedence is decided, most-specific
// first:
//
//	Replicas[{shard, r}]  >  Shards[shard]  >  Replicas[{ShardAll, r}]  >  Shards[ShardAll]
//
// so '2.1:crash-after=3' overrides a plain '2:' script for shard 2's
// replica 1 only, a plain '2:' script overrides a '*.1' wildcard for
// shard 2, and a plain '*' script is the fallback for everything.
func newFaultStates(plan *FaultPlan, shards, replicas int) [][]*faultState {
	if plan == nil {
		return nil
	}
	if replicas < 1 {
		replicas = 1
	}
	states := make([][]*faultState, shards)
	any := false
	for i := range states {
		states[i] = make([]*faultState, replicas)
		for r := 0; r < replicas; r++ {
			sp, ok := plan.Replicas[ReplicaTarget{Shard: i, Replica: r}]
			if _, plain := plan.Shards[i]; !ok && !plain {
				sp, ok = plan.Replicas[ReplicaTarget{Shard: ShardAll, Replica: r}]
			}
			if !ok {
				sp = plan.PlanFor(i)
			}
			seed := plan.Seed*31 + int64(i)*1009 + 7 + int64(r)*500009
			states[i][r] = &faultState{plan: sp, rng: stats.NewRNG(seed)}
			if sp.enabled() {
				any = true
			}
		}
	}
	if !any {
		return nil
	}
	return states
}

// tickRecoveryLocked advances a down shard's recovery clock by one
// coordinator observation and performs the rejoin transition once the
// clock reaches RecoverAfter. Returns true when this observation brought
// the shard back. The crash flag is cleared on rejoin so each shard runs
// the crash→recover cycle at most once (a recovered shard stays up).
// Caller holds f.mu.
func (f *faultState) tickRecoveryLocked() bool {
	if f.plan.RecoverAfter <= 0 {
		return false
	}
	f.downObs++
	if f.downObs < uint64(f.plan.RecoverAfter) {
		return false
	}
	f.down = false
	f.downObs = 0
	f.plan.Crash = false
	return true
}

// observe reports whether the shard is down, counting the observation
// against a recoverable shard's recovery clock — every coordinator
// contact (count rounds, routing checks, re-admit polls) is a liveness
// probe. rejoined is true exactly once per recovery: on the observation
// that brought the shard back.
func (f *faultState) observe() (down, rejoined bool) {
	if f == nil {
		return false, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.down {
		return false, false
	}
	if f.tickRecoveryLocked() {
		return false, true
	}
	return true, false
}

// recoverable reports whether the shard's plan schedules a recovery.
func (f *faultState) recoverable() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.plan.RecoverAfter > 0
}

// verdict decides the fate of one fetch attempt. It returns the injected
// fault kind, the latency to add, whether this call crashed the shard,
// and whether it brought a down shard back (both transitions happen
// exactly once, so crash and re-admit counting are exact). A fetch probe
// against a down recoverable shard advances its recovery clock; when the
// probe is the one that revives the shard, the attempt proceeds through
// the normal verdict path (the shard is up again).
func (f *faultState) verdict() (kind FaultKind, delay time.Duration, crashed, rejoined bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down {
		if !f.tickRecoveryLocked() {
			return FaultCrash, 0, false, false
		}
		rejoined = true
	}
	if f.plan.Crash && f.fetches >= uint64(f.plan.CrashAfterFetches) {
		f.down = true
		f.downObs = 0
		return FaultCrash, 0, true, rejoined
	}
	f.attempts++
	every := func(n int) bool { return n > 0 && f.attempts%uint64(n) == 0 }
	prob := func(p float64) bool { return p > 0 && f.rng.Float64() < p }
	switch {
	case every(f.plan.TimeoutEvery) || prob(f.plan.TimeoutProb):
		return FaultTimeout, 0, false, rejoined
	case every(f.plan.TransientEvery) || prob(f.plan.TransientProb):
		return FaultTransient, 0, false, rejoined
	case every(f.plan.LatencyEvery) || prob(f.plan.LatencyProb):
		d := f.plan.Latency
		if d == 0 {
			d = DefaultFaultLatency
		}
		return FaultLatency, d, false, rejoined
	}
	return FaultNone, 0, false, rejoined
}

// served records one successful fetch (advances the crash schedule).
func (f *faultState) served() {
	f.mu.Lock()
	f.fetches++
	f.mu.Unlock()
}

// FaultStats is a snapshot of cluster-wide fault-injection activity. All
// fields are also published under storm.distr.faults.* when the cluster
// has an observability registry.
type FaultStats struct {
	// Injected is the total number of injected fault events (all kinds,
	// including repeated hits on an already-crashed shard).
	Injected uint64
	// Latency / Transient / Timeouts count injected events by kind.
	Latency   uint64
	Transient uint64
	Timeouts  uint64
	// Crashes counts shard crash transitions — each crashed shard exactly
	// once, however many fetches later hit it.
	Crashes uint64
	// Retries counts coordinator fetch retries; Recoveries counts fetches
	// that succeeded after at least one retry.
	Retries    uint64
	Recoveries uint64
	// Exhausted counts fetches abandoned after MaxRetries, which drop the
	// shard from the issuing query (query-local degradation).
	Exhausted uint64
	// Readmits counts shard rejoin transitions — each recovered shard
	// exactly once, when its recover-after clock expired and the
	// coordinator re-registered it.
	Readmits uint64
	// ShardsDown is the number of currently crashed replica instances
	// (on a single-copy cluster, exactly the number of crashed shards);
	// a recovered replica no longer counts. A shard only stops serving —
	// and queries only degrade — when all of its replicas are down at
	// once; see ReplicaStats for failover accounting.
	ShardsDown int
}

// faultTotals is the cluster's always-on fault accounting (atomics, so
// they are exact with or without an obs registry; the registry re-exports
// them as scrape-time Funcs rather than double-counting).
type faultTotals struct {
	injected   atomic.Uint64
	latency    atomic.Uint64
	transient  atomic.Uint64
	timeouts   atomic.Uint64
	crashes    atomic.Uint64
	retries    atomic.Uint64
	recoveries atomic.Uint64
	exhausted  atomic.Uint64
	readmits   atomic.Uint64
	shardsDown atomic.Int64
}

// FaultStats returns a snapshot of fault-injection activity; all-zero on a
// cluster without a fault plan.
func (c *Cluster) FaultStats() FaultStats {
	t := &c.ftot
	return FaultStats{
		Injected:   t.injected.Load(),
		Latency:    t.latency.Load(),
		Transient:  t.transient.Load(),
		Timeouts:   t.timeouts.Load(),
		Crashes:    t.crashes.Load(),
		Retries:    t.retries.Load(),
		Recoveries: t.recoveries.Load(),
		Exhausted:  t.exhausted.Load(),
		Readmits:   t.readmits.Load(),
		ShardsDown: int(t.shardsDown.Load()),
	}
}

// replicaDown reports whether replica r of shard i is down (never for an
// in-process shard host without a fault plan). The check is itself a
// coordinator contact: on a recoverable replica it advances the injected
// recovery clock (or rate-limits a real TCP probe), and the contact that
// revives the replica performs the cluster-wide re-admit accounting.
func (c *Cluster) replicaDown(i, r int) bool {
	down, rejoined := c.repl[i][r].Live()
	if rejoined {
		c.countReadmit()
	}
	return down
}

// shardDown reports whether shard i is entirely down — a shard with any
// live replica still serves queries (the fetch path fails over to it).
// Every replica is observed, without short-circuiting, so a single poll
// (a count round, a /shards scrape) advances the recovery clock of every
// down copy, not just the first; with one replica this is exactly the
// pre-replication liveness check.
func (c *Cluster) shardDown(i int) bool {
	allDown := true
	for r := range c.repl[i] {
		if !c.replicaDown(i, r) {
			allDown = false
		}
	}
	return allDown
}

// countReadmit records one shard rejoin transition in the totals.
func (c *Cluster) countReadmit() {
	c.ftot.readmits.Add(1)
	c.ftot.shardsDown.Add(-1)
}

// countFault records one injected event in the totals.
func (c *Cluster) countFault(kind FaultKind, crashed bool) {
	t := &c.ftot
	t.injected.Add(1)
	switch kind {
	case FaultLatency:
		t.latency.Add(1)
	case FaultTransient:
		t.transient.Add(1)
	case FaultTimeout:
		t.timeouts.Add(1)
	case FaultCrash:
		if crashed {
			t.crashes.Add(1)
			t.shardsDown.Add(1)
		}
	}
}

// faultClient decorates a ShardClient with one shard's fault injector.
// Every Fetch passes through the verdict machinery at the transport
// boundary — the injected failure surfaces to the coordinator as the
// same error a real transport would return — so a fault plan exercises
// the identical coordinator retry/degradation code in-process and over TCP.
// All other requests pass through undisturbed (the plans script the
// fetch path; crashed shards are fenced off upstream by shardDown).
type faultClient struct {
	ShardClient
	c *Cluster
	f *faultState
}

// Fetch implements ShardClient, applying the shard's fault verdict before
// (or instead of) the inner fetch, which gets the deadline. The verdict
// applies first — an injected crash or timeout fires identically whether or
// not the query runs under a contract deadline. With a FaultNone verdict it
// is a direct pass-through, byte-identical to the undecorated client.
func (fc *faultClient) Fetch(stream uint64, dst []data.Entry, n int, deadline time.Time) (int, error) {
	kind, delay, crashed, rejoined := fc.f.verdict()
	if rejoined {
		fc.c.countReadmit()
	}
	if kind != FaultNone {
		fc.c.countFault(kind, crashed)
	}
	switch kind {
	case FaultCrash:
		return 0, &shardDownError{Recoverable: fc.f.recoverable()}
	case FaultTimeout:
		return 0, ErrFetchTimeout
	case FaultTransient:
		return 0, ErrTransient
	case FaultLatency:
		if delay >= fc.c.cfg.FetchTimeout {
			// The spike blows the per-fetch deadline: the coordinator
			// observes a timeout, not a slow success.
			fc.c.ftot.timeouts.Add(1)
			return 0, ErrFetchTimeout
		}
		time.Sleep(delay)
	}
	got, err := fc.ShardClient.Fetch(stream, dst, n, deadline)
	if err != nil {
		return got, err
	}
	fc.f.served()
	return got, nil
}

// Live implements ShardClient: the injected crash state is consulted first
// (each call is one coordinator observation against the recovery clock),
// then the inner client's own liveness — so a TCP shard can be down for
// real even when no crash is scripted.
func (fc *faultClient) Live() (down, rejoined bool) {
	down, rejoined = fc.f.observe()
	if down || rejoined {
		return down, rejoined
	}
	return fc.ShardClient.Live()
}

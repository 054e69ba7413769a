package engine

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"storm/internal/data"
	"storm/internal/distr"
	"storm/internal/distr/distrtest"
	"storm/internal/estimator"
	"storm/internal/gen"
	"storm/internal/geo"
	"storm/internal/obs"
	"storm/internal/rtree"
	"storm/internal/sampling"
	"storm/internal/wire"
)

// exhaust caps a distributed stream above any population these tests
// build: a SAMPLES cap keeps a statement a stream (the exact plan answers an
// uncapped mean-family one from the count round) without stopping it early.
const exhaust = 1 << 30

func buildShardedHandle(t testing.TB, n, shards int, faults *distr.FaultPlan) (*Engine, *Handle) {
	t.Helper()
	e := New(Config{Seed: 42, Fanout: 32})
	h, err := e.Register(distrtest.Dataset(n), IndexOptions{Shards: shards, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	return e, h
}

func TestDistributedMethodRouting(t *testing.T) {
	_, h := buildShardedHandle(t, 5000, 4, nil)
	if h.Cluster() == nil {
		t.Fatal("sharded registration should build a cluster")
	}
	// The optimizer prefers the cluster coordinator when one exists.
	plan, err := h.Explain(testRange)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Method != MethodDistributed {
		t.Errorf("optimizer chose %v, want distributed", plan.Method)
	}
	snap, err := h.Estimate(context.Background(), testRange, Options{Kind: estimator.Avg, Attr: "value", MaxSamples: exhaust})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Method != "distributed-rs-tree" {
		t.Errorf("query ran via %q", snap.Method)
	}
	if !snap.Exact || snap.Degraded {
		t.Errorf("healthy exhaustive run: %+v", snap)
	}
	want, _ := trueMean(h, testRange, "value")
	if math.Abs(snap.Value-want) > 1e-9 {
		t.Errorf("exact distributed AVG = %v, want %v", snap.Value, want)
	}

	// Requesting the method on an unsharded dataset is a config error.
	e2 := New(Config{Seed: 1})
	ds2 := gen.Uniform(500, 3, geo.SpatialRange(0, 0, 100, 100))
	h2, err := e2.Register(ds2, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := h2.newSampler(MethodDistributed, testRange.Rect(), sampling.WithoutReplacement, 0, 1, nil); err == nil {
		t.Error("distributed method without a cluster should fail")
	}
	// With-replacement is unsupported on the coordinator: a lost shard
	// would leave the adapter's population stale.
	if _, _, err := h.newSampler(MethodDistributed, testRange.Rect(), sampling.WithReplacement, 100, 1, nil); err == nil {
		t.Error("with-replacement distributed sampling should fail")
	}
}

// TestDistributedEstimate: a capped estimate on a healthy sharded handle
// stops at the cap with an interval around the brute-force mean, and an
// unknown attribute is an error rather than an answer.
func TestDistributedEstimate(t *testing.T) {
	_, h := buildShardedHandle(t, 20000, 4, nil)
	want, _ := trueMean(h, testRange, "value")
	snap, err := h.Estimate(context.Background(), testRange, Options{
		Kind: estimator.Avg, Attr: "value", MaxSamples: 2000, Method: MethodDistributed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Samples != 2000 || snap.Degraded {
		t.Errorf("healthy capped run: %+v", snap)
	}
	if math.Abs(snap.Value-want) > 3*snap.HalfWidth+1e-9 {
		t.Errorf("estimate %v ± %v vs truth %v", snap.Value, snap.HalfWidth, want)
	}
	if _, err := h.Estimate(context.Background(), testRange, Options{
		Kind: estimator.Avg, Attr: "nope", MaxSamples: 10, Method: MethodDistributed,
	}); err == nil {
		t.Error("unknown attribute should error")
	}
}

func TestDistributedQueryDegrades(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(Config{Seed: 42, Fanout: 32, Obs: reg})
	h, err := e.Register(distrtest.Dataset(8000), IndexOptions{
		Shards: 8,
		Faults: &distr.FaultPlan{Shards: map[int]distr.ShardFaultPlan{
			2: {Crash: true, CrashAfterFetches: 1},
			5: {Crash: true, CrashAfterFetches: 1},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	healthyPop := h.Cluster().Count(testRange.Rect())
	snap, err := h.Estimate(context.Background(), testRange, Options{Kind: estimator.Avg, Attr: "value", MaxSamples: exhaust})
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Done {
		t.Fatal("degraded query must still complete")
	}
	if !snap.Degraded || snap.ShardsLost != 2 {
		t.Fatalf("snapshot degradation = (%v, %d), want (true, 2)", snap.Degraded, snap.ShardsLost)
	}
	if snap.Population >= healthyPop {
		t.Errorf("effective population %d not shrunk from %d", snap.Population, healthyPop)
	}
	if !snap.Exact || snap.Samples != snap.Population {
		t.Errorf("exhausted degraded run should be exact over survivors: %+v", snap)
	}
	st := h.Cluster().FaultStats()
	if st.Crashes != 2 {
		t.Errorf("crashes = %d, want 2", st.Crashes)
	}
	ms := reg.Snapshot()
	if got := ms["storm.distr.faults.crashes"]; got != uint64(2) {
		t.Errorf("storm.distr.faults.crashes = %v", got)
	}
	if got := ms["storm.engine.queries.degraded"]; got != uint64(1) {
		t.Errorf("storm.engine.queries.degraded = %v", got)
	}
	// Lost-mass bounds ride along on the degraded snapshot: the widened
	// interval must bound the TRUE full-population mean — the run was exact
	// over the survivors, so coverage here is guaranteed, not statistical.
	if snap.LostMassLow == 0 && snap.LostMassHigh == 0 {
		t.Fatal("degraded AVG snapshot should carry lost-mass bounds")
	}
	if snap.LostMassLow >= snap.LostMassHigh {
		t.Errorf("degenerate lost-mass interval [%v, %v]", snap.LostMassLow, snap.LostMassHigh)
	}
	fullMean, _ := trueMean(h, testRange, "value")
	if fullMean < snap.LostMassLow || fullMean > snap.LostMassHigh {
		t.Errorf("full-population mean %v outside lost-mass bounds [%v, %v]",
			fullMean, snap.LostMassLow, snap.LostMassHigh)
	}
	if snap.Recovered {
		t.Error("nothing recovered in a permanent-crash run")
	}
}

// TestDistributedQueryRecovers is the engine-level tentpole scenario: the
// query's top-matching shard crashes mid-stream and comes back on its
// recover-after schedule. The engine's evaluator re-admits it via the
// sampler, restores the effective N, finishes exact over the FULL
// population, and stamps the snapshot and metrics as recovered, not
// degraded.
func TestDistributedQueryRecovers(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(Config{Seed: 42, Fanout: 32, Obs: reg})
	ds := distrtest.Dataset(8000)

	// Pick the shard holding the most matching records so its crash window
	// (after its first fetch) is always hit mid-query. The probe engine
	// shares the seed, so its cluster partitions the dataset identically.
	probe, err := New(Config{Seed: 42, Fanout: 32}).Register(ds, IndexOptions{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	rect := testRange.Rect()
	target, best := 0, -1
	for i, sh := range probe.Cluster().Shards() {
		if n := sh.Index().Count(rect); n > best {
			target, best = i, n
		}
	}
	if best <= 0 {
		t.Fatal("no shard matches the query")
	}

	h, err := e.Register(ds, IndexOptions{
		Shards: 8,
		Faults: &distr.FaultPlan{Shards: map[int]distr.ShardFaultPlan{
			target: {Crash: true, CrashAfterFetches: 1, RecoverAfter: 4},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	healthyPop := h.Cluster().Count(rect)
	snap, err := h.Estimate(context.Background(), testRange, Options{Kind: estimator.Avg, Attr: "value", MaxSamples: exhaust})
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Done {
		t.Fatal("recovered query must complete")
	}
	if snap.Degraded || snap.ShardsLost != 0 {
		t.Fatalf("recovered query still degraded: %+v", snap)
	}
	if !snap.Recovered {
		t.Fatal("snapshot should be stamped recovered")
	}
	if snap.Population != healthyPop || snap.Samples != healthyPop || !snap.Exact {
		t.Errorf("recovered run should exhaust the full population %d: %+v", healthyPop, snap)
	}
	if snap.LostMassLow != 0 || snap.LostMassHigh != 0 {
		t.Errorf("recovered snapshot should carry no lost-mass bounds: [%v, %v]",
			snap.LostMassLow, snap.LostMassHigh)
	}
	want, _ := trueMean(h, testRange, "value")
	if math.Abs(snap.Value-want) > 1e-9 {
		t.Errorf("recovered exact AVG = %v, want %v", snap.Value, want)
	}
	st := h.Cluster().FaultStats()
	if st.Crashes != 1 || st.Readmits != 1 || st.ShardsDown != 0 {
		t.Errorf("fault stats = %+v, want one completed crash→readmit cycle", st)
	}
	ms := reg.Snapshot()
	if got := ms["storm.engine.queries.recovered"]; got != uint64(1) {
		t.Errorf("storm.engine.queries.recovered = %v, want 1", got)
	}
	if got := ms["storm.engine.queries.degraded"]; got != uint64(0) {
		t.Errorf("storm.engine.queries.degraded = %v, want 0 (the loss healed mid-query)", got)
	}
	if got := ms["storm.distr.faults.readmits"]; got != uint64(1) {
		t.Errorf("storm.distr.faults.readmits = %v, want 1", got)
	}
}

func TestDistributedQuantileDegrades(t *testing.T) {
	_, h := buildShardedHandle(t, 6000, 6, &distr.FaultPlan{
		Shards: map[int]distr.ShardFaultPlan{1: {Crash: true, CrashAfterFetches: 1}},
	})
	snap, err := h.Estimate(context.Background(), testRange, Options{Kind: estimator.Median, Attr: "value"})
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Done || !snap.Degraded || snap.ShardsLost != 1 {
		t.Fatalf("median degradation: %+v", snap)
	}
	if !snap.Exact || snap.Samples != snap.Population {
		t.Errorf("exhausted degraded median should be exact over survivors: %+v", snap)
	}
}

// TestRemoteClusterRegistration registers a dataset against real shard
// hosts behind TCP sockets (IndexOptions.ShardAddrs) and checks the
// engine's query path end to end: the optimizer routes to the cluster,
// the exhausted stream and the exact plan both match ground truth, and —
// because the remote coordinator draws the same seed sequence as a
// simulated one, and its shards answer the count round alike — each is
// byte-identical to the in-process cluster's.
func TestRemoteClusterRegistration(t *testing.T) {
	const n = 4000
	h, _ := remoteShardedHandle(t, n, 4)
	if h.Cluster() == nil || !h.Cluster().Remote() {
		t.Fatal("ShardAddrs registration should build a remote cluster")
	}
	plan, err := h.Explain(testRange)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Method != MethodDistributed {
		t.Errorf("optimizer chose %v, want distributed", plan.Method)
	}

	// Same engine config, simulated cluster, same query seed: identical
	// sample stream, identical snapshot; and the same exact answer.
	_, hSim := buildShardedHandle(t, n, 4, nil)
	want, _ := trueMean(h, testRange, "value")
	for _, c := range []struct {
		method string
		opts   Options
	}{
		{"distributed-rs-tree", Options{Kind: estimator.Avg, Attr: "value", Seed: 99, MaxSamples: exhaust}},
		{"exact", Options{Kind: estimator.Avg, Attr: "value", Seed: 99}},
	} {
		snap, err := h.Estimate(context.Background(), testRange, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Method != c.method || !snap.Exact || snap.Degraded {
			t.Fatalf("healthy remote run via %q, want %q: %+v", snap.Method, c.method, snap)
		}
		if math.Abs(snap.Value-want) > 1e-9 {
			t.Errorf("remote %s AVG = %v, want %v", c.method, snap.Value, want)
		}
		simSnap, err := hSim.Estimate(context.Background(), testRange, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		if simSnap.Method != snap.Method || simSnap.Value != snap.Value || simSnap.Samples != snap.Samples {
			t.Errorf("remote %s snapshot (value %v, samples %d) diverges from simulated %s (value %v, samples %d)",
				snap.Method, snap.Value, snap.Samples, simSnap.Method, simSnap.Value, simSnap.Samples)
		}
	}
	if net := h.Cluster().Net(); net.BytesSent == 0 || net.BytesRecv == 0 {
		t.Errorf("remote cluster NetStats = %+v, want measured traffic", net)
	}

	// Updates mirror over the wire through the handle.
	rect := testRange.Rect()
	before := h.Cluster().Count(rect)
	id := h.Insert(data.Row{Pos: geo.Vec{30, 30, 50}, Num: map[string]float64{"value": 1}})
	if got := h.Cluster().Count(rect); got != before+1 {
		t.Errorf("remote cluster count after insert = %d, want %d", got, before+1)
	}
	if !h.Delete(id) {
		t.Fatal("delete of mirrored insert failed")
	}

	// Unregister tears the transports down.
	if err := h.eng.Unregister(h.Name()); err != nil {
		t.Fatal(err)
	}
}

func TestShardedUpdatesReachCluster(t *testing.T) {
	_, h := buildShardedHandle(t, 2000, 4, nil)
	rect := testRange.Rect()
	before := h.Cluster().Count(rect)
	id := h.Insert(data.Row{Pos: geo.Vec{30, 30, 50}, Num: map[string]float64{"value": 1}})
	if got := h.Cluster().Count(rect); got != before+1 {
		t.Errorf("cluster count after insert = %d, want %d", got, before+1)
	}
	if !h.Delete(id) {
		t.Fatal("delete failed")
	}
	if got := h.Cluster().Count(rect); got != before {
		t.Errorf("cluster count after delete = %d, want %d", got, before)
	}
	if removed, err := h.DeleteRange(testRange); err != nil || removed != before {
		t.Fatalf("DeleteRange removed %d (err %v), want %d", removed, err, before)
	}
	if got := h.Cluster().Count(rect); got != 0 {
		t.Errorf("cluster count after DeleteRange = %d, want 0", got)
	}
}

// TestRemoteBuildsWrittenBeforeLocalPack: Register sorts the dataset once
// and starts its cluster on Register's goroutine, inside Engine.build,
// from that order, before build goes on to pack the local indexes from it;
// distr.Start returns only once every copy's Build is written
// (TestAssembleWritesEveryBuildFirst), so the hosts build while the
// coordinator packs. The answers are read before Register returns, and the
// cluster then holds every record. The local tree's leaves are windows of
// the very order the cluster was cut from, so a boot sorts once, for
// remote and in-process hosts alike.
func TestRemoteBuildsWrittenBeforeLocalPack(t *testing.T) {
	const n = 20_000
	var addrs []string
	for range 2 {
		host := distr.NewHost()
		host.AddDataset(distrtest.Dataset(n))
		srv, err := wire.NewServer("127.0.0.1:0", host)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs = append(addrs, srv.Addr())
	}
	for _, hosts := range [][]string{addrs, nil} {
		e := New(Config{Seed: 42, Fanout: 32})
		var (
			inBuild, waited bool
			first           *data.Entry
		)
		e.startShards = func(ds *data.Dataset, order rtree.DatasetOrder, cfg distr.Config, addrs []string) func() (*distr.Cluster, error) {
			wait := distr.Start(ds, order, cfg, addrs)
			first = &order.Entries[0]
			pcs := make([]uintptr, 64)
			frames := runtime.CallersFrames(pcs[:runtime.Callers(1, pcs)])
			for more := true; more && !inBuild; {
				var f runtime.Frame
				f, more = frames.Next()
				inBuild = f.Function == "storm/internal/engine.(*Engine).build"
			}
			return func() (*distr.Cluster, error) {
				waited = true
				return wait()
			}
		}
		h, err := e.Register(distrtest.Dataset(n), IndexOptions{ShardAddrs: hosts, Shards: 4, Replicas: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !inBuild || !waited {
			t.Errorf("hosts %v: cluster started inside Engine.build: %v; its answers awaited: %v", hosts, inBuild, waited)
		}
		if leaf := treeLeaves(h.rs.Tree())[0].Entries(); &leaf[0] != first {
			t.Errorf("hosts %v: the local tree packs another sort than the one the cluster was cut from", hosts)
		}
		all := geo.NewRect(geo.Vec{-1e9, -1e9, -1e9}, geo.Vec{1e9, 1e9, 1e9})
		if got := h.Cluster().Count(all); got != n {
			t.Errorf("hosts %v: cluster counts %d records, want %d", hosts, got, n)
		}
	}
}

// TestShardLeavesAreCoordinatorLeaves: a shard is a run of leaves of the
// dataset's one STR order, so host 0's shard leaves, taken in shard order,
// are the coordinator RS-tree's leaves, leaf for leaf — the same entry IDs
// and the same Hilbert key caches, keyed over the dataset's box. Over one
// to eight shards, leaf counts that the shard count divides and that it
// does not, fewer records than shards hold leaves, and fewer records than
// shards.
func TestShardLeavesAreCoordinatorLeaves(t *testing.T) {
	for _, c := range []struct{ n, fanout, shards int }{
		{5000, 16, 1}, {5000, 16, 2}, {5000, 16, 3}, {5000, 16, 8}, // 313 leaves
		{4096, 16, 2}, {4096, 16, 3}, {4096, 16, 8}, // 256 leaves
		{20_000, 0, 3}, // the default fanout
		{100, 16, 8},   // fewer records than shards hold leaves
		{3, 0, 8},      // fewer records than shards
	} {
		name := fmt.Sprintf("n=%d f=%d S=%d", c.n, c.fanout, c.shards)
		e := New(Config{Seed: 3, Fanout: c.fanout})
		h, err := e.Register(distrtest.Dataset(c.n), IndexOptions{Shards: c.shards})
		if err != nil {
			t.Fatal(err)
		}
		want := treeLeaves(h.rs.Tree())
		var got []*rtree.Node
		for _, sh := range h.Cluster().Shards() {
			if sh.Len() > 0 {
				got = append(got, treeLeaves(sh.Index().Tree())...)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s: shards hold %d leaves, the coordinator %d", name, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if !slices.EqualFunc(g.Entries(), w.Entries(), func(a, b data.Entry) bool { return a.ID == b.ID }) {
				t.Fatalf("%s: leaf %d holds other entries on the shards than on the coordinator", name, i)
			}
			if !slices.Equal(g.HilbertKeys(), w.HilbertKeys()) {
				t.Fatalf("%s: leaf %d caches keys %v on the shards, %v on the coordinator", name, i, g.HilbertKeys(), w.HilbertKeys())
			}
		}
	}
}

// treeLeaves lists t's leaves in tree order: the order they were packed in.
func treeLeaves(t *rtree.Tree) []*rtree.Node {
	var out []*rtree.Node
	var walk func(n *rtree.Node)
	walk = func(n *rtree.Node) {
		if n.IsLeaf() {
			out = append(out, n)
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(t.Root())
	return out
}

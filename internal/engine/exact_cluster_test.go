package engine

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"storm/internal/data"
	"storm/internal/distr"
	"storm/internal/distr/distrtest"
	"storm/internal/estimator"
	"storm/internal/geo"
	"storm/internal/pred"
	"storm/internal/rtree"
	"storm/internal/wire"
)

// remoteShardedHandle registers distrtest.Dataset(n) as shards shards
// served by two shard hosts behind TCP sockets, and returns the handle and
// the hosts' servers (closed with the test).
func remoteShardedHandle(t *testing.T, n, shards int) (*Handle, []*wire.Server) {
	t.Helper()
	var addrs []string
	var srvs []*wire.Server
	for range 2 {
		host := distr.NewHost()
		host.AddDataset(distrtest.Dataset(n))
		srv, err := wire.NewServer("127.0.0.1:0", host)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs, srvs = append(addrs, srv.Addr()), append(srvs, srv)
	}
	e := New(Config{Seed: 42, Fanout: 32})
	h, err := e.Register(distrtest.Dataset(n), IndexOptions{Shards: shards, ShardAddrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Unregister(h.Name()) })
	return h, srvs
}

// localMoments is the coordinator's own exact pass over q: its Moments
// descent, then the covered subtrees.
func localMoments(h *Handle, q geo.Rect, where []pred.Term, attr int) rtree.Moments {
	h.mu.RLock()
	defer h.mu.RUnlock()
	var f *rtree.TreeFilter
	if len(where) > 0 {
		c, err := pred.Normalize(where).Compile(h.ds)
		if err != nil {
			panic(err)
		}
		f = rtree.NewTreeFilter(c, h.sums)
	}
	m, covered := h.sums.Moments(q, f, attr, math.MaxInt, nil)
	rest, _ := h.sums.CoveredValues(covered, attr, nil, nil)
	m.Values.Merge(rest)
	return m
}

// relClose reports whether got equals want to rel relative error.
func relClose(got, want, rel float64) bool {
	return math.Abs(got-want) <= rel*math.Max(math.Abs(want), math.SmallestNonzeroFloat64)
}

// TestClusterMomentsEqualLocal: the shards' moments, merged, are the
// coordinator's own exact pass — over random regions, with and without a
// predicate and a LAST window, after inserts (one without the attribute)
// and deletes, in-process and over TCP: the record count exactly, the mean
// and M2 to 1e-9 relative. A limit below a shard's records leaves the
// round unsummed but its count exact.
func TestClusterMomentsEqualLocal(t *testing.T) {
	const n = 6000
	_, mem := buildShardedHandle(t, n, 4, nil)
	tcp, _ := remoteShardedHandle(t, n, 4)
	above := []pred.Term{{Attr: "value", Lo: 30, Hi: math.Inf(1), LoOpen: true}}
	for _, tc := range []struct {
		name string
		h    *Handle
	}{{"in-process", mem}, {"tcp", tcp}} {
		h := tc.h
		rng := rand.New(rand.NewSource(7))
		var ids []data.ID
		for i := range 40 {
			row := data.Row{Pos: geo.Vec{rng.Float64() * 100, rng.Float64() * 100, 90 + rng.Float64()*10}}
			if i%8 != 0 {
				row.Num = map[string]float64{"value": rng.Float64() * 100}
			}
			ids = append(ids, h.Insert(row))
		}
		for _, id := range []data.ID{ids[3], ids[17], 5, 911, 2024} {
			if !h.Delete(id) {
				t.Fatalf("%s: delete %d failed", tc.name, id)
			}
		}
		attr, _ := h.sums.AttrIndex("value")
		for trial := range 24 {
			x, y := rng.Float64()*80, rng.Float64()*80
			r := geo.Range{MinX: x, MinY: y, MaxX: x + 5 + rng.Float64()*40, MaxY: y + 5 + rng.Float64()*40, MinT: 0, MaxT: 100}
			var where []pred.Term
			if trial%2 == 1 {
				where = above
			}
			if trial%3 == 2 {
				r = h.WindowRange(r, time.Duration(10+rng.Intn(40))*time.Second)
			}
			q := r.Rect()
			want := localMoments(h, q, where, attr)
			got, summed := h.cluster.Moments(q, pred.Normalize(where).Terms, "value", math.MaxInt)
			if !summed || got.Records != want.Records || got.Values.N() != want.Values.N() ||
				!relClose(got.Values.Mean(), want.Values.Mean(), 1e-9) || !relClose(got.Values.M2(), want.Values.M2(), 1e-9) {
				t.Fatalf("%s trial %d: shards (summed %v) records %d n %d mean %v M2 %v; coordinator %d n %d mean %v M2 %v",
					tc.name, trial, summed, got.Records, got.Values.N(), got.Values.Mean(), got.Values.M2(),
					want.Records, want.Values.N(), want.Values.Mean(), want.Values.M2())
			}
			if want.Records > 0 {
				capped, summed := h.cluster.Moments(q, pred.Normalize(where).Terms, "value", 0)
				if summed || capped.Records != want.Records || capped.Values.N() != 0 {
					t.Fatalf("%s trial %d: limit 0 gave summed %v, records %d, n %d; want unsummed over %d",
						tc.name, trial, summed, capped.Records, capped.Values.N(), want.Records)
				}
			}
		}
	}
}

// TestExactClusterAnswer: a mean-family `USING DISTRIBUTED` estimate with a
// predicate and a LAST window is answered in one count round — one exact
// snapshot equal to brute force, one Count and one CountOK per shard —
// in-process and over TCP; EXPLAIN says so, and SAMPLES keeps the stream.
func TestExactClusterAnswer(t *testing.T) {
	const n, shards = 12000, 4
	_, mem := buildShardedHandle(t, n, shards, nil)
	tcp, _ := remoteShardedHandle(t, n, shards)
	where := []pred.Term{{Attr: "value", Lo: 20, Hi: 80}}
	const last = 30 * time.Second
	for _, tc := range []struct {
		name string
		h    *Handle
	}{{"in-process", mem}, {"tcp", tcp}} {
		h := tc.h
		pop, w := bruteForce(h, h.WindowRange(testRange, last), "value", where)
		if pop == 0 {
			t.Fatal("degenerate fixture")
		}
		for _, kind := range []estimator.Kind{estimator.Avg, estimator.Sum, estimator.Stddev} {
			opts := Options{Kind: kind, Attr: "value", Where: where, Last: last, Method: MethodDistributed, TargetRelError: 0.005}
			before := h.Cluster().Net().Messages
			snap, err := h.Estimate(context.Background(), testRange, opts)
			if err != nil {
				t.Fatal(err)
			}
			if msgs := h.Cluster().Net().Messages - before; msgs != 2*shards {
				t.Errorf("%s %v: %d messages, want one count round (%d)", tc.name, kind, msgs, 2*shards)
			}
			if snap.Method != "exact" || !snap.Exact || snap.Samples != pop || snap.Population != pop || !snap.Windowed {
				t.Fatalf("%s %v: %s exact=%v samples %d population %d windowed %v; want exact over %d",
					tc.name, kind, snap.Method, snap.Exact, snap.Samples, snap.Population, snap.Windowed, pop)
			}
			if !closeTo(snap.Value, want(kind, w)) {
				t.Errorf("%s %v: exact %v, brute force %v", tc.name, kind, snap.Value, want(kind, w))
			}
		}
		plan, err := h.ExplainEstimate(testRange, Options{Kind: estimator.Avg, Attr: "value", Where: where, Last: last})
		if err != nil {
			t.Fatal(err)
		}
		if !plan.Exact || plan.Method != MethodDistributed || plan.Qualifying != pop {
			t.Errorf("%s: EXPLAIN exact %v method %v qualifying %d; want exact over %d via the cluster",
				tc.name, plan.Exact, plan.Method, plan.Qualifying, pop)
		}
		snap, err := h.Estimate(context.Background(), testRange, Options{Kind: estimator.Avg, Attr: "value", Where: where, Last: last, MaxSamples: pop / 2})
		if err != nil {
			t.Fatal(err)
		}
		if snap.Method != "distributed-rs-tree" || snap.Samples != pop/2 {
			t.Errorf("%s: SAMPLES %d ran via %q with %d samples, want the stream", tc.name, pop/2, snap.Method, snap.Samples)
		}
	}

	// The distributed method names a cluster's copies: without one it is
	// still an error, not a local exact pass.
	_, local := buildHandle(t, 2000, false)
	snap, err := local.Estimate(context.Background(), testRange, Options{Kind: estimator.Avg, Attr: "value", Method: MethodDistributed})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Err() == nil {
		t.Errorf("USING DISTRIBUTED without a cluster answered via %q", snap.Method)
	}
}

// TestExactClusterFallbackCountsOnce: a cluster estimate the exact plan
// does not take samples over the count round's total, with no second
// count round: its messages are the stream's alone plus that one round.
func TestExactClusterFallbackCountsOnce(t *testing.T) {
	const shards = 4
	_, h := buildShardedHandle(t, 12000, shards, nil)
	pop := h.Cluster().Count(testRange.Rect())
	// An 80% target over a unit-CV prior needs 6 samples: 600 records at
	// most, far fewer than the region holds.
	opts := Options{Kind: estimator.Avg, Attr: "value", TargetRelError: 0.8, Seed: 5}
	before := h.Cluster().Net().Messages
	snap, err := h.Estimate(context.Background(), testRange, opts)
	if err != nil {
		t.Fatal(err)
	}
	msgs := h.Cluster().Net().Messages - before
	if snap.Method != "distributed-rs-tree" || snap.Population != pop {
		t.Fatalf("fallback ran via %q over %d, want the stream over %d", snap.Method, snap.Population, pop)
	}
	// The same stream, its population counted by a plain round.
	opts.MaxSamples = exhaust
	before = h.Cluster().Net().Messages
	pinned, err := h.Estimate(context.Background(), testRange, opts)
	if err != nil {
		t.Fatal(err)
	}
	if pinned.Samples != snap.Samples {
		t.Fatalf("pinned stream drew %d, fallback %d", pinned.Samples, snap.Samples)
	}
	if want := h.Cluster().Net().Messages - before; msgs != want {
		t.Errorf("fallback sent %d messages, the pinned stream %d", msgs, want)
	}
}

// TestExactClusterShardDownBeforeQuery: with shards down before the query
// starts, the exact answer reports what the exhausted stream reports under
// the same faults — the surviving population, exact, not degraded and
// without lost-mass bounds — in-process (crashes fired by an earlier
// stream) and over TCP (a shard host killed).
func TestExactClusterShardDownBeforeQuery(t *testing.T) {
	ctx := context.Background()
	opts := Options{Kind: estimator.Avg, Attr: "value", Where: []pred.Term{{Attr: "value", Lo: 10, Hi: 90}}}
	compare := func(name string, h *Handle, healthy int) {
		t.Helper()
		exact, err := h.Estimate(ctx, testRange, opts)
		if err != nil {
			t.Fatal(err)
		}
		stream := opts
		stream.MaxSamples = exhaust
		drained, err := h.Estimate(ctx, testRange, stream)
		if err != nil {
			t.Fatal(err)
		}
		if exact.Method != "exact" || drained.Method != "distributed-rs-tree" {
			t.Fatalf("%s: ran via %q and %q", name, exact.Method, drained.Method)
		}
		if exact.Population != drained.Population || exact.Exact != drained.Exact || exact.Degraded != drained.Degraded ||
			exact.ShardsLost != drained.ShardsLost || exact.LostMassLow != drained.LostMassLow || exact.LostMassHigh != drained.LostMassHigh {
			t.Errorf("%s: exact population %d exact %v degraded %v lost %d mass [%v, %v]; stream %d %v %v %d [%v, %v]", name,
				exact.Population, exact.Exact, exact.Degraded, exact.ShardsLost, exact.LostMassLow, exact.LostMassHigh,
				drained.Population, drained.Exact, drained.Degraded, drained.ShardsLost, drained.LostMassLow, drained.LostMassHigh)
		}
		if exact.Population == 0 || exact.Population >= healthy {
			t.Fatalf("%s: survivors hold %d of %d records", name, exact.Population, healthy)
		}
		if !closeTo(exact.Value, drained.Value) {
			t.Errorf("%s: exact %v, exhausted stream %v", name, exact.Value, drained.Value)
		}
	}

	healthy := func(h *Handle) int {
		n, _ := bruteForce(h, testRange, "value", opts.Where)
		return n
	}
	_, mem := buildShardedHandle(t, 8000, 8, crashShards(2, 5))
	if _, err := mem.Estimate(ctx, testRange, Options{Kind: estimator.Avg, Attr: "value", MaxSamples: exhaust}); err != nil {
		t.Fatal(err)
	}
	if st := mem.Cluster().FaultStats(); st.ShardsDown != 2 {
		t.Fatalf("fault stats %+v, want two shards down", st)
	}
	compare("in-process", mem, healthy(mem))

	// Shards are runs of one STR order, so the query's records sit on a
	// few of them; the in-process cluster of the same shape says which.
	_, ref := buildShardedHandle(t, 8000, 4, nil)
	var matching []int
	for s, sh := range ref.Cluster().Shards() {
		if sh.Index().Tree().Count(testRange.Rect()) > 0 {
			matching = append(matching, s)
		}
	}
	// The ring hashes the hosts' ephemeral addresses: build until both
	// hosts hold shards and the other host holds some of the query's
	// records, then kill the one holding shard 0.
	for attempt := 0; ; attempt++ {
		tcp, srvs := remoteShardedHandle(t, 8000, 4)
		status := tcp.Cluster().ShardStatus()
		onFirst := 0
		for _, st := range status {
			if st.Addr == srvs[0].Addr() {
				onFirst++
			}
		}
		survives := slices.ContainsFunc(matching, func(s int) bool { return status[s].Addr != status[0].Addr })
		if onFirst == 0 || onFirst == len(status) || !survives {
			if attempt == 20 {
				t.Fatal("placement never split 4 shards across 2 hosts with query records on both")
			}
			continue
		}
		n := healthy(tcp)
		for _, srv := range srvs {
			if srv.Addr() == status[0].Addr {
				srv.Close()
			}
		}
		compare("tcp", tcp, n)
		return
	}
}

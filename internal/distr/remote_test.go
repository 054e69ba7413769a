package distr_test

// The TCP-transport suite: the same coordinator logic that the loopback
// suites validate, run against shard hosts behind real sockets. The
// anchor is TestRemoteMatchesLoopback — the TCP stream is byte-identical
// to the loopback stream under the same seed, so every statistical
// property the statcheck suites establish for loopback (uniformity,
// batching equivalence, degraded re-weighting) transfers to TCP without
// re-running the trials over RPC.

import (
	"math"
	"strings"
	"testing"
	"time"

	"storm/internal/data"
	"storm/internal/distr"
	"storm/internal/distr/distrtest"
	"storm/internal/estimator"
	"storm/internal/gen"
	"storm/internal/geo"
	"storm/internal/pred"
	"storm/internal/stats"
	"storm/internal/wire"
)

// startHost serves a freshly regenerated copy of the fixture dataset on
// a loopback TCP socket, modeling a real shard process that rebuilds its
// dataset from the same generator flags as the coordinator.
func startHost(t *testing.T, n int, addr string) *wire.Server {
	t.Helper()
	h := distr.NewHost()
	h.AddDataset(distrtest.Dataset(n))
	srv, err := wire.NewServer(addr, h)
	if err != nil {
		t.Fatalf("wire.NewServer(%q): %v", addr, err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestBuildRefusesDivergentCopy: a shard host whose copy of the dataset
// was generated from another seed, or with fewer records, holds other
// records under the coordinator's IDs. The other seed's shard boxes differ
// from geo.Bounds over the coordinator's leaf runs, and the short copy
// refuses IDs past its length, so the boot fails with an error that names
// the host and the dataset instead of serving other records.
func TestBuildRefusesDivergentCopy(t *testing.T) {
	const n = 4000
	for name, held := range map[string]*data.Dataset{
		"other seed":    gen.Uniform(n, 12, geo.Range{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100, MinT: 0, MaxT: 100}),
		"fewer records": distrtest.Dataset(n - 100),
	} {
		h := distr.NewHost()
		h.AddDataset(held)
		bad, err := wire.NewServer("127.0.0.1:0", h)
		if err != nil {
			t.Fatal(err)
		}
		good := startHost(t, n, "127.0.0.1:0")
		// Two copies of every shard on two hosts: each host builds them all.
		c, err := distr.BuildRemote(distrtest.Dataset(n), distrtest.FastConfig(4, 1, nil, 2), []string{good.Addr(), bad.Addr()})
		bad.Close()
		if err == nil {
			c.Close()
			t.Errorf("%s: the coordinator accepted a host holding another copy of the dataset", name)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, bad.Addr()) || !strings.Contains(msg, `"uniform"`) {
			t.Errorf("%s: error %q should name the host %s and the dataset", name, msg, bad.Addr())
		}
	}
}

func buildRemote(t *testing.T, ds *data.Dataset, cfg distr.Config, addrs []string) *distr.Cluster {
	t.Helper()
	c, err := distr.BuildRemote(ds, cfg, addrs)
	if err != nil {
		t.Fatalf("distr.BuildRemote: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestRemoteMatchesLoopback: same dataset, same seed, same config — the
// sample stream over TCP is byte-identical to the in-process stream, the
// remote cluster reports the bytes it moved, and both transports count
// the same messages and samples moved, from the Build RPCs on.
func TestRemoteMatchesLoopback(t *testing.T) {
	const n = 4000
	ds := distrtest.Dataset(n)
	q := distrtest.Query()
	cfg := distrtest.FastConfig(4, 7, nil)

	local := distrtest.Build(t, ds, cfg)
	remote := buildRemote(t, ds, cfg, []string{
		startHost(t, n, "127.0.0.1:0").Addr(),
		startHost(t, n, "127.0.0.1:0").Addr(),
	})

	if lc, rc := local.Count(q), remote.Count(q); lc != rc {
		t.Fatalf("count over TCP = %d, loopback = %d", rc, lc)
	}

	sizes := []int{17, 64, 1, 33}
	want := distrtest.DrainBatched(local.Sampler(q, stats.NewRNG(1)), sizes)
	got := distrtest.DrainBatched(remote.Sampler(q, stats.NewRNG(1)), sizes)
	distrtest.SameEntries(t, want, got, "loopback vs TCP")

	net := remote.Net()
	if net.Messages == 0 || net.BytesSent == 0 || net.BytesRecv == 0 {
		t.Errorf("remote NetStats = %+v, want measured traffic", net)
	}
	if net.SamplesMoved != uint64(len(got)) {
		t.Errorf("SamplesMoved = %d, want %d drained samples", net.SamplesMoved, len(got))
	}
	if lnet := local.Net(); lnet.Messages != net.Messages || lnet.SamplesMoved != net.SamplesMoved {
		t.Errorf("in-process NetStats = %+v, TCP = %+v: messages and samples moved should match", lnet, net)
	}
	remote.ResetNet()
	if after := remote.Net(); after.Messages != 0 || after.BytesSent != 0 {
		t.Errorf("NetStats after reset = %+v, want zero", after)
	}
}

// TestRemoteWindowMatchesLoopback: a `LAST`-windowed query reaches the
// shards as its rectangle with the time axis narrowed by the coordinator,
// so the windowed count and the windowed sample stream are byte-identical
// across transports.
func TestRemoteWindowMatchesLoopback(t *testing.T) {
	const n = 4000
	ds := distrtest.Dataset(n)
	q := distrtest.Query()
	cfg := distrtest.FastConfig(4, 7, nil)
	// The fixture spans t in [0, 100]; the window [65, 100] keeps roughly
	// the last third of the queried records.
	win := q
	win.Min[2] = 65

	local := distrtest.Build(t, ds, cfg)
	remote := buildRemote(t, ds, cfg, []string{
		startHost(t, n, "127.0.0.1:0").Addr(),
		startHost(t, n, "127.0.0.1:0").Addr(),
	})

	lc := local.Count(win)
	rc := remote.Count(win)
	if lc != rc {
		t.Fatalf("windowed counts: loopback %d, TCP %d", lc, rc)
	}
	if full := local.Count(q); lc <= 0 || lc >= full {
		t.Fatalf("window should cut the population: %d of %d", lc, full)
	}

	sizes := []int{17, 64, 1, 33}
	want := distrtest.DrainBatched(local.Sampler(win, stats.NewRNG(1)), sizes)
	got := distrtest.DrainBatched(remote.Sampler(win, stats.NewRNG(1)), sizes)
	distrtest.SameEntries(t, want, got, "windowed loopback vs TCP")
	for _, e := range want {
		if !win.Contains(e.Pos) {
			t.Fatalf("sample %d at t=%v escapes window %v", e.ID, e.Pos[2], win)
		}
	}
	if len(want) != lc {
		t.Fatalf("windowed WOR drain yields %d samples, want the full windowed population %d", len(want), lc)
	}
}

// TestRemoteInsertDelete mirrors updates through the wire protocol: the
// shard host appends the routed row (with attributes) to its own dataset
// copy, and delete finds it again.
func TestRemoteInsertDelete(t *testing.T) {
	const n = 3000
	ds := distrtest.Dataset(n)
	q := distrtest.Query()
	c := buildRemote(t, ds, distrtest.FastConfig(4, 7, nil), []string{
		startHost(t, n, "127.0.0.1:0").Addr(),
		startHost(t, n, "127.0.0.1:0").Addr(),
	})

	before := c.Count(q)
	id := ds.Append(data.Row{Pos: geo.Vec{40, 40, 50}, Num: map[string]float64{"value": 42}})
	e := ds.Entry(id)
	c.Insert(e)
	if got := c.Count(q); got != before+1 {
		t.Fatalf("count after insert = %d, want %d", got, before+1)
	}
	if !c.Delete(e) {
		t.Fatal("delete of inserted record failed")
	}
	if got := c.Count(q); got != before {
		t.Fatalf("count after delete = %d, want %d", got, before)
	}
	if c.Delete(e) {
		t.Fatal("second delete should find nothing")
	}
}

// TestRemoteFaultPlanResumesStream is PR 5's crash→recover tentpole run
// over TCP with the faults injected at the transport decorator: the
// shard's real server never dies, so its stream survives the injected
// outage and the re-admitted query drains the full population exactly
// once.
func TestRemoteFaultPlanResumesStream(t *testing.T) {
	const n = 6000
	ds := distrtest.Dataset(n)
	q := distrtest.Query()
	plan := &distr.FaultPlan{Shards: map[int]distr.ShardFaultPlan{
		1: {Crash: true, CrashAfterFetches: 1, RecoverAfter: 4},
	}}
	c := buildRemote(t, ds, distrtest.FastConfig(4, 5, plan), []string{
		startHost(t, n, "127.0.0.1:0").Addr(),
		startHost(t, n, "127.0.0.1:0").Addr(),
	})
	initial := c.Count(q)

	s := c.Sampler(q, stats.NewRNG(1))
	seen := make(map[data.ID]bool)
	buf := make([]data.Entry, 48)
	emitted := 0
	for {
		k := s.NextBatch(buf, len(buf))
		for _, e := range buf[:k] {
			if seen[e.ID] {
				t.Fatalf("duplicate sample %d", e.ID)
			}
			seen[e.ID] = true
		}
		emitted += k
		if k < len(buf) {
			break
		}
	}

	if s.Status("").ShardsLost > 0 {
		t.Fatal("query should have re-admitted the recovered shard")
	}
	if got := s.Status("").Readmits; got != 1 {
		t.Errorf("readmits = %d, want 1", got)
	}
	if emitted != initial {
		t.Errorf("drained %d samples, want the full pre-crash population %d", emitted, initial)
	}
	st := c.FaultStats()
	if st.Crashes != 1 || st.Readmits != 1 || st.ShardsDown != 0 {
		t.Errorf("fault stats = %+v, want one crash→readmit cycle, no shards down", st)
	}
}

// splitCluster builds a 4-shard remote cluster over two fresh hosts, A and
// B, whose placement splits the shards between them, and returns it with
// both hosts' servers. The ring hashes the hosts' ephemeral addresses, so
// a given pair can land every shard on one host, or only shards that hold
// no record of distrtest.Query() on B (a shard is a run of STR leaves, and
// the query sits on few of them); it retries with fresh listeners until
// killing either host leaves survivors and killing B loses query records.
func splitCluster(t *testing.T, n int, ds *data.Dataset, cfg distr.Config) (*distr.Cluster, [2]*wire.Server) {
	t.Helper()
	twin := distrtest.Build(t, distrtest.Dataset(n), cfg)
	for attempt := 0; attempt < 20; attempt++ {
		a := startHost(t, n, "127.0.0.1:0")
		b := startHost(t, n, "127.0.0.1:0")
		c := buildRemote(t, ds, cfg, []string{a.Addr(), b.Addr()})
		onB, queriedOnB := 0, 0
		for s, st := range c.ShardStatus() {
			if st.Addr == b.Addr() {
				onB++
				queriedOnB += twin.Shards()[s].Index().Count(distrtest.Query())
			}
		}
		if onB >= 1 && onB <= 3 && queriedOnB > 0 {
			return c, [2]*wire.Server{a, b}
		}
	}
	t.Fatal("placement never split 4 shards across 2 hosts, query records on B, in 20 attempts")
	return nil, [2]*wire.Server{}
}

// TestLostMassBoundsCoverIngestAfterHostKill: records ingested after Build
// widen the coordinator's envelope of the shard they land on, so when the
// host holding that shard dies mid-stream, the degraded query's lost-mass
// bounds still cover their values. The fixture's values stay below 200;
// the ingested ones are 1e6, spread over the query box. Insert routing
// decides which shards take them; an in-process twin of the cluster, which
// routes identically, names one, and the host holding it is killed. The
// stream then runs until every shard on that host that holds query
// records is written off.
func TestLostMassBoundsCoverIngestAfterHostKill(t *testing.T) {
	const n = 6000
	ds, twinDS := distrtest.Dataset(n), distrtest.Dataset(n)
	q := distrtest.Query()
	cfg := distrtest.FastConfig(4, 5, nil)
	c, srvs := splitCluster(t, n, ds, cfg)
	twin := distrtest.Build(t, twinDS, cfg)

	for i := 0; i < 13; i++ {
		for j := 0; j < 13; j++ {
			row := data.Row{
				Pos: geo.Vec{21 + 3*float64(i), 21 + 3*float64(j), 25 + 50*float64((i+j)%2)},
				Num: map[string]float64{"value": 1e6},
			}
			c.Insert(ds.Entry(ds.Append(row)))
			twin.Insert(twinDS.Entry(twinDS.Append(row)))
		}
	}
	everything := geo.NewRect(geo.Vec{-1, -1, -1}, geo.Vec{101, 101, 101})
	took := -1
	for s, sh := range twin.Shards() {
		for _, e := range sh.Index().Tree().ReportAll(everything) {
			if e.ID >= n {
				took = s
			}
		}
	}
	if took < 0 {
		t.Fatal("no shard of the twin took the ingested records")
	}
	victimAddr := c.ShardStatus()[took].Addr
	victim, onVictim := srvs[0], 0
	if srvs[1].Addr() == victimAddr {
		victim = srvs[1]
	}
	// Only shards holding query records serve the stream, so only they
	// can be written off; took is one of them.
	for s, st := range c.ShardStatus() {
		if st.Addr == victimAddr && twin.Shards()[s].Index().Count(q) > 0 {
			onVictim++
		}
	}

	s := c.Sampler(q, stats.NewRNG(1))
	buf := make([]data.Entry, 48)
	for i := 0; i < 3; i++ {
		s.NextBatch(buf, len(buf))
	}
	victim.Close()
	for i := 0; i < 500 && s.Status("").ShardsLost < onVictim; i++ {
		if s.NextBatch(buf, len(buf)) < len(buf) {
			break
		}
	}
	if got := s.Status("").ShardsLost; got != onVictim {
		t.Fatalf("killing the host of %d shards wrote off %d", onVictim, got)
	}
	lo, hi, lostN, ok := s.LostMassBounds("value")
	if !ok {
		t.Fatal("degraded query exposes no lost-mass bounds")
	}
	if hi < 1e6 {
		t.Errorf("lost-mass bounds [%v, %v] over %d lost records miss the ingested 1e6 values", lo, hi, lostN)
	}
}

// TestRemoteShardKillRestart is the real-outage version: one shard HOST
// process dies mid-stream (its listener closes), the query degrades over
// the survivors, the host comes back on the same address with empty
// state, and the coordinator re-admits it — rebuilding the shard over
// the wire and reopening the stream with the already-emitted samples
// excluded, so the drain still covers the full population exactly once.
func TestRemoteShardKillRestart(t *testing.T) {
	const n = 6000
	ds := distrtest.Dataset(n)
	q := distrtest.Query()
	cfg := distrtest.FastConfig(4, 5, nil)

	c, srvs := splitCluster(t, n, ds, cfg)
	srvB := srvs[1]
	initial := c.Count(q)

	s := c.Sampler(q, stats.NewRNG(1))
	seen := make(map[data.ID]bool)
	buf := make([]data.Entry, 48)
	emitted := 0
	drain := func(rounds int) bool {
		for i := 0; i < rounds; i++ {
			k := s.NextBatch(buf, len(buf))
			for _, e := range buf[:k] {
				if seen[e.ID] {
					t.Fatalf("duplicate sample %d", e.ID)
				}
				seen[e.ID] = true
			}
			emitted += k
			if k < len(buf) {
				return true
			}
		}
		return false
	}

	// A few healthy rounds, then the host dies mid-stream.
	drain(3)
	srvB.Close()
	for i := 0; i < 200 && s.Status("").ShardsLost == 0; i++ {
		drain(1)
	}
	if s.Status("").ShardsLost == 0 {
		t.Fatal("killing host B never degraded the stream")
	}
	if st := c.FaultStats(); st.Crashes == 0 || st.ShardsDown == 0 {
		t.Fatalf("fault stats after kill = %+v, want real crash accounted", st)
	}

	// Restart on the same address with a fresh (empty) host, then wait
	// until the coordinator's liveness probes see it back up before
	// draining further — otherwise the survivors can run dry inside the
	// probe's rate-limit window and the stream ends degraded.
	srvB2 := startHost(t, n, srvB.Addr())
	_ = srvB2
	healthy := false
	for wait := 0; wait < 500 && !healthy; wait++ {
		healthy = true
		for _, st := range c.ShardStatus() {
			if st.Down {
				healthy = false
			}
		}
		if !healthy {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if !healthy {
		t.Fatal("restarted host never probed back up")
	}

	// The next rounds re-admit the shards, rebuild them over the wire,
	// and reopen the streams with the emitted samples excluded, so the
	// drain completes over the full population.
	done := false
	for i := 0; i < 500 && !done; i++ {
		done = drain(1)
	}
	if !done {
		t.Fatal("stream never completed after host restart")
	}
	if s.Status("").ShardsLost > 0 {
		t.Fatal("query should have re-admitted the restarted host's shards")
	}
	if s.Status("").Readmits == 0 {
		t.Error("readmits = 0, want the restarted shards re-admitted")
	}
	if emitted != initial {
		t.Errorf("drained %d samples, want the full pre-kill population %d", emitted, initial)
	}
	if st := c.FaultStats(); st.ShardsDown != 0 {
		t.Errorf("shards_down = %d after recovery, want 0", st.ShardsDown)
	}
}

// TestCountRoundsBesideMirroredInserts: a shard host answers predicate
// count rounds, plain and summing, on some shards while mirrored inserts
// append to the dataset copy all its shards read (run with -race), and the
// rounds then count and sum exactly what the coordinator holds.
func TestCountRoundsBesideMirroredInserts(t *testing.T) {
	const n = 4000
	ds := distrtest.Dataset(n)
	srv := startHost(t, n, "127.0.0.1:0")
	c := buildRemote(t, ds, distrtest.FastConfig(4, 1, nil), []string{srv.Addr()})
	q := distrtest.Query()
	where := []pred.Term{{Attr: "value", Lo: 50, Hi: math.Inf(1)}}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range 300 {
			row := data.Row{Pos: geo.Vec{float64(i % 100), float64(i * 7 % 100), 50}, Num: map[string]float64{"value": float64(i % 90)}}
			c.Insert(ds.Entry(ds.Append(row)))
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		c.CountWhere(q, where)
		c.Moments(q, where, "value", math.MaxInt)
	}
	col, _ := ds.NumericColumn("value")
	var want estimator.Welford
	for i := range ds.Len() {
		if v := col[i]; q.Contains(ds.Pos(data.ID(i))) && v >= 50 {
			want.Add(v)
		}
	}
	m, summed := c.Moments(q, where, "value", math.MaxInt)
	if !summed || m.Records != want.N() || m.Values.N() != want.N() || math.Abs(m.Values.Mean()-want.Mean()) > 1e-9*want.Mean() {
		t.Errorf("round: summed %v, %d records, n %d, mean %v; want %d records of mean %v",
			summed, m.Records, m.Values.N(), m.Values.Mean(), want.N(), want.Mean())
	}
}

package distr

import (
	"math"
	"testing"

	"storm/internal/data"
	"storm/internal/gen"
	"storm/internal/geo"
	"storm/internal/rtree"
	"storm/internal/sampling/samplingtest"
	"storm/internal/stats"
	"storm/internal/wire"
)

func buildCluster(t testing.TB, n, shards int) (*Cluster, *data.Dataset) {
	t.Helper()
	ds := testDataset(n)
	c, err := Build(ds, Config{Shards: shards, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return c, ds
}

var testQuery = geo.NewRect(geo.Vec{20, 20, 0}, geo.Vec{60, 60, 100})

func TestBuildPartitionsEverything(t *testing.T) {
	c, ds := buildCluster(t, 10000, 4)
	if len(c.Shards()) != 4 {
		t.Fatalf("shards = %d", len(c.Shards()))
	}
	total := 0
	for _, s := range c.Shards() {
		total += s.Len()
	}
	if total != ds.Len() {
		t.Fatalf("shard records sum to %d, want %d", total, ds.Len())
	}
	// Balanced within one leaf: a shard is a run of whole leaves.
	f := rtree.DefaultFanout
	for _, s := range c.Shards() {
		if s.Len() < ds.Len()/4-f || s.Len() > ds.Len()/4+f {
			t.Errorf("shard %d holds %d records (imbalanced)", s.ID, s.Len())
		}
	}
}

func TestCountMatchesBrute(t *testing.T) {
	c, ds := buildCluster(t, 8000, 3)
	want := 0
	for i := 0; i < ds.Len(); i++ {
		if testQuery.Contains(ds.Pos(uint64(i))) {
			want++
		}
	}
	if got := c.Count(testQuery); got != want {
		t.Errorf("Count = %d, want %d", got, want)
	}
	if c.Net().Messages == 0 {
		t.Error("count should charge network messages")
	}
}

func TestSamplerCompleteAndUnique(t *testing.T) {
	c, ds := buildCluster(t, 8000, 4)
	want := make(map[data.ID]bool)
	for i := 0; i < ds.Len(); i++ {
		if testQuery.Contains(ds.Pos(uint64(i))) {
			want[uint64(i)] = true
		}
	}
	s := c.Sampler(testQuery, stats.NewRNG(1))
	got := make(map[data.ID]bool)
	for {
		e, ok := samplingtest.Next(s)
		if !ok {
			break
		}
		if !want[e.ID] {
			t.Fatalf("sample %d outside query", e.ID)
		}
		if got[e.ID] {
			t.Fatalf("duplicate sample %d", e.ID)
		}
		got[e.ID] = true
	}
	if len(got) != len(want) {
		t.Fatalf("drained %d, want %d", len(got), len(want))
	}
}

func TestSamplerUniformAcrossShards(t *testing.T) {
	// Shards hold disjoint Hilbert ranges, so a query spanning shard
	// boundaries checks the coordinator's weighted shard draw: counts per
	// record must be flat.
	ds := gen.Uniform(400, 13, geo.Range{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100, MinT: 0, MaxT: 100})
	want := make(map[data.ID]bool)
	for i := 0; i < ds.Len(); i++ {
		if testQuery.Contains(ds.Pos(uint64(i))) {
			want[uint64(i)] = true
		}
	}
	q := len(want)
	if q < 20 {
		t.Fatalf("degenerate fixture q=%d", q)
	}
	counts := make(map[data.ID]int)
	const trials = 15000
	for i := 0; i < trials; i++ {
		c, err := Build(ds, Config{Shards: 4, Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		s := c.Sampler(testQuery, stats.NewRNG(int64(i)))
		e, ok := samplingtest.Next(s)
		if !ok {
			t.Fatal("no sample")
		}
		counts[e.ID]++
	}
	obs := make([]int, 0, q)
	exp := make([]float64, 0, q)
	for id := range want {
		obs = append(obs, counts[id])
		exp = append(exp, float64(trials)/float64(q))
	}
	stat := stats.ChiSquareStat(obs, exp)
	crit := stats.ChiSquareQuantile(0.999, q-1)
	if stat > crit {
		t.Errorf("distributed first-sample chi-square %v > crit %v", stat, crit)
	}
}

func TestEmptyQueryAcrossShards(t *testing.T) {
	c, _ := buildCluster(t, 1000, 3)
	empty := geo.NewRect(geo.Vec{-10, -10, -10}, geo.Vec{-5, -5, -5})
	s := c.Sampler(empty, stats.NewRNG(1))
	if _, ok := samplingtest.Next(s); ok {
		t.Error("empty query should yield nothing")
	}
}

func TestDistributedInsertDelete(t *testing.T) {
	c, ds := buildCluster(t, 4000, 4)
	before := c.Count(testQuery)
	// New records become part of the shared dataset, then route to shards.
	var inserted []data.Entry
	for i := 0; i < 50; i++ {
		id := ds.AppendFast(geo.Vec{40, 40, 50})
		ds.SetNumeric("value", id, 123)
		e := data.Entry{ID: id, Pos: geo.Vec{40, 40, 50}}
		c.Insert(e)
		inserted = append(inserted, e)
	}
	if got := c.Count(testQuery); got != before+50 {
		t.Fatalf("count after inserts = %d, want %d", got, before+50)
	}
	// The coordinator routes by its own shard boxes, widened as it
	// routes: each is exactly its primary copy's tree box.
	for i, sh := range c.Shards() {
		if box, tree := c.env[i].box, sh.Index().Tree().Bounds(); box != tree {
			t.Errorf("shard %d: coordinator box %v, tree box %v", i, box, tree)
		}
	}
	// Fresh records are sampleable.
	s := c.Sampler(geo.NewRect(geo.Vec{39.9, 39.9, 49}, geo.Vec{40.1, 40.1, 51}), stats.NewRNG(1))
	found := 0
	for {
		e, ok := samplingtest.Next(s)
		if !ok {
			break
		}
		if e.Pos == (geo.Vec{40, 40, 50}) {
			found++
		}
	}
	if found != 50 {
		t.Errorf("sampled %d fresh records, want 50", found)
	}
	// Deletes land on the right shard.
	for _, e := range inserted[:20] {
		if !c.Delete(e) {
			t.Fatalf("delete of %d failed", e.ID)
		}
	}
	if got := c.Count(testQuery); got != before+30 {
		t.Errorf("count after deletes = %d, want %d", got, before+30)
	}
	// Deletes never shrink a coordinator box; it still covers the tree.
	for i, sh := range c.Shards() {
		if box, tree := c.env[i].box, sh.Index().Tree().Bounds(); !box.ContainsRect(tree) {
			t.Errorf("shard %d: coordinator box %v after deletes misses tree box %v", i, box, tree)
		}
	}
	if c.Delete(data.Entry{ID: 999999, Pos: geo.Vec{1, 1, 1}}) {
		t.Error("deleting a missing record should fail")
	}
}

// TestInsertAfterHostDeathIsNeverLostSilently: host B of a remote R=1
// cluster of two shards, one per host, dies, and records then arrive
// inside the box of B's shard. The coordinator routes from its own boxes,
// so it may learn of the death only when a mirror fails: that record is
// charged to every copy of its shard as a missed mirror, and the shard is
// marked down. No record vanishes — each is held by a live shard or
// charged — and once B is seen down, later records land on host A's
// shard.
func TestInsertAfterHostDeathIsNeverLostSilently(t *testing.T) {
	const n = 6000
	ds := testDataset(n)
	c, b := splitRemote(t, n, ds, Config{Shards: 2, Seed: 5, RetryBackoff: -1})
	onB := 0
	if c.ShardStatus()[1].Addr == b.Addr() {
		onB = 1
	}
	// A point only B's shard box holds routes there while it is believed
	// live. The boxes are the coordinator's, the built trees' root boxes: a
	// record in B's box and outside A's is on B's shard.
	boxB, other := c.env[onB].box, c.env[1-onB].box
	target := -1
	for id := range n {
		if p := ds.Pos(data.ID(id)); boxB.Contains(p) && !other.Contains(p) {
			target = id
			break
		}
	}
	if target < 0 {
		t.Fatalf("every record of shard %d lies in the other shard's box", onB)
	}
	b.Close()

	misses := func() [2]uint64 {
		return [2]uint64{c.mirrorMisses[0][0].Load(), c.mirrorMisses[1][0].Load()}
	}
	p := ds.Pos(data.ID(target))
	var acked []data.Entry
	charged, afterDown := 0, 0
	for k := 0; k < 12; k++ {
		pos := geo.Vec{p[0] + 1e-6*float64(k+1), p[1], p[2]}
		e := ds.Entry(ds.Append(data.Row{Pos: pos, Num: map[string]float64{"value": 1}}))
		seenDown := c.ShardStatus()[onB].Down
		before := misses()
		c.Insert(e)
		after := misses()
		switch {
		case after == before:
			acked = append(acked, e)
			if seenDown {
				afterDown++
			}
		case seenDown:
			t.Fatalf("record %d charged %v -> %v after host B was seen down", k, before, after)
		case after[1-onB] != before[1-onB] || after[onB] != before[onB]+1:
			t.Fatalf("record %d charged %v -> %v, want one miss on B's shard %d", k, before, after, onB)
		default:
			charged++
		}
	}
	t.Logf("%d records charged as missed mirrors, %d routed after host B was seen down", charged, afterDown)
	if charged > 1 {
		t.Errorf("%d records charged as missed mirrors, want at most 1", charged)
	}
	if !c.ShardStatus()[onB].Down || afterDown == 0 {
		t.Fatalf("host B seen down = %v, records routed after = %d", c.ShardStatus()[onB].Down, afterDown)
	}
	for _, e := range acked {
		if got := c.Count(geo.RectFromPoint(e.Pos)); got != 1 {
			t.Errorf("record %d was not charged, but live shards hold %d copies of it", e.ID, got)
		}
	}
}

// splitRemote builds a remote cluster over two fresh hosts, A and B, whose
// placement puts at least one shard on each, and returns it with host B's
// server. The ring hashes the hosts' ephemeral addresses, so a given pair
// can land every shard on one host; it retries with fresh listeners.
func splitRemote(t *testing.T, n int, ds *data.Dataset, cfg Config) (*Cluster, *wire.Server) {
	t.Helper()
	serve := func() *wire.Server {
		h := NewHost()
		h.AddDataset(testDataset(n))
		srv, err := wire.NewServer("127.0.0.1:0", h)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return srv
	}
	for attempt := 0; attempt < 20; attempt++ {
		a, b := serve(), serve()
		c, err := BuildRemote(ds, cfg, []string{a.Addr(), b.Addr()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		onB := 0
		for _, st := range c.ShardStatus() {
			if st.Addr == b.Addr() {
				onB++
			}
		}
		if onB >= 1 && onB < cfg.Shards {
			return c, b
		}
	}
	t.Fatal("placement never split the shards across 2 hosts in 20 attempts")
	return nil, nil
}

func TestConfigValidation(t *testing.T) {
	ds := gen.Uniform(10, 1, geo.SpatialRange(0, 0, 1, 1))
	if _, err := Build(ds, Config{Shards: 0}); err == nil {
		t.Error("zero shards should be rejected")
	}
}

func TestMoreShardsThanRecords(t *testing.T) {
	ds := gen.Uniform(3, 2, geo.Range{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100, MinT: 0, MaxT: 100})
	c, err := Build(ds, Config{Shards: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	all := geo.NewRect(geo.Vec{0, 0, 0}, geo.Vec{100, 100, 100})
	s := c.Sampler(all, stats.NewRNG(1))
	n := 0
	for {
		if _, ok := samplingtest.Next(s); !ok {
			break
		}
		n++
	}
	if n != 3 {
		t.Errorf("drained %d of 3", n)
	}
}

// TestMomentsVerdictIgnoresSplit: a shard sums a count round's moments only
// while its own count is at most the limit, and the exact plan takes the
// answer only when the total is (Records <= limit), which every shard's
// count then is too. So a region held by one shard and the same region
// split over two get one verdict at every limit, and equal moments when
// exact.
func TestMomentsVerdictIgnoresSplit(t *testing.T) {
	ds := testDataset(6000)
	one, err := Build(ds, Config{Shards: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer one.Close()
	two, err := Build(ds, Config{Shards: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer two.Close()
	held := make([]int, 2)
	for s, sh := range two.Shards() {
		held[s] = sh.Index().Count(testQuery)
	}
	if held[0] == 0 || held[1] == 0 {
		t.Fatalf("the query must be split over both shards: they hold %v", held)
	}
	total := held[0] + held[1]
	for _, limit := range []int{min(held[0], held[1]), max(held[0], held[1]), total - 1, total, total + 1, math.MaxInt} {
		m1, summed1 := one.Moments(testQuery, nil, "value", limit)
		m2, summed2 := two.Moments(testQuery, nil, "value", limit)
		exact1, exact2 := summed1 && m1.Records <= limit, summed2 && m2.Records <= limit
		if m1.Records != total || m2.Records != total {
			t.Fatalf("limit %d: one shard counts %d, two count %d, want %d", limit, m1.Records, m2.Records, total)
		}
		if exact1 != exact2 || exact1 != (total <= limit) {
			t.Errorf("limit %d of %d records: exact on one shard %v, split over two %v", limit, total, exact1, exact2)
		}
		if !exact1 {
			continue
		}
		v1, v2 := m1.Values, m2.Values
		if v1.N() != v2.N() || math.Abs(v1.Mean()-v2.Mean()) > 1e-12*math.Abs(v1.Mean()) || math.Abs(v1.M2()-v2.M2()) > 1e-9*v1.M2() {
			t.Errorf("limit %d: one shard sums n %d, mean %v, M2 %v; two shards n %d, mean %v, M2 %v", limit, v1.N(), v1.Mean(), v1.M2(), v2.N(), v2.Mean(), v2.M2())
		}
	}
}

package distr

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"storm/internal/data"
	"storm/internal/data/datatest"
	"storm/internal/gen"
	"storm/internal/geo"
	"storm/internal/rtree"
	"storm/internal/stats"
	"storm/internal/wire"
)

// testDataset generates the in-package fixture; calling it again gives a
// shard host its own identical copy, as regenerating from the same flags
// does in a real deployment.
func testDataset(n int) *data.Dataset {
	return gen.Uniform(n, 11, geo.Range{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100, MinT: 0, MaxT: 100})
}

// cut returns the Builds a coordinator sends for the of shards of ds at
// fanout: each shard's run of ds's one STR order, as Start cuts it.
func cut(ds *data.Dataset, of, fanout uint32, seed int64) []*wire.Build {
	order := rtree.STROrderDataset(int(fanout), ds)
	builds := make([]*wire.Build, of)
	for s := range builds {
		run := leafRun(order.Entries, shardFanout(int(fanout)), int(of), s)
		ids := make([]data.ID, len(run))
		for i, e := range run {
			ids[i] = e.ID
		}
		builds[s] = &wire.Build{Target: wire.Target{DS: ds.Name(), Shard: uint32(s)}, Of: of, Seed: seed, Fanout: fanout, Bounds: order.Bounds, IDs: ids}
	}
	return builds
}

// buildOn sends the listed Builds to the host, all at once, and fails the
// test on any answer but BuildOK.
func buildOn(t *testing.T, h *Host, builds ...*wire.Build) {
	t.Helper()
	var wg sync.WaitGroup
	for _, b := range builds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := h.Handle(b)
			if _, ok := resp.(*wire.BuildOK); !ok {
				t.Errorf("Build shard %d of %d: %#v", b.Shard, b.Of, resp)
			}
		}()
	}
	wg.Wait()
}

// TestHostBuildsMatchLoopback: a host sent the coordinator's Builds —
// concurrently or one after another, and again — serves what the loopback
// cluster holds, entry for entry and sample for sample, and a cluster
// built over it by BuildRemote streams the same samples.
func TestHostBuildsMatchLoopback(t *testing.T) {
	const n = 6000
	everything := geo.NewRect(geo.Vec{-1, -1, -1}, geo.Vec{101, 101, 101})
	for _, of := range []uint32{2, 4} {
		ds := testDataset(n)
		cfg := Config{Shards: int(of), Seed: 5, RetryBackoff: -1}
		local, err := Build(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}

		h := NewHost()
		h.AddDataset(testDataset(n))
		builds := cut(ds, of, 0, cfg.Seed)
		// All but the last shard at once, the last one later, then every
		// Build again: the re-issued ones answer from the built shards.
		buildOn(t, h, builds[:of-1]...)
		buildOn(t, h, builds[of-1])
		buildOn(t, h, builds...)

		for s, sh := range local.Shards() {
			want := sh.Index().Tree().ReportAll(everything)
			b := h.backend(wire.Target{DS: ds.Name(), Shard: uint32(s)})
			got := b.shard.Index().Tree().ReportAll(everything)
			if len(want) != len(got) || len(got) != b.shard.Len() {
				t.Fatalf("of=%d shard %d: host holds %d entries (length %d), loopback %d", of, s, len(got), b.shard.Len(), len(want))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("of=%d shard %d: entry %d is %v on the host, %v over loopback", of, s, i, got[i], want[i])
				}
			}
		}

		srv, err := wire.NewServer("127.0.0.1:0", h)
		if err != nil {
			t.Fatal(err)
		}
		remote, err := BuildRemote(ds, cfg, []string{srv.Addr()})
		if err != nil {
			srv.Close()
			t.Fatal(err)
		}
		want, got := make([]data.Entry, 512), make([]data.Entry, 512)
		if k := local.Sampler(testQuery, stats.NewRNG(1)).NextBatch(want, len(want)); k != len(want) {
			t.Fatalf("of=%d: loopback stream ends after %d samples", of, k)
		}
		if k := remote.Sampler(testQuery, stats.NewRNG(1)).NextBatch(got, len(got)); k != len(got) {
			t.Fatalf("of=%d: host stream ends after %d samples", of, k)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("of=%d: sample %d is %v over the host, %v over loopback", of, i, got[i], want[i])
			}
		}
		remote.Close()
		srv.Close()
	}
}

// TestHostShardsKeyCacheValid builds every shard of a few datasets on a
// host and validates each tree: leaf key caches, LHVs and boxes over a
// window of the dataset's order, quantized over the dataset's box rather
// than the window's. On spread keys, on tied ones, on a dataset whose
// records all sit at the origin (keyed over the unit box), on a copy that
// grew after it was added (its shards must hold every record), and at
// several fanouts and shard counts.
func TestHostShardsKeyCacheValid(t *testing.T) {
	origin := data.NewDataset("origin")
	for range 300 {
		origin.Append(data.Row{})
	}
	grown := testDataset(2000)
	for _, ds := range []*data.Dataset{testDataset(6000), datatest.TieHeavy(5000), tiedDataset(3000), origin, grown} {
		for _, c := range []struct{ of, fanout uint32 }{{1, 0}, {2, 16}, {5, 8}} {
			h := NewHost()
			h.AddDataset(ds)
			if ds == grown {
				// Rows appended after AddDataset, as mirrored inserts append
				// them: the coordinator's order holds them, over the grown box.
				for i := range 50 {
					ds.Append(data.Row{Pos: geo.Vec{200 + float64(i), -5, 150 + float64(ds.Len())}})
				}
			}
			held := 0
			for s, b := range cut(ds, c.of, c.fanout, 1) {
				if resp := h.Handle(b); !isBuildOK(resp) {
					t.Fatalf("%s: Build shard %d of %d: %#v", ds.Name(), s, c.of, resp)
				}
				tree := h.backend(b.Target).shard.index.Tree()
				if err := tree.Validate(); err != nil {
					t.Errorf("%s, shard %d of %d at fanout %d: %v", ds.Name(), s, c.of, c.fanout, err)
				}
				held += tree.Len()
			}
			if held != ds.Len() {
				t.Errorf("%s: %d shards hold %d records of %d", ds.Name(), c.of, held, ds.Len())
			}
		}
	}
}

func isBuildOK(m wire.Msg) bool {
	_, ok := m.(*wire.BuildOK)
	return ok
}

// TestHostBuildRejectsOversizedOf: Of comes off the wire; an absurd one is
// refused before anything is built, while more shards than records — a
// small or empty dataset on a pool of hosts — stays a valid cluster.
func TestHostBuildRejectsOversizedOf(t *testing.T) {
	h := NewHost()
	h.AddDataset(testDataset(100))
	h.AddDataset(data.NewDataset("empty"))
	for _, c := range []struct {
		ds     string
		of     uint32
		refuse bool
	}{
		{"uniform", 4_000_000_000, true},
		{"uniform", maxShards + 1, true},
		{"uniform", 101, false},
		{"empty", 2, false},
	} {
		resp := h.Handle(&wire.Build{Target: wire.Target{DS: c.ds, Shard: 0}, Of: c.of, Seed: 1})
		werr, isErr := resp.(*wire.Error)
		switch {
		case !c.refuse && isErr:
			t.Errorf("Build %s of %d refused: %v", c.ds, c.of, werr)
		case c.refuse && (!isErr || werr.Code != wire.ErrCodeBadRequest):
			t.Errorf("Build %s of %d answered %#v, want a bad-request error", c.ds, c.of, resp)
		}
	}
	if got := h.Shards(); got != 2 {
		t.Errorf("host serves %d shards, want the 2 Builds it accepted", got)
	}
}

// TestHostRefusesBadIDs: a Build's record IDs come off the wire. One past
// the host's copy, or one named twice, is refused with a bad-request error
// that names it, and nothing is built; the same shard with valid IDs then
// builds.
func TestHostRefusesBadIDs(t *testing.T) {
	const n = 1000
	h := NewHost()
	h.AddDataset(testDataset(n))
	good := cut(testDataset(n), 2, 0, 5)[0]
	for _, c := range []struct {
		name string
		ids  []data.ID
		want string
	}{
		{"past the copy", append(slices.Clone(good.IDs), n), fmt.Sprintf("record %d is past", n)},
		{"far past the copy", []data.ID{math.MaxUint64}, "past the host's 1000 records"},
		{"repeated", append(slices.Clone(good.IDs), good.IDs[3]), fmt.Sprintf("record %d is named twice", good.IDs[3])},
	} {
		bad := *good
		bad.IDs = c.ids
		resp := h.Handle(&bad)
		werr, isErr := resp.(*wire.Error)
		if !isErr || werr.Code != wire.ErrCodeBadRequest || !strings.Contains(werr.Msg, c.want) {
			t.Errorf("%s: answered %#v, want a bad-request error naming %q", c.name, resp, c.want)
		}
	}
	if got := h.Shards(); got != 0 {
		t.Fatalf("refused Builds left %d shards built", got)
	}
	buildOn(t, h, good)
}

// TestHostRefusesBuildForOtherShardCount: a built shard is one run of
// leaves of a cut into Of shards. A coordinator asking for the same shard
// under another count (restarted with another -shards) would get a run that
// overlaps its other shards', so the host refuses, naming both counts; the
// same count stays idempotent.
func TestHostRefusesBuildForOtherShardCount(t *testing.T) {
	h := NewHost()
	h.AddDataset(testDataset(1000))
	buildOn(t, h, cut(testDataset(1000), 2, 0, 5)[0])
	resp := h.Handle(cut(testDataset(1000), 4, 0, 5)[0])
	werr, isErr := resp.(*wire.Error)
	if !isErr || werr.Code != wire.ErrCodeBadRequest {
		t.Fatalf("Build shard 0 of 4 on a shard built as 0 of 2 answered %#v, want a bad-request error", resp)
	}
	if !strings.Contains(werr.Msg, "of 2 shards") || !strings.Contains(werr.Msg, "not 4") {
		t.Errorf("refusal %q should name both shard counts", werr.Msg)
	}
	buildOn(t, h, cut(testDataset(1000), 2, 0, 5)[0])
}

// TestHostRefusesBuildForOtherFanout: a shard's leaves are a run of the
// dataset's STR order at its fanout, and the order at another fanout cuts
// other records into shard 0. A Build for a built shard at another fanout
// is refused, naming both; the default fanout, sent as 0 or as its value,
// stays idempotent.
func TestHostRefusesBuildForOtherFanout(t *testing.T) {
	ds := testDataset(1000)
	h := NewHost()
	h.AddDataset(ds)
	buildOn(t, h, cut(ds, 2, 0, 5)[0])
	resp := h.Handle(cut(ds, 2, 16, 5)[0])
	werr, isErr := resp.(*wire.Error)
	if !isErr || werr.Code != wire.ErrCodeBadRequest {
		t.Fatalf("Build shard 0 at fanout 16 on a shard built at the default answered %#v, want a bad-request error", resp)
	}
	if want := fmt.Sprintf("at fanout %d, not 16", rtree.DefaultFanout); !strings.Contains(werr.Msg, want) {
		t.Errorf("refusal %q should name both fanouts (%q)", werr.Msg, want)
	}
	buildOn(t, h, cut(ds, 2, rtree.DefaultFanout, 5)[0])
}

// TestHostBuildRacesInsert builds shard 1 while mirrored inserts land in
// shard 0, which is already built — a re-issued Build after a host
// restart meets exactly this. The inserts append to the dataset copy the
// Build reads; under -race this test is the proof that the two are
// ordered.
func TestHostBuildRacesInsert(t *testing.T) {
	const n = 4000
	h := NewHost()
	h.AddDataset(testDataset(n))
	builds := cut(testDataset(n), 2, 0, 5)
	buildOn(t, h, builds[0])

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			resp := h.Handle(&wire.Insert{
				Target: wire.Target{DS: "uniform", Shard: 0},
				ID:     data.ID(n + i), Pos: geo.Vec{10, 10, float64(i % 100)},
				Num: []wire.NumAttr{{Name: "value", Val: 1}},
			})
			if _, ok := resp.(*wire.InsertOK); !ok {
				t.Errorf("Insert %d: %#v", i, resp)
				return
			}
		}
	}()
	buildOn(t, h, builds[1])
	wg.Wait()
	if got := h.Shards(); got != 2 {
		t.Errorf("host serves %d shards, want 2", got)
	}
}

// recordingTransport is an in-memory transport to a shard host that counts
// the Build requests written through it and the answers read back.
type recordingTransport struct {
	*wire.MemClient
	mu              sync.Mutex
	built, answered int
}

func (r *recordingTransport) Send(req wire.Msg, timeout time.Duration) (func() (wire.Msg, error), error) {
	if _, ok := req.(*wire.Build); ok {
		r.mu.Lock()
		r.built++
		r.mu.Unlock()
	}
	recv, err := r.MemClient.Send(req, timeout)
	if err != nil {
		return nil, err
	}
	return func() (wire.Msg, error) {
		r.mu.Lock()
		r.answered++
		r.mu.Unlock()
		return recv()
	}, nil
}

func (r *recordingTransport) counts() (built, answered int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.built, r.answered
}

// TestAssembleWritesEveryBuildFirst: assemble, the last step of Start,
// returns once every shard copy's Build is written
// and before any answer is read; its wait reads every answer and returns a
// cluster that holds every record.
func TestAssembleWritesEveryBuildFirst(t *testing.T) {
	const n = 3000
	ds := testDataset(n)
	cfg := Config{Shards: 4, Replicas: 2, Fanout: 16, Seed: 3}
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	c := &Cluster{cfg: cfg, ds: ds}
	hosts := make([]*recordingTransport, 3)
	for i := range hosts {
		h := NewHost()
		h.AddDataset(testDataset(n))
		hosts[i] = &recordingTransport{MemClient: wire.NewMemClient(h)}
		c.transports = append(c.transports, hosts[i])
	}
	place := make([][]endpoint, cfg.Shards)
	for s := range place {
		for r := range cfg.Replicas {
			place[s] = append(place[s], endpoint{addr: "host", t: hosts[(s+r)%len(hosts)]})
		}
	}
	wait := c.assemble(place, rtree.STROrderDataset(cfg.Fanout, ds))
	built := 0
	for i, h := range hosts {
		b, a := h.counts()
		if a != 0 {
			t.Errorf("host %d: %d answers read before wait", i, a)
		}
		built += b
	}
	if built != cfg.Shards*cfg.Replicas {
		t.Fatalf("%d Builds written when assemble returned, want %d", built, cfg.Shards*cfg.Replicas)
	}
	if _, err := wait(); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i, h := range hosts {
		if b, a := h.counts(); a != b {
			t.Errorf("host %d: %d answers read for %d Builds", i, a, b)
		}
	}
	if got := c.Count(geo.NewRect(geo.Vec{-1e9, -1e9, -1e9}, geo.Vec{1e9, 1e9, 1e9})); got != n {
		t.Errorf("cluster counts %d records, want %d", got, n)
	}
}

// TestShardWindowsDoNotAlias: each shard's leaves are windows of an entry
// list gathered from its Build's IDs, while the in-process hosts of Build
// share one dataset and each shard's ID slice. Updates to one shard copy —
// deletes edit a leaf in place, inserts grow leaves past their windows —
// must leave its sibling shard and every other copy as they were.
func TestShardWindowsDoNotAlias(t *testing.T) {
	ds := testDataset(3000)
	c, err := Build(ds, Config{Shards: 2, Replicas: 2, Fanout: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	backend := func(r, s int) *shardBackend {
		return c.hosts[r].backend(wire.Target{DS: ds.Name(), Shard: uint32(s)})
	}
	before := map[[2]int][]data.Entry{}
	for r := range 2 {
		for s := range 2 {
			before[[2]int{r, s}] = slices.Clone(leafEntries(backend(r, s).shard.index.Tree()))
		}
	}
	b := backend(0, 0)
	for i, e := range before[[2]int{0, 0}] {
		if i%2 == 0 {
			b.delete(e)
		} else {
			b.insert(data.Entry{ID: data.ID(100_000 + i), Pos: e.Pos})
		}
	}
	if err := b.shard.index.Tree().Validate(); err != nil {
		t.Fatal(err)
	}
	for key, want := range before {
		if key == [2]int{0, 0} {
			continue
		}
		if got := leafEntries(backend(key[0], key[1]).shard.index.Tree()); !slices.Equal(got, want) {
			t.Errorf("updating shard 0 on host 0 changed shard %d on host %d", key[1], key[0])
		}
	}
}

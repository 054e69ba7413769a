package distr

import (
	"fmt"
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

// buildOn sends one Build per listed shard to the host, all at once, and
// fails the test on any answer but BuildOK.
func buildOn(t *testing.T, h *Host, ds string, of uint32, shards ...uint32) {
	t.Helper()
	var wg sync.WaitGroup
	for _, s := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := h.Handle(&wire.Build{Target: wire.Target{DS: ds, Shard: s}, Of: of, Seed: 5})
			if _, ok := resp.(*wire.BuildOK); !ok {
				t.Errorf("Build shard %d of %d: %#v", s, of, resp)
			}
		}()
	}
	wg.Wait()
}

// TestHostPartitionsOncePerDataset is the deterministic gate on the
// host's build work: however many of a dataset's shards a host builds,
// concurrently or one after another, it orders the dataset once per
// (dataset, fanout, record count), when it is added for the default fanout
// — and what it then serves is what the loopback cluster holds, entry for
// entry and sample for sample.
func TestHostPartitionsOncePerDataset(t *testing.T) {
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
		all := make([]uint32, of)
		for s := range all {
			all[s] = uint32(s)
		}
		// All but the last shard at once, the last one later: one order.
		buildOn(t, h, ds.Name(), of, all[:of-1]...)
		buildOn(t, h, ds.Name(), of, all[of-1])
		if got := h.Partitions(); got != 1 {
			t.Fatalf("of=%d: %d Builds made %d orders, want 1", of, of, got)
		}
		if len(h.memos) != 0 {
			t.Errorf("of=%d: the host keeps an order after handing out every window", of)
		}
		// Re-issued Builds answer from the built shards.
		buildOn(t, h, ds.Name(), of, all...)
		if got := h.Partitions(); got != 1 {
			t.Fatalf("of=%d: re-issued Builds ordered again (%d)", of, got)
		}

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
		if got := h.Partitions(); got != 1 {
			t.Errorf("of=%d: BuildRemote on a built host ordered again (%d)", of, got)
		}
		remote.Close()
		srv.Close()
	}

	// A dataset that grew is ordered afresh, once, for the shards still to
	// be built.
	h := NewHost()
	h.AddDataset(testDataset(n))
	buildOn(t, h, "uniform", 4, 0)
	resp := h.Handle(&wire.Insert{Target: wire.Target{DS: "uniform", Shard: 0}, ID: n, Pos: geo.Vec{50, 50, 50}})
	if _, ok := resp.(*wire.InsertOK); !ok {
		t.Fatalf("Insert: %#v", resp)
	}
	buildOn(t, h, "uniform", 4, 1, 2, 3)
	if got := h.Partitions(); got != 2 {
		t.Errorf("Builds either side of an insert made %d orders, want 2", got)
	}

	// So is a dataset asked for at another fanout, once for all its shards.
	h = NewHost()
	h.AddDataset(testDataset(n))
	for s := range uint32(4) {
		resp := h.Handle(&wire.Build{Target: wire.Target{DS: "uniform", Shard: s}, Of: 4, Fanout: 16, Seed: 5})
		if _, ok := resp.(*wire.BuildOK); !ok {
			t.Fatalf("Build shard %d at fanout 16: %#v", s, resp)
		}
	}
	if got := h.Partitions(); got != 2 {
		t.Errorf("Builds at fanout 16 on a host ordered for the default made %d orders, want 2", got)
	}
}

// TestHostShardsKeyCacheValid builds every shard of a few datasets on a
// host and validates each tree: leaf key caches, LHVs and boxes over a
// window of the dataset's order, quantized over the dataset's box rather
// than the window's. On spread keys, on tied ones, on a dataset whose
// records all sit at the origin (keyed over the unit box), on a copy that
// grew past the records AddDataset ordered (its shards must hold every
// record), and at several fanouts and shard counts.
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
				// them: the copy must be ordered again, over the grown box.
				for i := range 50 {
					ds.Append(data.Row{Pos: geo.Vec{200 + float64(i), -5, 150 + float64(ds.Len())}})
				}
			}
			held := 0
			for s := uint32(0); s < c.of; s++ {
				resp := h.Handle(&wire.Build{Target: wire.Target{DS: ds.Name(), Shard: s}, Of: c.of, Seed: 1, Fanout: c.fanout})
				if _, ok := resp.(*wire.BuildOK); !ok {
					t.Fatalf("%s: Build shard %d of %d: %#v", ds.Name(), s, c.of, resp)
				}
				tree := h.backend(wire.Target{DS: ds.Name(), Shard: s}).shard.index.Tree()
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

// TestHostBuildRejectsOversizedOf: Of comes off the wire and sizes the
// order memo's per-shard table; an absurd one is refused before anything
// is allocated or memoised, while more shards than records — a small or
// empty dataset on a pool of hosts — stays a valid cluster.
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
	if got := h.Partitions(); got != 2 {
		t.Errorf("refused Builds ordered a dataset: %d orders, want 2", got)
	}
}

// TestHostRefusesBuildForOtherShardCount: a built shard is one run of
// leaves of a cut into Of shards. A coordinator asking for the same shard
// under another count (restarted with another -shards) would get a run that
// overlaps its other shards', so the host refuses, naming both counts; the
// same count stays idempotent.
func TestHostRefusesBuildForOtherShardCount(t *testing.T) {
	h := NewHost()
	h.AddDataset(testDataset(1000))
	buildOn(t, h, "uniform", 2, 0)
	resp := h.Handle(&wire.Build{Target: wire.Target{DS: "uniform", Shard: 0}, Of: 4, Seed: 5})
	werr, isErr := resp.(*wire.Error)
	if !isErr || werr.Code != wire.ErrCodeBadRequest {
		t.Fatalf("Build shard 0 of 4 on a shard built as 0 of 2 answered %#v, want a bad-request error", resp)
	}
	if !strings.Contains(werr.Msg, "of 2 shards") || !strings.Contains(werr.Msg, "not 4") {
		t.Errorf("refusal %q should name both shard counts", werr.Msg)
	}
	buildOn(t, h, "uniform", 2, 0)
	if got := h.Partitions(); got != 1 {
		t.Errorf("%d orders, want 1: neither the refusal nor the re-Build orders", got)
	}
}

// TestHostRefusesBuildForOtherFanout: a shard's leaves are a run of the
// dataset's STR order at its fanout, and the order at another fanout cuts
// other records into shard 0. A Build for a built shard at another fanout
// is refused, naming both; the default fanout, sent as 0 or as its value,
// stays idempotent.
func TestHostRefusesBuildForOtherFanout(t *testing.T) {
	h := NewHost()
	h.AddDataset(testDataset(1000))
	buildOn(t, h, "uniform", 2, 0)
	resp := h.Handle(&wire.Build{Target: wire.Target{DS: "uniform", Shard: 0}, Of: 2, Fanout: 16, Seed: 5})
	werr, isErr := resp.(*wire.Error)
	if !isErr || werr.Code != wire.ErrCodeBadRequest {
		t.Fatalf("Build shard 0 at fanout 16 on a shard built at the default answered %#v, want a bad-request error", resp)
	}
	if want := fmt.Sprintf("at fanout %d, not 16", rtree.DefaultFanout); !strings.Contains(werr.Msg, want) {
		t.Errorf("refusal %q should name both fanouts (%q)", werr.Msg, want)
	}
	resp = h.Handle(&wire.Build{Target: wire.Target{DS: "uniform", Shard: 0}, Of: 2, Fanout: rtree.DefaultFanout, Seed: 5})
	if _, ok := resp.(*wire.BuildOK); !ok {
		t.Errorf("Build shard 0 at the default fanout by value answered %#v", resp)
	}
	if got := h.Partitions(); got != 1 {
		t.Errorf("%d orders, want 1: neither the refusal nor the re-Build orders", got)
	}
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
	buildOn(t, h, "uniform", 2, 0)

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
	buildOn(t, h, "uniform", 2, 1)
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

// TestAssembleWritesEveryBuildFirst: assemble, the last step of
// StartRemote and Build, returns once every shard copy's Build is written
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
	wait := c.assemble(place)
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

// TestShardWindowsDoNotAlias: a host's shards are windows of one sorted
// list, and Build gives each further in-process host a copy of it. Updates
// to one shard copy — deletes edit a leaf in place, inserts grow leaves past
// their windows — must leave its sibling shard and every other copy as they
// were.
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

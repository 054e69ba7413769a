package bench

import (
	"time"

	"storm/internal/data"
	"storm/internal/distr"
	"storm/internal/engine"
	"storm/internal/geo"
	"storm/internal/iosim"
	"storm/internal/lstree"
	"storm/internal/rstree"
	"storm/internal/rtree"
	"storm/internal/sampling"
	"storm/internal/stats"
)

// A1Config sizes the buffer-pool ablation: the RS-tree's I/O advantage in
// Figure 3(a) hinges on canonical node pages staying resident; this
// experiment sweeps the pool size to show where the advantage comes from.
type A1Config struct {
	N         int
	QFrac     float64
	K         int // samples drawn per run
	Fanout    int
	PoolFracs []float64
	Seed      int64
}

func (c A1Config) withDefaults() A1Config {
	if c.N == 0 {
		c.N = 500_000
	}
	if c.QFrac == 0 {
		c.QFrac = 0.05
	}
	if c.K == 0 {
		c.K = 2000
	}
	if c.Fanout == 0 {
		c.Fanout = 64
	}
	if len(c.PoolFracs) == 0 {
		c.PoolFracs = []float64{0, 0.01, 0.02, 0.05, 0.1, 0.25}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// A1Point is one pool-size measurement.
type A1Point struct {
	Method   string
	PoolFrac float64
	Reads    uint64
	HitRate  float64
}

// A1 sweeps the buffer-pool size for the RS-tree and RandomPath samplers.
// Expected shape: the RS-tree's physical reads collapse once the pool
// covers its canonical working set, while RandomPath barely improves
// because each sample touches fresh random leaf pages.
func A1(cfg A1Config) ([]A1Point, error) {
	cfg = cfg.withDefaults()
	ds := osmData(cfg.N, cfg.Seed)
	q := queryFor(ds, cfg.QFrac).Rect()
	entries := ds.Entries()
	basePages := cfg.N / cfg.Fanout * 2

	var out []A1Point
	for _, frac := range cfg.PoolFracs {
		pool := int(frac * float64(basePages))

		devRS := newDevice(pool)
		rsIdx, err := rstree.Build(entries, rstree.Config{Fanout: cfg.Fanout, Device: devRS, Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		devRS.DropCache()
		devRS.ResetStats()
		s := rsIdx.Sampler(q, stats.NewRNG(cfg.Seed))
		drawOnline(s, cfg.K)
		record("a1", "RS-tree", s, devRS)
		st := devRS.Stats()
		out = append(out, A1Point{Method: "RS-tree", PoolFrac: frac, Reads: st.Reads,
			HitRate: float64(st.Hits) / float64(st.Logical)})

		devRP := newDevice(pool)
		plain := mustPlainTree(entries, cfg.Fanout, devRP)
		devRP.DropCache()
		devRP.ResetStats()
		rp := sampling.NewRandomPath(plain, q, stats.NewRNG(cfg.Seed))
		drawOnline(rp, cfg.K)
		record("a1", "RandomPath", rp, devRP)
		st = devRP.Stats()
		out = append(out, A1Point{Method: "RandomPath", PoolFrac: frac, Reads: st.Reads,
			HitRate: float64(st.Hits) / float64(st.Logical)})
	}
	return out, nil
}

// A2Config sizes the RS-tree sample-buffer ablation.
type A2Config struct {
	N        int
	QFrac    float64
	K        int
	Fanout   int
	BufSizes []int
	Seed     int64
}

func (c A2Config) withDefaults() A2Config {
	if c.N == 0 {
		c.N = 500_000
	}
	if c.QFrac == 0 {
		c.QFrac = 0.05
	}
	if c.K == 0 {
		c.K = 2000
	}
	if c.Fanout == 0 {
		c.Fanout = 64
	}
	if len(c.BufSizes) == 0 {
		c.BufSizes = []int{4, 8, 16, 32, 64, 128}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// A2Point is one buffer-size measurement.
type A2Point struct {
	BufSize int
	WallMS  float64
	// Reads is the number of physical page reads under a small buffer
	// pool.
	Reads uint64
	// Explosions counts lazily exploded parts: small sample buffers
	// exhaust quickly and force exploration into child subtrees.
	Explosions uint64
	// Rejects counts consumed draws that fell outside the query — the
	// acceptance/rejection cost of keeping boundary subtrees whole,
	// which shrinks as explosions prune non-matching mass.
	Rejects uint64
	// AccessesPerSample is logical page accesses per sample drawn.
	AccessesPerSample float64
}

// A2 sweeps the per-node sample buffer size S(u). Small buffers exhaust
// quickly and force subtree materializations (cold page reads); large
// buffers waste memory for no further gain and keep boundary subtrees
// unsplit longer (more acceptance/rejection overhead) — the "size of S(u)
// is properly calculated" design point of the paper.
func A2(cfg A2Config) ([]A2Point, error) {
	cfg = cfg.withDefaults()
	ds := osmData(cfg.N, cfg.Seed)
	q := queryFor(ds, cfg.QFrac).Rect()
	entries := ds.Entries()

	pool := cfg.N / cfg.Fanout / 50 // ~2% of leaf pages
	if pool < 8 {
		pool = 8
	}
	var out []A2Point
	for _, bufSize := range cfg.BufSizes {
		dev := newDevice(pool)
		idx, err := rstree.Build(entries, rstree.Config{
			Fanout: cfg.Fanout, BufferSize: bufSize, Device: dev, Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		dev.DropCache()
		dev.ResetStats()
		s := idx.Sampler(q, stats.NewRNG(cfg.Seed))
		start := time.Now()
		got := drawOnline(s, cfg.K)
		elapsed := time.Since(start)
		record("a2", "RS-tree", s, dev)
		st, ss := dev.Stats(), s.SamplerStats()
		out = append(out, A2Point{
			BufSize:           bufSize,
			WallMS:            float64(elapsed.Microseconds()) / 1000,
			Reads:             st.Reads,
			Explosions:        ss.Explosions,
			Rejects:           ss.Rejects,
			AccessesPerSample: float64(st.Logical) / float64(got),
		})
	}
	return out, nil
}

// A3Config sizes the update experiment (demo component 3).
type A3Config struct {
	N       int
	Updates int
	Fanout  int
	Seed    int64
}

func (c A3Config) withDefaults() A3Config {
	if c.N == 0 {
		c.N = 200_000
	}
	if c.Updates == 0 {
		c.Updates = 20_000
	}
	if c.Fanout == 0 {
		c.Fanout = 64
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// A3Result reports update throughput and post-update sample correctness.
type A3Result struct {
	Index            string
	InsertsPerSecond float64
	DeletesPerSecond float64
	// FreshSampled is true when a query after the updates sampled at
	// least one newly inserted record and no deleted record.
	FreshSampled bool
}

// A3 measures ad-hoc update throughput on both indexes, one record per
// insert or delete call, and verifies the paper's updates claim: "a correct set of online spatio-temporal samples
// can always be returned with respect to the latest records".
func A3(cfg A3Config) ([]A3Result, error) {
	cfg = cfg.withDefaults()
	ds := osmData(cfg.N, cfg.Seed)
	entries := ds.Entries()
	rng := stats.NewRNG(cfg.Seed + 5)

	// Fresh inserts land inside this probe window.
	probe := geo.Range{MinX: -112.0, MinY: 40.6, MaxX: -111.8, MaxY: 40.9, MinT: 0, MaxT: 86400 * 365}
	rect := probe.Rect()
	mkInsert := func(i int) data.Entry {
		return data.Entry{
			ID: data.ID(cfg.N + i),
			Pos: geo.Vec{
				rng.Uniform(probe.MinX, probe.MaxX),
				rng.Uniform(probe.MinY, probe.MaxY),
				rng.Uniform(0, 86400*365),
			},
		}
	}

	var out []A3Result
	run := func(name string, insert func([]data.Entry), del func(data.Entry) bool, sample func() sampling.Sampler) {
		inserts := make([]data.Entry, cfg.Updates)
		for i := range inserts {
			inserts[i] = mkInsert(i)
		}
		start := time.Now()
		for i := range inserts {
			insert(inserts[i : i+1])
		}
		insRate := float64(cfg.Updates) / time.Since(start).Seconds()

		victims := make([]data.Entry, 0, cfg.Updates/2)
		perm := rng.Perm(len(entries))
		for _, i := range perm[:cfg.Updates/2] {
			victims = append(victims, entries[i])
		}
		start = time.Now()
		for _, e := range victims {
			del(e)
		}
		delRate := float64(len(victims)) / time.Since(start).Seconds()

		deleted := make(map[data.ID]bool, len(victims))
		for _, e := range victims {
			deleted[e.ID] = true
		}
		s := sample()
		sawFresh := false
		ok := true
		one := make([]data.Entry, 1)
		for i := 0; i < 20_000 && s.NextBatch(one, 1) == 1; i++ {
			e := one[0]
			if e.ID >= data.ID(cfg.N) {
				sawFresh = true
			}
			if deleted[e.ID] {
				ok = false
				break
			}
		}
		out = append(out, A3Result{
			Index:            name,
			InsertsPerSecond: insRate,
			DeletesPerSecond: delRate,
			FreshSampled:     sawFresh && ok,
		})
	}

	rsIdx, err := rstree.Build(entries, rstree.Config{Fanout: cfg.Fanout, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	run("RS-tree", rsIdx.InsertBatch, rsIdx.Delete, func() sampling.Sampler {
		return rsIdx.Sampler(rect, stats.NewRNG(cfg.Seed+9))
	})

	lsIdx, err := lstree.Build(entries, lstree.Config{Fanout: cfg.Fanout, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	run("LS-tree", lsIdx.InsertBatch, lsIdx.Delete, func() sampling.Sampler {
		return lsIdx.Sampler(rect, stats.NewRNG(cfg.Seed+9))
	})
	return out, nil
}

// A5Config sizes the index construction-cost experiment.
type A5Config struct {
	Sizes  []int
	Fanout int
	Seed   int64
}

func (c A5Config) withDefaults() A5Config {
	if len(c.Sizes) == 0 {
		c.Sizes = []int{100_000, 500_000, 2_000_000}
	}
	if c.Fanout == 0 {
		c.Fanout = 64
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// A5Point is one build measurement.
type A5Point struct {
	Index   string
	N       int
	BuildMS float64
	// Nodes is the total R-tree node count (all levels for the LS-tree).
	Nodes int
	// SizeRatio is total stored entries over N: 1.0 for a plain R-tree,
	// ~2.0 for the LS-tree's geometric levels, and just above 1 for the
	// RS-tree's internal-node sample buffers.
	SizeRatio float64
}

// A5 measures what each index costs to build — the space blow-up is the
// design tension the paper notes ("LS-tree needs to maintain multiple
// trees, which can be a challenge") and the RS-tree's answer to it.
func A5(cfg A5Config) ([]A5Point, error) {
	cfg = cfg.withDefaults()
	var out []A5Point
	for _, n := range cfg.Sizes {
		ds := osmData(n, cfg.Seed)
		entries := ds.Entries()

		start := time.Now()
		plain := mustPlainTree(entries, cfg.Fanout, nil)
		out = append(out, A5Point{
			Index: "R-tree", N: n,
			BuildMS:   float64(time.Since(start).Microseconds()) / 1000,
			Nodes:     plain.NodeCount(),
			SizeRatio: 1,
		})

		start = time.Now()
		ls, err := lstree.Build(entries, lstree.Config{Fanout: cfg.Fanout, Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		lsNodes, lsEntries := 0, 0
		for i := 0; i < ls.Levels(); i++ {
			lsNodes += ls.Level(i).NodeCount()
			lsEntries += ls.Level(i).Len()
		}
		out = append(out, A5Point{
			Index: "LS-tree", N: n,
			BuildMS:   float64(time.Since(start).Microseconds()) / 1000,
			Nodes:     lsNodes,
			SizeRatio: float64(lsEntries) / float64(n),
		})

		start = time.Now()
		rs, err := rstree.Build(entries, rstree.Config{Fanout: cfg.Fanout, Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		nodes := rs.Tree().NodeCount()
		// Every internal node stores a buffer of at most Fanout entries;
		// leaves store none.
		internal := nodes - (n+cfg.Fanout-1)/cfg.Fanout
		buffered := internal * cfg.Fanout
		rsPoint := A5Point{
			Index: "RS-tree", N: n,
			BuildMS:   float64(time.Since(start).Microseconds()) / 1000,
			Nodes:     nodes,
			SizeRatio: 1 + float64(buffered)/float64(n),
		}
		out = append(out, rsPoint)

		// What a dataset registration pays for both indexes together: one
		// STR sort shared by the RS-tree and LS-tree level 0, the upper
		// levels sorted beside it. Same trees as the two rows above, so the
		// structural columns are their sums.
		start = time.Now()
		if _, err := engine.New(engine.Config{Seed: cfg.Seed, Fanout: cfg.Fanout, NoMetrics: true}).
			Register(ds, engine.IndexOptions{LSTree: true}); err != nil {
			return nil, err
		}
		out = append(out, A5Point{
			Index: "Register (RS + LS, shared sort)", N: n,
			BuildMS:   float64(time.Since(start).Microseconds()) / 1000,
			Nodes:     lsNodes + nodes,
			SizeRatio: float64(lsEntries)/float64(n) + rsPoint.SizeRatio,
		})
	}
	return out, nil
}

// A6Config sizes the packing ablation: why the RS-tree sits on a Hilbert
// R-tree rather than an arbitrary one.
type A6Config struct {
	N       int
	Queries int
	QFrac   float64
	Fanout  int
	Seed    int64
}

func (c A6Config) withDefaults() A6Config {
	if c.N == 0 {
		c.N = 500_000
	}
	if c.Queries == 0 {
		c.Queries = 20
	}
	if c.QFrac == 0 {
		c.QFrac = 0.02
	}
	if c.Fanout == 0 {
		c.Fanout = 64
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// A6Point is one packing measurement.
type A6Point struct {
	Packing string
	// AvgReads is the mean physical page reads per range query (cold).
	AvgReads float64
	// AvgCanonical is the mean canonical-set size r(N) per query;
	// smaller means tighter node MBRs and cheaper RS-tree frontiers.
	AvgCanonical float64
}

// A6 compares Hilbert packing, STR packing, and one-by-one Hilbert
// insertion on the same data, measuring range-report I/O and canonical-set
// size over a batch of queries. Hilbert and STR produce comparably tight
// trees, with STR's tiling usually a touch tighter on box queries — the
// reason bulk loads pack in STR order (Hilbert order is how inserts are
// placed); an insertion-built tree is markedly worse.
func A6(cfg A6Config) ([]A6Point, error) {
	cfg = cfg.withDefaults()
	ds := osmData(cfg.N, cfg.Seed)
	entries := ds.Entries()
	bounds := ds.Bounds()

	rng := stats.NewRNG(cfg.Seed + 3)
	queries := make([]geo.Rect, cfg.Queries)
	for i := range queries {
		// Random city-anchored boxes with the configured selectivity.
		base := queryFor(ds, cfg.QFrac)
		w := (base.MaxX - base.MinX) / 2
		hgt := (base.MaxY - base.MinY) / 2
		cx := rng.Uniform(base.MinX, base.MaxX)
		cy := rng.Uniform(base.MinY, base.MaxY)
		queries[i] = geo.Range{
			MinX: cx - w, MinY: cy - hgt, MaxX: cx + w, MaxY: cy + hgt,
			MinT: 0, MaxT: 86400 * 365,
		}.Rect()
	}

	build := func(name string) (*rtree.Tree, *iosim.Device, error) {
		dev := newDevice(0)
		var t *rtree.Tree
		switch name {
		case "hilbert":
			order, _ := rtree.HilbertOrder(entries)
			sorted := make([]data.Entry, len(order))
			for i, k := range order {
				sorted[i] = entries[k.Idx]
			}
			t = rtree.MustNew(rtree.Config{Fanout: cfg.Fanout, Device: dev})
			t.Pack(sorted)
		case "str (default)":
			t = rtree.MustNew(rtree.Config{Fanout: cfg.Fanout, Device: dev})
			t.BulkLoad(entries)
		case "insert-built":
			t = rtree.MustNew(rtree.Config{Fanout: cfg.Fanout, Device: dev, Bounds: bounds})
			for i := range entries {
				t.InsertBatch(entries[i : i+1])
			}
		}
		return t, dev, nil
	}

	var out []A6Point
	for _, name := range []string{"str (default)", "hilbert", "insert-built"} {
		t, dev, err := build(name)
		if err != nil {
			return nil, err
		}
		var reads, canonical float64
		for _, q := range queries {
			dev.DropCache()
			dev.ResetStats()
			t.ReportAll(q)
			reads += float64(dev.Stats().Reads)
			canonical += float64(t.CanonicalSize(q))
		}
		out = append(out, A6Point{
			Packing:      name,
			AvgReads:     reads / float64(cfg.Queries),
			AvgCanonical: canonical / float64(cfg.Queries),
		})
	}
	return out, nil
}

// A4Config sizes the distributed scaling experiment.
type A4Config struct {
	N      int
	K      int
	Shards []int
	// Pulls are the NextBatch sizes to sweep; 0 stands for one pull of K.
	Pulls []int
	Seed  int64
}

func (c A4Config) withDefaults() A4Config {
	if c.N == 0 {
		c.N = 500_000
	}
	if c.K == 0 {
		c.K = 5000
	}
	if len(c.Shards) == 0 {
		c.Shards = []int{1, 2, 4, 8}
	}
	if len(c.Pulls) == 0 {
		// The engine's driver grows its pulls 16 → 1024; whole-K is what a
		// one-shot Handle.Sample issues.
		c.Pulls = []int{16, 64, 256, 1024, 0}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// A4Point is one (shard count, pull size) measurement of drawing K samples
// through the coordinator.
type A4Point struct {
	Shards int
	// Pull is the NextBatch size the K samples were drawn with (K itself
	// for the whole-K row).
	Pull   int
	WallMS float64
	// Messages and SamplesMoved are the network traffic of the draw: every
	// round costs one request and one response per participating shard.
	Messages     uint64
	SamplesMoved uint64
	// MaxShardShare is the largest fraction of records held by one shard —
	// balance for a query spanning the whole space.
	MaxShardShare float64
}

// A4 measures coordinator sampling across 1..8 in-process shards and across
// the pull sizes its callers issue: messages grow with shard count and
// shrink with pull size (a round costs one round trip per participating
// shard however many samples it carries), while per-shard load stays
// proportional to per-shard matching counts. The drawn stream is the same
// in every row of a shard count — only the chunking differs.
func A4(cfg A4Config) ([]A4Point, error) {
	cfg = cfg.withDefaults()
	ds := osmData(cfg.N, cfg.Seed)
	q := queryFor(ds, 0.2).Rect()

	var out []A4Point
	buf := make([]data.Entry, cfg.K)
	for _, shards := range cfg.Shards {
		for _, pull := range cfg.Pulls {
			if pull <= 0 || pull > cfg.K {
				pull = cfg.K
			}
			c, err := distr.Build(ds, distr.Config{Shards: shards, Seed: cfg.Seed, Obs: Obs})
			if err != nil {
				return nil, err
			}
			c.ResetNet()
			s := c.Sampler(q, stats.NewRNG(cfg.Seed))
			start := time.Now()
			for drawn := 0; drawn < cfg.K; {
				want := min(pull, cfg.K-drawn)
				n := s.NextBatch(buf, want)
				drawn += n
				if n < want {
					break
				}
			}
			elapsed := time.Since(start)
			// Partition balance: the Hilbert split should keep shard record
			// shares near 1/shards.
			total := 0
			maxShare := 0.0
			for _, sh := range c.Shards() {
				total += sh.Len()
			}
			for _, sh := range c.Shards() {
				share := float64(sh.Len()) / float64(total)
				if share > maxShare {
					maxShare = share
				}
			}
			net := c.Net()
			out = append(out, A4Point{
				Shards:        shards,
				Pull:          pull,
				WallMS:        float64(elapsed.Microseconds()) / 1000,
				Messages:      net.Messages,
				SamplesMoved:  net.SamplesMoved,
				MaxShardShare: maxShare,
			})
		}
	}
	return out, nil
}

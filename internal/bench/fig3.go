package bench

import (
	"fmt"
	"time"

	"storm/internal/data"
	"storm/internal/geo"
	"storm/internal/iosim"
	"storm/internal/lstree"
	"storm/internal/rstree"
	"storm/internal/rtree"
	"storm/internal/sampling"
	"storm/internal/stats"
)

// Fig3aConfig sizes the Figure 3(a) experiment: "time taken for different
// methods to produce spatial online samples of increasing size" for one
// fixed range query Q.
type Fig3aConfig struct {
	// N is the dataset size (the paper uses full OSM; default 2M).
	N int
	// QFrac positions q/N (the paper's Q has q = 1 billion over OSM;
	// default 0.05).
	QFrac float64
	// Fractions are the k/q sample fractions on the x-axis; defaults to
	// the paper's 0–10% sweep.
	Fractions []float64
	// Fanout and BufferPoolFrac shape the simulated disk; the pool is
	// sized as a fraction of the level-0 tree's node count.
	Fanout         int
	BufferPoolFrac float64
	Seed           int64
	// IncludeSampleFirst adds the extra strawman curve.
	IncludeSampleFirst bool
}

func (c Fig3aConfig) withDefaults() Fig3aConfig {
	if c.N == 0 {
		c.N = 2_000_000
	}
	if c.QFrac == 0 {
		c.QFrac = 0.05
	}
	if len(c.Fractions) == 0 {
		c.Fractions = []float64{0.001, 0.002, 0.005, 0.01, 0.02, 0.04, 0.06, 0.08, 0.10}
	}
	if c.Fanout == 0 {
		c.Fanout = 64
	}
	if c.BufferPoolFrac == 0 {
		// Small relative to the query's leaf working set, so RandomPath's
		// scattered leaf accesses thrash while the RS-tree's compact
		// canonical working set stays resident — the disk-resident regime
		// the paper's Figure 3(a) measures.
		c.BufferPoolFrac = 0.01
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Fig3aPoint is one measurement: method × k.
type Fig3aPoint struct {
	Method string
	KOverQ float64
	K      int
	// WallMS is the wall-clock time to produce the k samples.
	WallMS float64
	// Reads is the number of physical page reads (buffer pool misses).
	Reads uint64
	// CostUnits is the simulated latency cost (reads dominate).
	CostUnits float64
}

// Fig3a reproduces Figure 3(a): for a fixed query Q, the cost of drawing k
// online samples as k/q grows, for RandomPath, RS-tree, RangeReport
// (QueryFirst) and LS-tree. Shape expectations: RangeReport is flat and
// high (pays r(N)+q regardless of k), RandomPath grows linearly in k and
// crosses it, the STORM indexes stay low throughout.
func Fig3a(cfg Fig3aConfig) ([]Fig3aPoint, error) {
	cfg = cfg.withDefaults()
	ds := osmData(cfg.N, cfg.Seed)
	q := queryFor(ds, cfg.QFrac)
	rect := q.Rect()
	entries := ds.Entries()
	bounds := ds.Bounds()

	// One device per index so buffer pools do not interfere. Pool size is
	// a fraction of the base tree's pages.
	basePages := cfg.N / cfg.Fanout * 2
	pool := int(cfg.BufferPoolFrac * float64(basePages))

	devPlain := newDevice(pool)
	plain := rtree.MustNew(rtree.Config{Fanout: cfg.Fanout, Device: devPlain})
	plain.BulkLoad(entries)

	devRS := newDevice(pool)
	rsIdx, err := rstree.Build(entries, rstree.Config{Fanout: cfg.Fanout, Device: devRS, Bounds: bounds, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	devLS := newDevice(pool)
	lsIdx, err := lstree.Build(entries, lstree.Config{Fanout: cfg.Fanout, Device: devLS, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}

	qCount := plain.Count(rect)
	if qCount == 0 {
		return nil, fmt.Errorf("bench: query matched nothing")
	}

	type method struct {
		name string
		dev  *iosim.Device
		mk   func(seed int64) sampling.Sampler
	}
	methods := []method{
		{"RandomPath", devPlain, func(seed int64) sampling.Sampler {
			return sampling.NewRandomPath(plain, rect, stats.NewRNG(seed))
		}},
		{"RS-tree", devRS, func(seed int64) sampling.Sampler {
			return rsIdx.Sampler(rect, stats.NewRNG(seed))
		}},
		{"RangeReport", devPlain, func(seed int64) sampling.Sampler {
			return sampling.NewQueryFirst(plain, rect, stats.NewRNG(seed))
		}},
		{"LS-tree", devLS, func(seed int64) sampling.Sampler {
			return lsIdx.Sampler(rect, stats.NewRNG(seed))
		}},
	}
	if cfg.IncludeSampleFirst {
		devSF := newDevice(pool)
		methods = append(methods, method{"SampleFirst", devSF, func(seed int64) sampling.Sampler {
			return sampling.NewSampleFirst(ds, rect, stats.NewRNG(seed), devSF, cfg.Fanout)
		}})
	}

	var out []Fig3aPoint
	for _, m := range methods {
		for _, frac := range cfg.Fractions {
			k := int(frac * float64(qCount))
			if k < 1 {
				k = 1
			}
			// Cold-ish run: drop the cache so every (method, k) pays
			// its own I/O, as the paper's per-point measurements do.
			m.dev.DropCache()
			m.dev.ResetStats()
			s := m.mk(cfg.Seed + int64(k))
			start := time.Now()
			got := drawOnline(s, k)
			elapsed := time.Since(start)
			record("fig3a", m.name, s, m.dev)
			st := m.dev.Stats()
			out = append(out, Fig3aPoint{
				Method:    m.name,
				KOverQ:    frac,
				K:         got,
				WallMS:    float64(elapsed.Microseconds()) / 1000,
				Reads:     st.Reads,
				CostUnits: st.CostUnits,
			})
		}
	}
	return out, nil
}

// Fig3bConfig sizes the Figure 3(b) experiment.
type Fig3bConfig struct {
	N     int
	QFrac float64
	// Checkpoints are the sample counts at which relative error is
	// recorded (the paper's x-axis is time; sample count is the
	// hardware-independent proxy, and wall time is reported alongside).
	Checkpoints []int
	Fanout      int
	Seed        int64
	// Trials averages the relative error over several independent runs
	// to smooth single-run noise; default 5.
	Trials int
}

func (c Fig3bConfig) withDefaults() Fig3bConfig {
	if c.N == 0 {
		c.N = 2_000_000
	}
	if c.QFrac == 0 {
		c.QFrac = 0.05
	}
	if len(c.Checkpoints) == 0 {
		c.Checkpoints = []int{16, 32, 64, 128, 256, 512, 1024, 2048, 4096}
	}
	if c.Fanout == 0 {
		c.Fanout = 64
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Trials == 0 {
		c.Trials = 5
	}
	return c
}

// Fig3bPoint is one measurement: method × checkpoint.
type Fig3bPoint struct {
	Method  string
	Samples int
	// TimeMS is the average wall time to reach the checkpoint.
	TimeMS float64
	// RelErr is the average |estimate − truth| / truth at the checkpoint.
	RelErr float64
}

// Fig3b reproduces Figure 3(b): the relative error of an online
// avg(altitude) estimate as query time grows, for the RS-tree and LS-tree.
// Expected shape: both curves fall like 1/√k toward zero.
func Fig3b(cfg Fig3bConfig) ([]Fig3bPoint, error) {
	cfg = cfg.withDefaults()
	ds := osmData(cfg.N, cfg.Seed)
	col, err := ds.NumericColumn("altitude")
	if err != nil {
		return nil, err
	}
	q := queryFor(ds, cfg.QFrac)
	rect := q.Rect()
	truth, n := trueAvg(ds, col, q)
	if n == 0 || truth == 0 {
		return nil, fmt.Errorf("bench: degenerate Figure 3b query")
	}
	entries := ds.Entries()

	rsIdx, err := rstree.Build(entries, rstree.Config{Fanout: cfg.Fanout, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	lsIdx, err := lstree.Build(entries, lstree.Config{Fanout: cfg.Fanout, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}

	type method struct {
		name string
		mk   func(seed int64) sampling.Sampler
	}
	methods := []method{
		{"RS-tree", func(seed int64) sampling.Sampler {
			return rsIdx.Sampler(rect, stats.NewRNG(seed))
		}},
		{"LS-tree", func(seed int64) sampling.Sampler {
			return lsIdx.Sampler(rect, stats.NewRNG(seed))
		}},
	}

	out := make([]Fig3bPoint, 0, len(methods)*len(cfg.Checkpoints))
	one := make([]data.Entry, 1)
	for _, m := range methods {
		sumErr := make([]float64, len(cfg.Checkpoints))
		sumMS := make([]float64, len(cfg.Checkpoints))
		for trial := 0; trial < cfg.Trials; trial++ {
			s := m.mk(cfg.Seed + int64(trial)*1009)
			var acc float64
			k := 0
			ci := 0
			start := time.Now()
			for ci < len(cfg.Checkpoints) && s.NextBatch(one, 1) == 1 {
				acc += col[one[0].ID]
				k++
				if k == cfg.Checkpoints[ci] {
					est := acc / float64(k)
					sumErr[ci] += abs(est-truth) / abs(truth)
					sumMS[ci] += float64(time.Since(start).Microseconds()) / 1000
					ci++
				}
			}
			record("fig3b", m.name, s, nil)
		}
		for i, k := range cfg.Checkpoints {
			out = append(out, Fig3bPoint{
				Method:  m.name,
				Samples: k,
				TimeMS:  sumMS[i] / float64(cfg.Trials),
				RelErr:  sumErr[i] / float64(cfg.Trials),
			})
		}
	}
	return out, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// exactCount is a helper used by tests to cross-check query selection.
func exactCount(ds *data.Dataset, q geo.Range) int {
	rect := q.Rect()
	c := 0
	for i := 0; i < ds.Len(); i++ {
		if rect.Contains(ds.Pos(data.ID(i))) {
			c++
		}
	}
	return c
}

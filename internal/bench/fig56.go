package bench

import (
	"fmt"
	"sort"

	"storm/internal/analytics"
	"storm/internal/data"
	"storm/internal/gen"
	"storm/internal/geo"
	"storm/internal/rstree"
	"storm/internal/stats"
)

// Fig5Config sizes the Figure 5 experiment: interactive online KDE over
// tweets, zoomed into Salt Lake City and out to the whole USA.
type Fig5Config struct {
	N           int // tweets; default 1M
	Grid        int // grid cells per side; default 24
	Checkpoints []int
	Seed        int64
}

func (c Fig5Config) withDefaults() Fig5Config {
	if c.N == 0 {
		c.N = 1_000_000
	}
	if c.Grid == 0 {
		c.Grid = 24
	}
	if len(c.Checkpoints) == 0 {
		c.Checkpoints = []int{50, 100, 250, 500, 1000, 2500, 5000}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Fig5Point is one measurement: region × checkpoint.
type Fig5Point struct {
	Region  string
	Samples int
	// RelErr is the mean per-cell error of the online density map
	// against the exact (all-records) density map, normalized by the
	// exact map's mean density.
	RelErr float64
}

// Fig5 reproduces Figure 5's quantitative core: the online KDE's density
// map converges to the exact map as samples accumulate, for both a city
// zoom-in (SLC) and a country zoom-out (USA). The demo screenshots show
// the maps; the benchmark reports the error curve that makes "the density
// estimate improves with query time" measurable.
func Fig5(cfg Fig5Config) ([]Fig5Point, error) {
	cfg = cfg.withDefaults()
	ds, _ := tweetData(cfg.N, cfg.Seed, false)
	idx, err := rstree.Build(ds.Entries(), rstree.Config{Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}

	regions := []struct {
		name string
		r    geo.Range
	}{
		{"SLC", withTime(slcRegion, 0, 30*86400)},
		{"USA", withTime(usaRegion, 0, 30*86400)},
	}

	var out []Fig5Point
	for _, reg := range regions {
		rect := reg.r.Rect()
		bw := (reg.r.MaxX - reg.r.MinX) / 10
		exact, err := analytics.NewKDE(rect, cfg.Grid, cfg.Grid, analytics.Epanechnikov, bw, 0.95)
		if err != nil {
			return nil, err
		}
		matched := 0
		for i := 0; i < ds.Len(); i++ {
			if rect.Contains(ds.Pos(uint64(i))) {
				exact.Add(ds.Pos(uint64(i)))
				matched++
			}
		}
		if matched == 0 {
			return nil, fmt.Errorf("bench: region %s matched nothing", reg.name)
		}
		ref := exact.Snapshot()

		online, err := analytics.NewKDE(rect, cfg.Grid, cfg.Grid, analytics.Epanechnikov, bw, 0.95)
		if err != nil {
			return nil, err
		}
		s := idx.Sampler(rect, stats.NewRNG(cfg.Seed+99))
		k := 0
		ci := 0
		one := make([]data.Entry, 1)
		for ci < len(cfg.Checkpoints) && s.NextBatch(one, 1) == 1 {
			online.Add(one[0].Pos)
			k++
			if k == cfg.Checkpoints[ci] {
				out = append(out, Fig5Point{
					Region:  reg.name,
					Samples: k,
					RelErr:  online.Snapshot().RelError(ref),
				})
				ci++
			}
		}
	}
	return out, nil
}

func withTime(r geo.Range, t0, t1 float64) geo.Range {
	r.MinT, r.MaxT = t0, t1
	return r
}

// Fig6aConfig sizes the Figure 6(a) experiment: online approximate
// trajectory reconstruction for one user.
type Fig6aConfig struct {
	N           int // tweets; default 200k
	Users       int // default 40 so each user has a long trajectory
	Checkpoints []int
	Seed        int64
}

func (c Fig6aConfig) withDefaults() Fig6aConfig {
	if c.N == 0 {
		c.N = 200_000
	}
	if c.Users == 0 {
		c.Users = 40
	}
	if len(c.Checkpoints) == 0 {
		c.Checkpoints = []int{10, 25, 50, 100, 250, 500, 1000}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Fig6aPoint is one measurement of trajectory quality.
type Fig6aPoint struct {
	Samples int
	// PathErr is the average spatial distance from the ground-truth
	// trajectory to the reconstructed path (degrees).
	PathErr float64
}

// Fig6a reproduces Figure 6(a)'s quantitative core: the trajectory
// reconstructed from online samples of one user's tweets approaches the
// user's ground-truth movement path as samples accumulate.
func Fig6a(cfg Fig6aConfig) ([]Fig6aPoint, string, error) {
	cfg = cfg.withDefaults()
	ds, truth := tweetDataUsers(cfg.N, cfg.Users, cfg.Seed)
	idx, err := rstree.Build(ds.Entries(), rstree.Config{Seed: cfg.Seed})
	if err != nil {
		return nil, "", err
	}
	users, err := ds.StringColumn("user")
	if err != nil {
		return nil, "", err
	}

	// Most active user.
	var user string
	best := 0
	for u, p := range truth {
		if len(p) > best {
			user, best = u, len(p)
		}
	}

	q := withTime(usaRegion, 0, 30*86400)
	rect := q.Rect()
	s := idx.Sampler(rect, stats.NewRNG(cfg.Seed+7))
	tr := analytics.NewTrajectory()
	var out []Fig6aPoint
	accepted := 0
	ci := 0
	one := make([]data.Entry, 1)
	for ci < len(cfg.Checkpoints) && cfg.Checkpoints[ci] <= best && s.NextBatch(one, 1) == 1 {
		e := one[0]
		if users[e.ID] != user {
			continue
		}
		tr.Add(e.Pos)
		accepted++
		if accepted == cfg.Checkpoints[ci] {
			out = append(out, Fig6aPoint{
				Samples: accepted,
				PathErr: analytics.PathError(truth[user], tr.Snapshot(0)),
			})
			ci++
		}
	}
	return out, user, nil
}

// tweetDataUsers is tweetData with an explicit user count (trajectory
// experiments want few, very active users).
func tweetDataUsers(n, users int, seed int64) (*data.Dataset, map[string][]geo.Vec) {
	key := fmt.Sprintf("%d-%d-u%d", n, seed, users)
	if d, ok := tweetCache[key]; ok {
		return d, tweetTruthCache[key]
	}
	d, tr := gen.Tweets(gen.TweetsConfig{N: n, Users: users, Seed: seed})
	tweetCache[key] = d
	tweetTruthCache[key] = tr
	return d, tr
}

// Fig6bConfig sizes the Figure 6(b) experiment: online short-text
// understanding over the Atlanta snowstorm window.
type Fig6bConfig struct {
	N           int // tweets; default 400k
	TopK        int // top-term list size; default 10
	Checkpoints []int
	Seed        int64
}

func (c Fig6bConfig) withDefaults() Fig6bConfig {
	if c.N == 0 {
		c.N = 400_000
	}
	if c.TopK == 0 {
		c.TopK = 10
	}
	if len(c.Checkpoints) == 0 {
		c.Checkpoints = []int{10, 25, 50, 100, 250, 500, 1000}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Fig6bPoint is one measurement of term-ranking quality.
type Fig6bPoint struct {
	Samples int
	// Recall is |topK(online) ∩ topK(exact)| / K.
	Recall float64
	// Sentiment is the online sentiment estimate at the checkpoint.
	Sentiment float64
}

// Fig6bResult carries the curve plus the final vocabulary, which should be
// dominated by snowstorm terms (the paper highlights snow, ice, outage,
// shit, hell, why).
type Fig6bResult struct {
	Points   []Fig6bPoint
	TopTerms []string
}

// Fig6b reproduces Figure 6(b)'s quantitative core: the online top-k term
// list over downtown Atlanta during the snowstorm window converges to the
// exact top-k, and the sampled population reads as unhappy.
func Fig6b(cfg Fig6bConfig) (*Fig6bResult, error) {
	cfg = cfg.withDefaults()
	ds, _ := tweetData(cfg.N, cfg.Seed, true)
	texts, err := ds.StringColumn("text")
	if err != nil {
		return nil, err
	}
	idx, err := rstree.Build(ds.Entries(), rstree.Config{Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}

	atlanta := geo.Range{MinX: -85.4, MinY: 32.7, MaxX: -83.4, MaxY: 34.7,
		MinT: 10 * 86400, MaxT: 13 * 86400}
	rect := atlanta.Rect()

	exact := analytics.NewTermStats()
	matched := 0
	for i := 0; i < ds.Len(); i++ {
		if rect.Contains(ds.Pos(uint64(i))) {
			exact.Add(texts[i])
			matched++
		}
	}
	if matched == 0 {
		return nil, fmt.Errorf("bench: Atlanta window matched nothing")
	}
	ref := exact.Snapshot(cfg.TopK)

	online := analytics.NewTermStats()
	s := idx.Sampler(rect, stats.NewRNG(cfg.Seed+13))
	res := &Fig6bResult{}
	k := 0
	ci := 0
	one := make([]data.Entry, 1)
	for ci < len(cfg.Checkpoints) && s.NextBatch(one, 1) == 1 {
		online.Add(texts[one[0].ID])
		k++
		if k == cfg.Checkpoints[ci] {
			snap := online.Snapshot(cfg.TopK)
			res.Points = append(res.Points, Fig6bPoint{
				Samples:   k,
				Recall:    analytics.TopTermRecall(snap, ref),
				Sentiment: snap.Sentiment,
			})
			ci++
		}
	}
	final := online.Snapshot(cfg.TopK)
	for _, t := range final.Top {
		res.TopTerms = append(res.TopTerms, t.Text)
	}
	sort.Strings(res.TopTerms)
	return res, nil
}

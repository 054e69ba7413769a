// Package bench implements STORM's benchmark harness: one function per
// paper figure (and per ablation), each regenerating the corresponding
// curve or table from scratch on synthetic data. The cmd/stormbench binary
// and the repository-root testing.B benchmarks are thin wrappers over this
// package, so a figure is reproduced identically from either entry point.
//
// EXPERIMENTS.md records the paper-vs-measured comparison for every
// experiment here.
package bench

import (
	"fmt"

	"storm/internal/data"
	"storm/internal/gen"
	"storm/internal/geo"
	"storm/internal/iosim"
	"storm/internal/rtree"
	"storm/internal/sampling"
)

// slcRegion is the Salt Lake City zoom-in used by several experiments.
var slcRegion = geo.Range{MinX: -112.4, MinY: 40.2, MaxX: -111.4, MaxY: 41.2}

// usaRegion is the whole-country zoom-out.
var usaRegion = geo.Range{MinX: -125, MinY: 24, MaxX: -66, MaxY: 50}

// queryFor returns a spatio-temporal query whose selectivity over the OSM
// dataset is roughly the requested fraction, found by shrinking a box
// around a dense city until the count lands near the target. The paper
// fixes one range query Q and varies k; targetFrac positions q/N.
func queryFor(ds *data.Dataset, targetFrac float64) geo.Range {
	// The generator clusters around cities; a box around NYC with a
	// full-year time window is dense enough to tune by scaling.
	base := geo.Range{MinX: -76, MinY: 38.7, MaxX: -72, MaxY: 42.7, MinT: 0, MaxT: 86400 * 365}
	count := func(r geo.Range) int {
		rect := r.Rect()
		c := 0
		for i := 0; i < ds.Len(); i++ {
			if rect.Contains(ds.Pos(uint64(i))) {
				c++
			}
		}
		return c
	}
	target := int(targetFrac * float64(ds.Len()))
	lo, hi := 0.01, 1.0 // scale factor on the box half-extent
	cx, cy := (base.MinX+base.MaxX)/2, (base.MinY+base.MaxY)/2
	hw, hh := (base.MaxX-base.MinX)/2, (base.MaxY-base.MinY)/2
	scaled := func(s float64) geo.Range {
		r := base
		r.MinX, r.MaxX = cx-hw*s, cx+hw*s
		r.MinY, r.MaxY = cy-hh*s, cy+hh*s
		return r
	}
	if count(scaled(hi)) < target {
		return scaled(hi)
	}
	for i := 0; i < 30; i++ {
		mid := (lo + hi) / 2
		if count(scaled(mid)) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return scaled(hi)
}

// newDevice builds the simulated disk used by the figure experiments: an
// LRU buffer pool sized as a fraction of the tree's pages.
func newDevice(pages int) *iosim.Device {
	return iosim.NewDevice(pages, iosim.DefaultCostModel())
}

// mustPlainTree bulk-loads an STR R-tree over the entries.
func mustPlainTree(entries []data.Entry, fanout int, dev iosim.Accountant) *rtree.Tree {
	t := rtree.MustNew(rtree.Config{Fanout: fanout, Device: dev})
	t.BulkLoad(entries)
	return t
}

// trueAvg computes the exact average of a column over a range.
func trueAvg(ds *data.Dataset, col []float64, q geo.Range) (float64, int) {
	rect := q.Rect()
	var sum float64
	n := 0
	for i := 0; i < ds.Len(); i++ {
		if rect.Contains(ds.Pos(uint64(i))) {
			sum += col[i]
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}

// osmData memoizes the OSM dataset per size so running several figures in
// one stormbench invocation generates it once.
var osmCache = map[string]*data.Dataset{}

func osmData(n int, seed int64) *data.Dataset {
	key := fmt.Sprintf("%d-%d", n, seed)
	if ds, ok := osmCache[key]; ok {
		return ds
	}
	ds := gen.OSM(gen.OSMConfig{N: n, Seed: seed})
	osmCache[key] = ds
	return ds
}

var tweetCache = map[string]*data.Dataset{}
var tweetTruthCache = map[string]map[string][]geo.Vec{}

func tweetData(n int, seed int64, snowstorm bool) (*data.Dataset, map[string][]geo.Vec) {
	key := fmt.Sprintf("%d-%d-%v", n, seed, snowstorm)
	if ds, ok := tweetCache[key]; ok {
		return ds, tweetTruthCache[key]
	}
	ds, truth := gen.Tweets(gen.TweetsConfig{N: n, Seed: seed, Snowstorm: snowstorm})
	tweetCache[key] = ds
	tweetTruthCache[key] = truth
	return ds, truth
}

// drawOnline draws up to k samples one pull at a time — the paper's online
// access pattern, which the figure rows time — into a reused one-element
// buffer, and returns how many the stream delivered.
func drawOnline(s sampling.Sampler, k int) int {
	one := make([]data.Entry, 1)
	got := 0
	for got < k && s.NextBatch(one, 1) == 1 {
		got++
	}
	return got
}

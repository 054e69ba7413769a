package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"storm/internal/data"
	"storm/internal/gen"
	"storm/internal/geo"
)

// Everything the benchmark sends to stormd is generated here from -seed
// alone: the region pool, the statement lists and the ingest records. The
// same seed gives byte-identical lists (inputs_test.go).

// region is one rectangle of the seeded pool, with the attribute thresholds
// the dashboard statements filter on.
type region struct {
	// MinX..MaxY are exactly the values rendered into statements (rounded
	// to four decimals), so truth is computed over the rectangle stormd sees.
	MinX, MinY, MaxX, MaxY float64
	// Above is the x of "altitude > x"; Lo/Hi bound BETWEEN(altitude, lo, hi).
	Above, Lo, Hi float64
}

func round(v float64, decimals int) float64 {
	p := math.Pow(10, float64(decimals))
	return math.Round(v*p) / p
}

// zoomHalfWidths are the three zoom levels of the pool, in units of the
// city's spatial spread: metro area, inner city, downtown.
var zoomHalfWidths = [3]float64{2.0, 1.0, 0.5}

// regionPool returns the seeded rectangles: entry i sits on city i%10 at
// zoom level (i/10)%3, so every seed has the same mix of cities and zooms and
// the seed only jitters centre and size. That keeps the work per statement —
// which depends mostly on (city, zoom) — comparable across seeds.
func regionPool(seed int64) []region {
	rng := rand.New(rand.NewSource(seed))
	cities := gen.DefaultCities()
	pool := make([]region, poolRegions)
	for i := range pool {
		c := cities[i%len(cities)]
		half := c.Spread * zoomHalfWidths[(i/len(cities))%len(zoomHalfWidths)] * (0.9 + 0.2*rng.Float64())
		cx := c.Lon + c.Spread*0.2*(2*rng.Float64()-1)
		cy := c.Lat + c.Spread*0.2*(2*rng.Float64()-1)
		pool[i] = region{
			MinX: round(cx-half, 4), MinY: round(cy-half, 4),
			MaxX: round(cx+half, 4), MaxY: round(cy+half, 4),
		}
	}
	return pool
}

// setThresholds derives each region's dashboard predicates from the mean and
// standard deviation of altitude inside it (the truth pass supplies them):
// "altitude > mean + c*sd" with c in [-0.5, 0.5] and a BETWEEN spanning
// [mean - a*sd, mean + b*sd] with a, b in [0.5, 1.5], so both keep a sizeable
// but not overwhelming share of the region's records.
func setThresholds(pool []region, base []aggTruth, seed int64) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for i := range pool {
		mean, sd := base[i].avg(), base[i].stddev()
		pool[i].Above = round(mean+(rng.Float64()-0.5)*sd, 1)
		pool[i].Lo = round(mean-(0.5+rng.Float64())*sd, 1)
		pool[i].Hi = round(mean+(0.5+rng.Float64())*sd, 1)
	}
}

// predKind selects which of a region's predicates a statement carries.
type predKind int

const (
	predNone predKind = iota
	predAbove
	predBetween
)

// statement is one generated query with what is needed to check its answer.
type statement struct {
	Text string
	// Body is the pre-rendered POST /query body.
	Body []byte
	// Agg is "AVG", "SUM", "STDDEV" or "COUNT".
	Agg string
	// Region indexes the pool (-1 for windowed statements, which cover
	// everything inside their LAST window); Pred selects its predicate.
	Region int
	Pred   predKind
	// Contract marks a one-shot contract; Target is the relative error the
	// statement asks for.
	Contract bool
	Target   float64
	// Windowed marks a LAST statement.
	Windowed bool
}

func newStatement(text string) statement {
	return statement{Text: text, Body: []byte(`{"statement":` + strconv.Quote(text) + `}`), Region: -1}
}

func (r region) clause() string {
	return fmt.Sprintf("REGION(%.4f,%.4f,%.4f,%.4f)", r.MinX, r.MinY, r.MaxX, r.MaxY)
}

// countStatements are the exact-COUNT checks of the warm-up, one per region.
func countStatements(pool []region) []statement {
	out := make([]statement, len(pool))
	for i, r := range pool {
		s := newStatement("SELECT COUNT FROM osm WHERE " + r.clause())
		s.Agg, s.Region = "COUNT", i
		out[i] = s
	}
	return out
}

// statements generates n statements of the given kind. Regions are visited
// in a seeded permutation that repeats, so any window of poolRegions
// consecutive statements covers the whole pool.
func statements(kind stmtKind, pool []region, seed int64, n int) []statement {
	rng := rand.New(rand.NewSource(seed*31 + int64(kind)))
	perm := rng.Perm(len(pool))
	out := make([]statement, n)
	for i := range out {
		ri := perm[i%len(perm)]
		r := pool[ri]
		var s statement
		switch kind {
		case stmtZoom:
			agg := [...]string{"AVG", "AVG", "SUM", "STDDEV"}[rng.Intn(4)]
			// 0.1% costs k~1e4 samples on these regions, so the samplers
			// and the per-snapshot encode do nearly all the work. STDDEV's
			// CI shrinks as 1/sqrt(2k): the same target would exhaust every
			// region, so it asks for the error that costs about as many
			// samples as the AVG and SUM streams.
			target := 0.001
			if agg == "STDDEV" {
				target = 0.015
			}
			s = newStatement(fmt.Sprintf("ESTIMATE %s(altitude) FROM osm WHERE %s WITH ERROR %s%%", agg, r.clause(), pct(target)))
			s.Agg, s.Target = agg, target
		case stmtDistributed:
			agg := [...]string{"AVG", "SUM"}[rng.Intn(2)]
			s = newStatement(fmt.Sprintf("ESTIMATE %s(altitude) FROM osm WHERE %s WITH ERROR 0.5%% USING DISTRIBUTED", agg, r.clause()))
			s.Agg, s.Target = agg, 0.005
		case stmtDashboard:
			// One statement in sixteen is a headline number at 1%, the rest
			// are tiles at 5%. The headline's deadline leaves room for the
			// planner's dataset-wide CV estimate: priced at cv=1 it needs
			// ~38k samples, and a tighter deadline is now and then refused
			// with 422 as provably infeasible.
			target, within := 0.05, 100
			if rng.Intn(16) == 0 {
				target, within = 0.01, 2000
			}
			p, where := predAbove, fmt.Sprintf("%s AND altitude > %.1f", r.clause(), r.Above)
			if rng.Intn(2) == 0 {
				p, where = predBetween, fmt.Sprintf("%s AND BETWEEN(altitude, %.1f, %.1f)", r.clause(), r.Lo, r.Hi)
			}
			s = newStatement(fmt.Sprintf("SELECT AVG(altitude) FROM osm WHERE %s ERROR %s%% AT CONFIDENCE 95%% WITHIN %dms", where, pct(target), within))
			s.Agg, s.Target, s.Contract, s.Pred = "AVG", target, true, p
		case stmtWindow:
			agg := [...]string{"AVG", "SUM"}[rng.Intn(2)]
			s = newStatement(fmt.Sprintf("ESTIMATE %s(altitude) FROM osm LAST 60s WITH ERROR 1%%", agg))
			s.Agg, s.Target, s.Windowed = agg, 0.01, true
			ri = -1
		}
		s.Region = ri
		out[i] = s
	}
	return out
}

func pct(rel float64) string { return strconv.FormatFloat(rel*100, 'g', -1, 64) }

// feed is the generated ingest stream: records in event-time order, the
// pre-rendered POST bodies that carry them, and running sums for the truth
// of windowed statements.
type feed struct {
	// Times are the records' event times, strictly increasing; CumSum and
	// CumSq hold the running sums of altitude and altitude squared, with
	// entry i covering records [0, i).
	Times         []float64
	CumSum, CumSq []float64
	// Bodies[i] carries records [i*per, (i+1)*per); LineEnds[i][j] is the
	// byte offset just past record j of body i, for resuming after a 429.
	Bodies   [][]byte
	LineEnds [][]int
	per      int
}

// feedEpoch is the event time of the first ingested record: one thousand
// seconds past the preloaded year, so a LAST 60s window anchored at an
// ingested record never reaches back into the preloaded data.
const feedEpoch = 86400*365 + 1000

// feedGen draws the ingest records in order: positions around the default
// cities, altitude a smooth function of position plus noise, and event time
// advancing by 1/rate per record, i.e. in real time at the paced rate. The
// altitude model is flatter than the preloaded data's (coefficient of
// variation about 0.2 across the whole feed), so a 1% windowed estimate costs
// a few thousand samples and a run collects thousands of checked answers.
type feedGen struct {
	rng    *rand.Rand
	cities []gen.City
	dt     float64
	i      int
}

func newFeedGen(seed int64, rate int) *feedGen {
	return &feedGen{rng: rand.New(rand.NewSource(seed*131 + 7)), cities: gen.DefaultCities(), dt: 1 / float64(rate)}
}

func (g *feedGen) next() (pos geo.Vec, alt float64) {
	c := g.cities[g.rng.Intn(len(g.cities))]
	lon := round(c.Lon+g.rng.NormFloat64()*c.Spread, 5)
	lat := round(c.Lat+g.rng.NormFloat64()*c.Spread, 5)
	alt = round(800+12*(lat-24)+500*math.Exp(-(lon+106)*(lon+106)/72)+g.rng.NormFloat64()*30, 2)
	pos = geo.Vec{lon, lat, feedEpoch + float64(g.i)*g.dt}
	g.i++
	return pos, alt
}

// newFeed generates posts*per records and renders them into POST bodies.
func newFeed(seed int64, posts, per, rate int) *feed {
	g := newFeedGen(seed, rate)
	n := posts * per
	f := &feed{
		Times: make([]float64, n), CumSum: make([]float64, n+1), CumSq: make([]float64, n+1),
		Bodies: make([][]byte, posts), LineEnds: make([][]int, posts), per: per,
	}
	for p := 0; p < posts; p++ {
		body := make([]byte, 0, per*96)
		ends := make([]int, per)
		for j := 0; j < per; j++ {
			i := p*per + j
			pos, alt := g.next()
			f.Times[i] = pos[2]
			f.CumSum[i+1] = f.CumSum[i] + alt
			f.CumSq[i+1] = f.CumSq[i] + alt*alt
			body = append(body, `{"lon":`...)
			body = strconv.AppendFloat(body, pos[0], 'f', -1, 64)
			body = append(body, `,"lat":`...)
			body = strconv.AppendFloat(body, pos[1], 'f', -1, 64)
			body = append(body, `,"time":`...)
			body = strconv.AppendFloat(body, pos[2], 'f', -1, 64)
			body = append(body, `,"num":{"altitude":`...)
			body = strconv.AppendFloat(body, alt, 'f', -1, 64)
			body = append(body, "}}\n"...)
			ends[j] = len(body)
		}
		f.Bodies[p], f.LineEnds[p] = body, ends
	}
	return f
}

// feedRows returns the first n records of the same stream as engine rows,
// for the traced run's in-process AppendBatch and InsertBatch replays.
func feedRows(seed int64, n, rate int) []data.Row {
	g := newFeedGen(seed, rate)
	rows := make([]data.Row, n)
	for i := range rows {
		pos, alt := g.next()
		rows[i] = data.Row{Pos: pos, Num: map[string]float64{"altitude": alt}}
	}
	return rows
}

// arrivals returns the open-loop schedule of n POSTs over the given span:
// seeded exponential gaps, as independent producers would arrive, scaled so
// that the last POST is due just inside the span and the mean rate is exact.
// A fixed interval would phase-lock with stormd's 25 ms drain timer: every
// POST of a run would then wait the same part of a tick, a different part in
// the next run, and fresh-lag would read 16 ms in one run and 40 in another.
func arrivals(seed int64, n int, span time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed*17 + 3))
	at := make([]float64, n)
	total := 0.0
	for i := range at {
		at[i] = total
		total += rng.ExpFloat64()
	}
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(at[i] / total * float64(span))
	}
	return out
}

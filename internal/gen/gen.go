// Package gen produces the synthetic data sets that stand in for the
// paper's real-world sources (full OpenStreetMap, the MesoWest measurement
// network, and a live Twitter feed), which are unavailable offline. Each
// generator mirrors the schema and the statistical structure that the
// corresponding STORM experiment depends on; DESIGN.md §1 documents the
// substitution rationale.
//
// All generators are deterministic given a seed.
package gen

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"storm/internal/data"
	"storm/internal/geo"
	"storm/internal/stats"
)

// A city anchors clustered generation: a center with a population weight
// and a spatial spread. The default set loosely mirrors large US metros in
// (lon, lat) space, which keeps the demo queries readable ("zoom into Salt
// Lake City").
type City struct {
	Name     string
	Lon, Lat float64
	Weight   float64
	Spread   float64 // standard deviation in degrees
}

// DefaultCities returns the built-in city set.
func DefaultCities() []City {
	return []City{
		{"new-york", -74.0, 40.7, 10, 0.4},
		{"los-angeles", -118.2, 34.1, 8, 0.5},
		{"chicago", -87.6, 41.9, 6, 0.35},
		{"houston", -95.4, 29.8, 5, 0.4},
		{"atlanta", -84.4, 33.7, 5, 0.35},
		{"salt-lake-city", -111.9, 40.8, 3, 0.25},
		{"seattle", -122.3, 47.6, 4, 0.3},
		{"miami", -80.2, 25.8, 4, 0.3},
		{"denver", -105.0, 39.7, 3, 0.3},
		{"boston", -71.1, 42.4, 4, 0.25},
	}
}

// USABounds is the rough conterminous-US bounding box used by all
// generators, in (lon, lat).
var USABounds = struct{ MinLon, MinLat, MaxLon, MaxLat float64 }{
	MinLon: -125, MinLat: 24, MaxLon: -66, MaxLat: 50,
}

// OSMConfig controls the OSM-like generator.
type OSMConfig struct {
	N    int
	Seed int64
	// ClusterFraction of points are drawn around cities, the rest
	// uniform background — mirroring OSM's road-network density skew.
	ClusterFraction float64 // default 0.75
	Cities          []City
}

// OSM generates an OSM-node-like dataset: clustered (lon, lat) points with
// an "altitude" numeric attribute that varies smoothly with position plus
// noise. altitude is the attribute the paper's Figure 3(b) aggregates.
func OSM(cfg OSMConfig) *data.Dataset {
	if cfg.ClusterFraction == 0 {
		cfg.ClusterFraction = 0.75
	}
	if cfg.Cities == nil {
		cfg.Cities = DefaultCities()
	}
	rng := stats.NewRNG(cfg.Seed)
	cityAlias := cityAlias(cfg.Cities)

	pos := make([]geo.Vec, max(cfg.N, 0))
	alt := make([]float64, len(pos))
	// The elevation model draws nothing, so it runs beside the draws: each
	// chunk the sequential draw loop finishes goes to up to GOMAXPROCS-1
	// workers, and the loop's goroutine takes the chunks still queued when
	// it is done. The same two operands meet per record, so the bits are
	// those of adding them inside the loop. With one P, or one chunk,
	// every chunk is elevated inline as soon as it is drawn.
	elevate := func(lo int) {
		for i := lo; i < min(lo+altitudeGrain, len(pos)); i++ {
			alt[i] = altitudeAt(pos[i][0], pos[i][1]) + alt[i]
		}
	}
	chunks := (len(pos) + altitudeGrain - 1) / altitudeGrain
	drawn := make(chan int, chunks)
	var wg sync.WaitGroup
	workers := max(0, min(runtime.GOMAXPROCS(0), chunks)-1)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for lo := range drawn {
				elevate(lo)
			}
		}()
	}
	for lo := 0; lo < len(pos); lo += altitudeGrain {
		for i := lo; i < min(lo+altitudeGrain, len(pos)); i++ {
			var lon, lat float64
			if rng.Bernoulli(cfg.ClusterFraction) {
				c := cfg.Cities[cityAlias.Draw(rng)]
				lon = c.Lon + rng.NormFloat64()*c.Spread
				lat = c.Lat + rng.NormFloat64()*c.Spread
			} else {
				lon = rng.Uniform(USABounds.MinLon, USABounds.MaxLon)
				lat = rng.Uniform(USABounds.MinLat, USABounds.MaxLat)
			}
			t := rng.Uniform(0, 86400*365) // timestamps across one year
			pos[i] = geo.Vec{lon, lat, t}
			alt[i] = rng.NormFloat64() * 30
		}
		if workers == 0 {
			elevate(lo)
		} else {
			drawn <- lo
		}
	}
	close(drawn)
	for lo := range drawn {
		elevate(lo)
	}
	wg.Wait()
	return adopt("osm", pos, map[string][]float64{"altitude": alt}, nil)
}

// altitudeGrain is how many records OSM's draw loop hands the elevation
// model at a time (about a millisecond of altitudeAt).
const altitudeGrain = 1 << 14

// adopt hands a generator's filled columns to data.FromColumns. Every
// generator fills one value per column per row, so a length mismatch is a
// bug in the generator.
func adopt(name string, pos []geo.Vec, num map[string][]float64, str map[string][]string) *data.Dataset {
	ds, err := data.FromColumns(name, pos, num, str)
	if err != nil {
		panic("gen: " + err.Error())
	}
	return ds
}

// altitudeAt is a smooth synthetic elevation model: higher in the mountain
// west, low near the coasts, with gentle ripples so averages vary by query
// region the way real OSM altitude does.
func altitudeAt(lon, lat float64) float64 {
	// A broad ridge centered on the Rockies (~lon -106).
	ridge := 2200 * math.Exp(-((lon+106)*(lon+106))/(2*36))
	// Appalachian bump (~lon -80).
	app := 600 * math.Exp(-((lon+80)*(lon+80))/(2*16))
	ripple := 120*math.Sin(lon/2.5) + 90*math.Cos(lat/1.8)
	base := 150 + 18*(lat-24)
	return base + ridge + app + ripple
}

func cityAlias(cities []City) *stats.Alias {
	w := make([]float64, len(cities))
	for i, c := range cities {
		w[i] = c.Weight
	}
	a, err := stats.NewAlias(w)
	if err != nil {
		panic(fmt.Sprintf("gen: invalid city weights: %v", err))
	}
	return a
}

// StationsConfig controls the MesoWest-like weather network generator.
type StationsConfig struct {
	Stations int // number of stations (the paper cites ~40,000)
	// ReadingsPerStation is the number of time-stamped readings each
	// station contributes.
	ReadingsPerStation int
	Seed               int64
	Cities             []City
	// ColdSnap injects the Atlanta snowstorm anomaly matching the tweet
	// generator's event: stations near Atlanta read ~15°C colder during
	// days 10–13 (the paper's cross-source confirmation scenario).
	ColdSnap bool
}

// Stations generates a MesoWest-like measurement dataset: fixed station
// locations, each emitting hourly temperature readings with latitude,
// seasonal and diurnal structure plus noise. Columns: "temp" (°C),
// "station" (string id).
func Stations(cfg StationsConfig) *data.Dataset {
	if cfg.Cities == nil {
		cfg.Cities = DefaultCities()
	}
	rng := stats.NewRNG(cfg.Seed)
	alias := cityAlias(cfg.Cities)

	n := max(cfg.Stations*cfg.ReadingsPerStation, 0)
	pos := make([]geo.Vec, 0, n)
	temps := make([]float64, 0, n)
	stations := make([]string, 0, n)
	for s := 0; s < cfg.Stations; s++ {
		var lon, lat float64
		if rng.Bernoulli(0.6) {
			c := cfg.Cities[alias.Draw(rng)]
			lon = c.Lon + rng.NormFloat64()*c.Spread*2
			lat = c.Lat + rng.NormFloat64()*c.Spread*2
		} else {
			lon = rng.Uniform(USABounds.MinLon, USABounds.MaxLon)
			lat = rng.Uniform(USABounds.MinLat, USABounds.MaxLat)
		}
		name := fmt.Sprintf("st-%05d", s)
		start := rng.Uniform(0, 3600)
		for r := 0; r < cfg.ReadingsPerStation; r++ {
			t := start + float64(r)*3600 // hourly
			temp := temperatureAt(lat, t) + rng.NormFloat64()*2
			if cfg.ColdSnap && t >= 10*86400 && t <= 13*86400 &&
				math.Abs(lon-(-84.4)) < 1.5 && math.Abs(lat-33.7) < 1.5 {
				temp -= 15
			}
			pos = append(pos, geo.Vec{lon, lat, t})
			temps = append(temps, temp)
			stations = append(stations, name)
		}
	}
	return adopt("mesowest", pos, map[string][]float64{"temp": temps}, map[string][]string{"station": stations})
}

// temperatureAt models temperature as latitude gradient + seasonal cycle +
// diurnal cycle (t in seconds from Jan 1).
func temperatureAt(lat, t float64) float64 {
	day := t / 86400
	seasonal := -12 * math.Cos(2*math.Pi*day/365)
	diurnal := 5 * math.Sin(2*math.Pi*(t/86400-0.3))
	return 35 - 0.8*(lat-24) + seasonal + diurnal
}

// TweetsConfig controls the Twitter-like generator.
type TweetsConfig struct {
	N     int
	Users int
	Seed  int64
	// Duration is the covered time span in seconds (default 30 days).
	Duration float64
	Cities   []City
	// Snowstorm injects the paper's Figure 6(b) scenario: tweets near
	// Atlanta within the event window carry snowstorm vocabulary.
	Snowstorm bool
	// SnowstormStart/End bound the event window in seconds (defaults
	// cover days 10–13 of the duration).
	SnowstormStart, SnowstormEnd float64
}

// Tweet topic vocabularies; tweets mix 3–8 words from their topic.
var topics = map[string][]string{
	"daily": {"coffee", "work", "morning", "traffic", "lunch", "weekend",
		"tired", "home", "gym", "sleep", "meeting", "friday"},
	"sports": {"game", "team", "win", "score", "playoffs", "coach",
		"season", "ball", "fans", "stadium", "championship"},
	"food": {"pizza", "dinner", "restaurant", "delicious", "recipe",
		"burger", "tacos", "brunch", "dessert", "cooking"},
	"positive": {"love", "great", "happy", "awesome", "beautiful", "fun",
		"amazing", "excited", "best", "thanks"},
	"snowstorm": {"snow", "ice", "outage", "shit", "hell", "why", "stuck",
		"cold", "power", "roads", "closed", "storm", "frozen", "cancelled"},
}

// Tweets generates a Twitter-like dataset: users anchored to home cities
// move by random walk and emit time-stamped, geo-tagged short texts.
// Columns: "user" (string), "text" (string). The generator also returns
// the ground-truth trajectory of every user for the Figure 6(a) experiment.
func Tweets(cfg TweetsConfig) (*data.Dataset, map[string][]geo.Vec) {
	if cfg.Duration == 0 {
		cfg.Duration = 30 * 86400
	}
	if cfg.Users == 0 {
		cfg.Users = 1 + cfg.N/200
	}
	if cfg.Cities == nil {
		cfg.Cities = DefaultCities()
	}
	if cfg.Snowstorm && cfg.SnowstormEnd == 0 {
		cfg.SnowstormStart = 10 * 86400
		cfg.SnowstormEnd = 13 * 86400
	}
	rng := stats.NewRNG(cfg.Seed)
	alias := cityAlias(cfg.Cities)
	topicNames := []string{"daily", "sports", "food", "positive"}

	n := max(cfg.N, 0)
	pos := make([]geo.Vec, n)
	authors := make([]string, n)
	texts := make([]string, n)

	type userState struct {
		name     string
		lon, lat float64
		city     City
	}
	users := make([]*userState, cfg.Users)
	for u := range users {
		c := cfg.Cities[alias.Draw(rng)]
		users[u] = &userState{
			name: fmt.Sprintf("user-%05d", u),
			lon:  c.Lon + rng.NormFloat64()*c.Spread,
			lat:  c.Lat + rng.NormFloat64()*c.Spread,
			city: c,
		}
	}
	truth := make(map[string][]geo.Vec, cfg.Users)

	// Tweets are generated in time order; each tweet advances its
	// author's random walk, so a user's tweets trace a trajectory.
	for i := range pos {
		t := cfg.Duration * float64(i) / float64(cfg.N)
		u := users[rng.Intn(len(users))]
		// Random walk with mild pull back toward the home city.
		u.lon += rng.NormFloat64()*0.03 + 0.02*(u.city.Lon-u.lon)
		u.lat += rng.NormFloat64()*0.03 + 0.02*(u.city.Lat-u.lat)
		pos[i] = geo.Vec{u.lon, u.lat, t}

		topic := topicNames[rng.Intn(len(topicNames))]
		if cfg.Snowstorm && t >= cfg.SnowstormStart && t <= cfg.SnowstormEnd &&
			math.Abs(u.lon-(-84.4)) < 1.0 && math.Abs(u.lat-33.7) < 1.0 &&
			rng.Bernoulli(0.8) {
			topic = "snowstorm"
		}
		words := topics[topic]
		nw := 3 + rng.Intn(6)
		text := ""
		for w := 0; w < nw; w++ {
			if w > 0 {
				text += " "
			}
			text += words[rng.Intn(len(words))]
		}

		authors[i] = u.name
		texts[i] = text
		truth[u.name] = append(truth[u.name], pos[i])
	}
	return adopt("tweets", pos, nil, map[string][]string{"user": authors, "text": texts}), truth
}

// Uniform generates n uniform points in the given range with a single
// numeric attribute "value" ~ N(100, 20). Used by micro-benchmarks and
// tests that want a structureless baseline.
func Uniform(n int, seed int64, r geo.Range) *data.Dataset {
	rng := stats.NewRNG(seed)
	minT, maxT := r.MinT, r.MaxT
	if math.IsInf(minT, -1) {
		minT = 0
	}
	if math.IsInf(maxT, 1) {
		maxT = 1000
	}
	pos := make([]geo.Vec, max(n, 0))
	values := make([]float64, len(pos))
	for i := range pos {
		pos[i] = geo.Vec{
			rng.Uniform(r.MinX, r.MaxX),
			rng.Uniform(r.MinY, r.MaxY),
			rng.Uniform(minT, maxT),
		}
		values[i] = 100 + rng.NormFloat64()*20
	}
	return adopt("uniform", pos, map[string][]float64{"value": values}, nil)
}

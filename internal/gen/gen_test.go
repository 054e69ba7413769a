package gen

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"

	"storm/internal/data"
	"storm/internal/geo"
)

func TestOSMDeterministic(t *testing.T) {
	a := OSM(OSMConfig{N: 1000, Seed: 1})
	b := OSM(OSMConfig{N: 1000, Seed: 1})
	if a.Len() != 1000 || b.Len() != 1000 {
		t.Fatalf("lens = %d, %d", a.Len(), b.Len())
	}
	for i := 0; i < 1000; i++ {
		if a.Pos(uint64(i)) != b.Pos(uint64(i)) {
			t.Fatal("same seed must generate identical data")
		}
	}
	c := OSM(OSMConfig{N: 1000, Seed: 2})
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Pos(uint64(i)) == c.Pos(uint64(i)) {
			same++
		}
	}
	if same > 10 {
		t.Errorf("different seeds produced %d identical positions", same)
	}
}

func TestOSMSchemaAndClustering(t *testing.T) {
	ds := OSM(OSMConfig{N: 20000, Seed: 3})
	if !ds.HasNumeric("altitude") {
		t.Fatal("missing altitude column")
	}
	// Altitude values exist and are plausible (meters).
	col, err := ds.NumericColumn("altitude")
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range col {
		if math.IsNaN(v) || v < -500 || v > 6000 {
			t.Fatalf("altitude[%d] = %v implausible", i, v)
		}
	}
	// Clustering: the cell around NYC should hold far more points than an
	// equal-sized cell in the rural plains.
	nyc := geo.NewRect(geo.Vec{-75, 39.7, 0}, geo.Vec{-73, 41.7, math.Inf(1)})
	rural := geo.NewRect(geo.Vec{-109, 44, 0}, geo.Vec{-107, 46, math.Inf(1)})
	nn, nr := 0, 0
	for i := 0; i < ds.Len(); i++ {
		p := ds.Pos(uint64(i))
		if nyc.Contains(p) {
			nn++
		}
		if rural.Contains(p) {
			nr++
		}
	}
	if nn < 5*nr || nn == 0 {
		t.Errorf("NYC cell (%d) should dominate rural cell (%d)", nn, nr)
	}
	// Altitude west of the plains exceeds the coasts on average (the
	// synthetic Rockies), giving Figure 3(b)'s query-dependent averages.
	var west, east float64
	var wc, ec int
	for i := 0; i < ds.Len(); i++ {
		p := ds.Pos(uint64(i))
		if p.X() > -110 && p.X() < -102 {
			west += col[i]
			wc++
		}
		if p.X() > -80 && p.X() < -70 {
			east += col[i]
			ec++
		}
	}
	if wc == 0 || ec == 0 {
		t.Fatal("empty strips")
	}
	if west/float64(wc) <= east/float64(ec) {
		t.Error("mountain strip should be higher than east coast strip")
	}
}

func TestStations(t *testing.T) {
	ds := Stations(StationsConfig{Stations: 200, ReadingsPerStation: 24, Seed: 4})
	if ds.Len() != 200*24 {
		t.Fatalf("len = %d", ds.Len())
	}
	if !ds.HasNumeric("temp") || !ds.HasString("station") {
		t.Fatal("missing columns")
	}
	// Readings of one station share a location.
	stations, _ := ds.StringColumn("station")
	locs := make(map[string]geo.Vec)
	for i := 0; i < ds.Len(); i++ {
		p := ds.Pos(uint64(i))
		key := stations[i]
		if prev, ok := locs[key]; ok {
			if prev.X() != p.X() || prev.Y() != p.Y() {
				t.Fatalf("station %s moved", key)
			}
		} else {
			locs[key] = p
		}
	}
	if len(locs) != 200 {
		t.Errorf("distinct stations = %d", len(locs))
	}
	// Southern stations are warmer on average than northern ones.
	temps, _ := ds.NumericColumn("temp")
	var south, north float64
	var sc, nc int
	for i := 0; i < ds.Len(); i++ {
		lat := ds.Pos(uint64(i)).Y()
		switch {
		case lat < 32:
			south += temps[i]
			sc++
		case lat > 44:
			north += temps[i]
			nc++
		}
	}
	if sc > 0 && nc > 0 && south/float64(sc) <= north/float64(nc) {
		t.Error("south should be warmer than north")
	}
}

func TestTweets(t *testing.T) {
	ds, truth := Tweets(TweetsConfig{N: 5000, Users: 50, Seed: 5, Snowstorm: true})
	if ds.Len() != 5000 {
		t.Fatalf("len = %d", ds.Len())
	}
	if !ds.HasString("user") || !ds.HasString("text") {
		t.Fatal("missing columns")
	}
	if len(truth) == 0 || len(truth) > 50 {
		t.Fatalf("trajectories = %d", len(truth))
	}
	// Trajectories are time-ordered and total tweet count matches.
	total := 0
	for user, path := range truth {
		total += len(path)
		for i := 1; i < len(path); i++ {
			if path[i].T() < path[i-1].T() {
				t.Fatalf("user %s trajectory not time-ordered", user)
			}
		}
	}
	if total != 5000 {
		t.Errorf("trajectory points = %d", total)
	}
	// Timestamps span the configured duration.
	var minT, maxT = math.Inf(1), math.Inf(-1)
	for i := 0; i < ds.Len(); i++ {
		tt := ds.Pos(uint64(i)).T()
		minT = math.Min(minT, tt)
		maxT = math.Max(maxT, tt)
	}
	if minT < 0 || maxT > 30*86400 {
		t.Errorf("timestamps outside [0, 30d]: [%v, %v]", minT, maxT)
	}
}

func TestTweetsSnowstormVocabulary(t *testing.T) {
	ds, _ := Tweets(TweetsConfig{N: 40000, Users: 400, Seed: 6, Snowstorm: true})
	texts, _ := ds.StringColumn("text")
	atlanta := geo.NewRect(geo.Vec{-85.4, 32.7, 10 * 86400}, geo.Vec{-83.4, 34.7, 13 * 86400})
	inSnow, inOther := 0, 0
	outSnow, outOther := 0, 0
	for i := 0; i < ds.Len(); i++ {
		p := ds.Pos(uint64(i))
		isSnow := false
		for _, w := range []string{"snow", "ice", "outage", "storm"} {
			if contains(texts[i], w) {
				isSnow = true
				break
			}
		}
		if atlanta.Contains(p) {
			if isSnow {
				inSnow++
			} else {
				inOther++
			}
		} else {
			if isSnow {
				outSnow++
			} else {
				outOther++
			}
		}
	}
	if inSnow+inOther == 0 {
		t.Fatal("no tweets in the Atlanta window")
	}
	inRate := float64(inSnow) / float64(inSnow+inOther)
	outRate := float64(outSnow) / float64(outSnow+outOther+1)
	if inRate < 0.5 || inRate < 5*outRate {
		t.Errorf("snowstorm vocabulary rate in window %v vs outside %v", inRate, outRate)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestUniform(t *testing.T) {
	r := geo.Range{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10, MinT: 0, MaxT: 100}
	ds := Uniform(2000, 7, r)
	if ds.Len() != 2000 {
		t.Fatalf("len = %d", ds.Len())
	}
	rect := r.Rect()
	for i := 0; i < ds.Len(); i++ {
		if !rect.Contains(ds.Pos(uint64(i))) {
			t.Fatalf("point %d outside range", i)
		}
	}
	col, _ := ds.NumericColumn("value")
	var sum float64
	for _, v := range col {
		sum += v
	}
	if mean := sum / float64(len(col)); math.Abs(mean-100) > 2 {
		t.Errorf("value mean = %v, want ~100", mean)
	}
}

func TestUniformInfiniteTimeBounds(t *testing.T) {
	ds := Uniform(100, 8, geo.SpatialRange(0, 0, 1, 1))
	for i := 0; i < ds.Len(); i++ {
		tt := ds.Pos(uint64(i)).T()
		if math.IsInf(tt, 0) || math.IsNaN(tt) {
			t.Fatal("infinite time bounds must be clamped")
		}
	}
}

// datasetDigest hashes every position (float bits) and every column, names
// sorted, values in record order.
func datasetDigest(ds *data.Dataset) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(ds.Len()))
	for i := 0; i < ds.Len(); i++ {
		for _, c := range ds.Pos(uint64(i)) {
			put(math.Float64bits(c))
		}
	}
	nums := ds.NumericColumns()
	sort.Strings(nums)
	for _, name := range nums {
		h.Write([]byte(name))
		col, _ := ds.NumericColumn(name)
		for _, v := range col {
			put(math.Float64bits(v))
		}
	}
	strs := ds.StringColumns()
	sort.Strings(strs)
	for _, name := range strs {
		h.Write([]byte(name))
		col, _ := ds.StringColumn(name)
		for _, v := range col {
			put(uint64(len(v)))
			h.Write([]byte(v))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestGeneratorsByteIdentical pins each generator's output for a fixed
// config, at GOMAXPROCS 1 and 2. Every golden stream, figure counter and
// benchmark truth value is computed over these records, so how a generator
// allocates or schedules its work must never show in what it returns. The
// digests were recorded when stats.RNG moved onto PCG, which changed every
// draw; osm-200k's records span 13 elevation chunks, so OSM's hand-off of
// chunks to its elevation workers shows there if it ever reorders a draw.
func TestGeneratorsByteIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		checkGeneratorDigests(t, procs)
	}
}

func checkGeneratorDigests(t *testing.T, procs int) {
	tweets, _ := Tweets(TweetsConfig{N: 20_000, Seed: 3, Snowstorm: true})
	for _, tc := range []struct {
		name string
		ds   *data.Dataset
		want string
	}{
		{"osm", OSM(OSMConfig{N: 50_000, Seed: 1}),
			"7c31495487bb12c8813a16af4f28d6503d266067080e1c49b72936ef24bf6146"},
		{"osm-200k", OSM(OSMConfig{N: 200_000, Seed: 1}),
			"ffe6af8039437c5582a64e459caf8a4382be003c03418b14526705fb019d9b82"},
		{"tweets", tweets,
			"ed8120b254b25da145bec0f63cc2657994fa60529a1033c059db3372966b38c5"},
		{"stations", Stations(StationsConfig{Stations: 300, ReadingsPerStation: 48, Seed: 5, ColdSnap: true}),
			"b330d0b723bf7de1dfaea0fc37ca0cfefe91e6fcc984a1d4b41a6131bb31fa56"},
		{"uniform", Uniform(20_000, 7, geo.Range{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100, MinT: 0, MaxT: 100}),
			"acc92f96de4cccd9ffca6e80e4637d1108e06bf7b2725852898f5304a576055e"},
	} {
		if got := datasetDigest(tc.ds); got != tc.want {
			t.Errorf("%s at GOMAXPROCS %d: digest %s, recorded %s", tc.name, procs, got, tc.want)
		}
	}
}

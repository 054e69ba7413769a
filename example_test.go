package storm_test

import (
	"context"
	"fmt"
	"regexp"

	"storm"
)

// ExampleHandle_Estimate runs an online aggregation to a fixed sample
// budget; with a deterministic seed the estimate is reproducible.
func ExampleHandle_Estimate() {
	db := storm.Open(storm.Config{Seed: 1})
	ds := storm.GenerateOSM(storm.OSMConfig{N: 100_000, Seed: 1})
	h, err := db.Register(ds, storm.IndexOptions{})
	if err != nil {
		panic(err)
	}
	slc := storm.Range{MinX: -112.4, MinY: 40.2, MaxX: -111.4, MaxY: 41.2,
		MinT: 0, MaxT: 86400 * 365}
	snap, err := h.Estimate(context.Background(), slc, storm.Options{
		Kind: storm.Avg, Attr: "altitude", MaxSamples: 400, Seed: 42,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s after %d samples (population %d)\n",
		snap.Kind, snap.Samples, snap.Population)
	// Output: AVG after 400 samples (population 3848)
}

// ExampleHandle_Count shows exact range counting via canonical subtree
// counts — no sampling involved.
func ExampleHandle_Count() {
	db := storm.Open(storm.Config{Seed: 2})
	ds := storm.GenerateOSM(storm.OSMConfig{N: 50_000, Seed: 2})
	h, err := db.Register(ds, storm.IndexOptions{})
	if err != nil {
		panic(err)
	}
	n := h.Count(storm.UniverseRange())
	fmt.Println(n)
	// Output: 50000
}

// ExampleExec drives the STORM query language programmatically.
func ExampleExec() {
	db := storm.Open(storm.Config{Seed: 3})
	ds := storm.GenerateStations(storm.StationsConfig{
		Stations: 100, ReadingsPerStation: 10, Seed: 3,
	})
	if _, err := db.Register(ds, storm.IndexOptions{}); err != nil {
		panic(err)
	}
	var out printer
	if err := storm.Exec(context.Background(), db, "COUNT FROM mesowest", &out); err != nil {
		panic(err)
	}
	// Output: COUNT = 1000 (exact, 0 records) sampler=range-count [final]
}

// printer writes query output straight to the example's stdout, less the
// elapsed-time field ("  t=…"), which varies from run to run.
type printer struct{}

// elapsed matches Exec's elapsed-time field.
var elapsed = regexp.MustCompile(`  t=\S+`)

func (printer) Write(p []byte) (int, error) {
	fmt.Print(elapsed.ReplaceAllString(string(p), ""))
	return len(p), nil
}

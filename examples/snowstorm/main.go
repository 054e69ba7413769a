// Snowstorm: the paper's Figure 6(b) scenario. A heavy snow hits Atlanta
// between days 10 and 13; online short-text understanding over a
// spatio-temporal window on downtown Atlanta surfaces the storm vocabulary
// (snow, ice, outage, ...) and the population's mood from a few hundred
// sampled tweets — and cross-checking against the weather dataset confirms
// the cold snap, the paper's multi-source integration point.
package main

import (
	"context"
	"fmt"
	"log"

	"storm"
	"storm/internal/viz"
)

func main() {
	db := storm.Open(storm.Config{Seed: 11})

	fmt.Println("generating and indexing 400k tweets (with snowstorm) and weather data...")
	tweets, _ := storm.GenerateTweets(storm.TweetsConfig{N: 400_000, Seed: 11, Snowstorm: true})
	ht, err := db.Register(tweets, storm.IndexOptions{})
	if err != nil {
		log.Fatal(err)
	}
	weather := storm.GenerateStations(storm.StationsConfig{
		Stations: 2_000, ReadingsPerStation: 720, Seed: 11, ColdSnap: true,
	})
	hw, err := db.Register(weather, storm.IndexOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// Downtown Atlanta during the event window.
	atlanta := storm.Range{
		MinX: -85.4, MinY: 32.7, MaxX: -83.4, MaxY: 34.7,
		MinT: 10 * 86400, MaxT: 13 * 86400,
	}

	// 1. What are people talking about? Online term analysis.
	fmt.Println("\n-- online short-text understanding, downtown Atlanta, days 10-13 --")
	ch, err := ht.TermsOnline(context.Background(), atlanta, "text", 10,
		storm.Options{MaxSamples: 500})
	if err != nil {
		log.Fatal(err)
	}
	var terms *storm.TermSnapshot
	for snap := range ch {
		terms = snap.Terms
	}
	fmt.Print(viz.TermTable(terms))

	// 2. Confirm with the measurement network: average temperature in the
	// same window versus the month overall (online aggregation).
	during, err := hw.Estimate(context.Background(), atlanta, storm.Options{
		Kind: storm.Avg, Attr: "temp", TargetRelError: 0.05, MaxSamples: 5000,
	})
	if err != nil {
		log.Fatal(err)
	}
	month := atlanta
	month.MinT, month.MaxT = 0, 30*86400
	overall, err := hw.Estimate(context.Background(), month, storm.Options{
		Kind: storm.Avg, Attr: "temp", TargetRelError: 0.05, MaxSamples: 5000,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n-- cross-check against the weather network --")
	fmt.Printf("  avg temp, storm window: %s\n", during.Estimate)
	fmt.Printf("  avg temp, whole month:  %s\n", overall.Estimate)
	fmt.Println("\nboth sources sampled online; neither query scanned its full dataset.")
}

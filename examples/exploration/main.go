// Exploration: the paper's interactive-analytics flow. A user zooms the
// map from Salt Lake City out to the whole USA while an online KDE over
// tweets is still running; the session cancels the stale query and starts
// the new one immediately — no waiting (Figure 5 of the paper).
package main

import (
	"context"
	"fmt"
	"log"

	"storm"
	"storm/internal/viz"
)

func main() {
	db := storm.Open(storm.Config{Seed: 7})

	fmt.Println("generating and indexing 300k tweets...")
	tweets, _ := storm.GenerateTweets(storm.TweetsConfig{N: 300_000, Seed: 7})
	h, err := db.Register(tweets, storm.IndexOptions{})
	if err != nil {
		log.Fatal(err)
	}
	session := storm.NewSession(h)

	slc := storm.Range{MinX: -112.4, MinY: 40.2, MaxX: -111.4, MaxY: 41.2, MinT: 0, MaxT: 30 * 86400}
	usa := storm.Range{MinX: -125, MinY: 24, MaxX: -66, MaxY: 50, MinT: 0, MaxT: 30 * 86400}

	// Query 1: density around Salt Lake City. Pretend the user watches
	// only the first few refinements before zooming out.
	fmt.Println("\n-- zoomed into Salt Lake City --")
	ch1, err := session.KDEOnline(context.Background(), slc,
		storm.KDEOptions{Nx: 48, Ny: 16},
		storm.Options{ReportEvery: 200, MaxSamples: 100_000})
	if err != nil {
		log.Fatal(err)
	}
	var slcMap *storm.DensityMap
	for i := 0; i < 3; i++ {
		snap, ok := <-ch1
		if !ok {
			break
		}
		slcMap = snap.Map
		fmt.Printf("  refinement %d: %d samples\n", i+1, snap.Map.Samples)
	}
	if slcMap != nil {
		fmt.Println(viz.Heatmap(slcMap, 0))
	}

	// Query 2 replaces query 1 mid-flight: the session cancels it.
	fmt.Println("\n-- zoomed out to the USA (previous query cancelled) --")
	ch2, err := session.KDEOnline(context.Background(), usa,
		storm.KDEOptions{Nx: 60, Ny: 24},
		storm.Options{ReportEvery: 500, MaxSamples: 4000})
	if err != nil {
		log.Fatal(err)
	}
	// Query 1's stream terminates promptly after cancellation.
	for range ch1 {
	}
	fmt.Println("  (SLC query stream closed)")

	var usaMap *storm.DensityMap
	for snap := range ch2 {
		usaMap = snap.Map
		if snap.Done {
			fmt.Printf("  final: %d samples\n", snap.Map.Samples)
		}
	}
	if usaMap != nil {
		fmt.Println(viz.Heatmap(usaMap, 0))
		fmt.Println("city clusters emerge from a few thousand samples of 300k tweets.")
	}
}

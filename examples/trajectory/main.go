// Trajectory: the paper's Figure 6(a) demo. Reconstruct one user's
// movement path from online samples of their geo-tagged tweets; the
// approximation sharpens as more samples arrive, and the generator's
// ground-truth trajectory lets us print the actual error at each stage.
package main

import (
	"context"
	"fmt"
	"log"

	"storm"
	"storm/internal/analytics"
	"storm/internal/viz"
)

func main() {
	db := storm.Open(storm.Config{Seed: 13})

	fmt.Println("generating and indexing 200k tweets from 30 users...")
	tweets, truth := storm.GenerateTweets(storm.TweetsConfig{N: 200_000, Users: 30, Seed: 13})
	h, err := db.Register(tweets, storm.IndexOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// Pick the most prolific user.
	var user string
	best := 0
	for u, path := range truth {
		if len(path) > best {
			user, best = u, len(path)
		}
	}
	fmt.Printf("reconstructing %s (%d true positions)\n", user, best)

	q := storm.Range{MinX: -130, MinY: 20, MaxX: -60, MaxY: 55, MinT: 0, MaxT: 30 * 86400}
	ch, err := h.TrajectoryOnline(context.Background(), q, "user", user, 0,
		storm.Options{ReportEvery: 50, MaxSamples: 800})
	if err != nil {
		log.Fatal(err)
	}

	var final *storm.Path
	for snap := range ch {
		err := analytics.PathError(truth[user], snap.Path)
		fmt.Printf("  %4d samples: avg path error %.5f°\n", snap.Path.Samples, err)
		final = snap.Path
	}
	if final != nil {
		fmt.Println("\napproximate trajectory (S = start, E = end):")
		fmt.Println(viz.TrajectoryPlot(final, 68, 20))
	}
}

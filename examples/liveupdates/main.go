// Liveupdates: the paper's third demo component. The tweets dataset is
// "constantly updated with new tweets"; queries whose time range narrows
// to the most recent history reflect the new records immediately, because
// the sampling indexes (RS-tree and LS-tree) maintain their structures —
// and the RS-tree its sample buffers — under ad-hoc inserts.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"storm"
	"storm/internal/stats"
)

func main() {
	db := storm.Open(storm.Config{Seed: 19})

	fmt.Println("generating and indexing a 100k-tweet backlog (days 0-30)...")
	tweets, _ := storm.GenerateTweets(storm.TweetsConfig{N: 100_000, Seed: 19})
	h, err := db.Register(tweets, storm.IndexOptions{LSTree: true})
	if err != nil {
		log.Fatal(err)
	}

	// The "most recent history" window: day 30 onward. Empty initially.
	recent := storm.Range{MinX: -125, MinY: 24, MaxX: -66, MaxY: 50,
		MinT: 30 * 86400, MaxT: 31 * 86400}
	fmt.Printf("records in the last-day window before ingest: %d\n", h.Count(recent))

	// A live feed inserts tweets for day 30 while queries run in parallel.
	const feed = 5_000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := stats.NewRNG(99)
		for i := 0; i < feed; i++ {
			t := 30*86400 + rng.Uniform(0, 86400)
			h.Insert(storm.Row{
				Pos: storm.Vec{-74.0 + rng.NormFloat64()*0.3, 40.7 + rng.NormFloat64()*0.3, t},
				Str: map[string]string{"user": "live-user", "text": "love this city"},
			})
		}
	}()

	// Interleave queries with the ingest: counts rise monotonically.
	prev := -1
	for i := 0; i < 5; i++ {
		time.Sleep(15 * time.Millisecond)
		cnt := h.Count(recent)
		fmt.Printf("  poll %d: %5d records in the last-day window\n", i+1, cnt)
		if cnt < prev {
			log.Fatalf("count went backwards: %d -> %d", prev, cnt)
		}
		prev = cnt
	}
	wg.Wait()

	// Final online estimate over only the fresh records.
	cnt := h.Count(recent)
	fmt.Printf("after ingest: %d records in the window (inserted %d)\n", cnt, feed)
	samples, err := h.Sample(recent, 500, storm.Auto, storm.WithoutReplacement, 7)
	if err != nil {
		log.Fatal(err)
	}
	fresh := 0
	for _, e := range samples {
		if e.Pos.T() >= 30*86400 {
			fresh++
		}
	}
	fmt.Printf("sampled %d records from the window; all %d are fresh inserts\n", len(samples), fresh)

	ctx := context.Background()
	ch, err := h.TermsOnline(ctx, recent, "text", 5, storm.Options{MaxSamples: 300})
	if err != nil {
		log.Fatal(err)
	}
	var last *storm.TermSnapshot
	for s := range ch {
		last = s.Terms
	}
	fmt.Printf("top terms in the fresh window: ")
	for i, t := range last.Top {
		if i > 0 {
			fmt.Print(", ")
		}
		fmt.Print(t.Text)
	}
	fmt.Println()
}

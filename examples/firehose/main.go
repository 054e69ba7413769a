// Firehose: the paper's live-stream scenario end to end. A paced
// producer pushes synthetic pings through the buffered ingest path
// (package ingest: sharded acceptance, background batched drains into
// the indexes, backpressure) while concurrent queries watch the stream
// through a sliding `LAST`-window — the engine anchors the window at the
// dataset's event-time watermark, so answers track the stream's leading
// edge. Once the stream ends, the same window is counted exactly and
// estimated once more. See INGEST.md for the architecture.
package main

import (
	"context"
	"fmt"
	"log"
	"sync/atomic"
	"time"

	"storm"
	"storm/internal/data"
	"storm/internal/engine"
	"storm/internal/estimator"
	"storm/internal/geo"
	"storm/internal/ingest"
	"storm/internal/stats"
)

func main() {
	db := storm.Open(storm.Config{Seed: 7})

	fmt.Println("indexing a 200k-ping backlog (one year of event time)...")
	base := storm.GenerateOSM(storm.OSMConfig{N: 200_000, Seed: 7})
	h, err := db.Register(base, storm.IndexOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// The stream buffer: 8 acceptance shards, drained in the background
	// into h.InsertBatch.
	in := ingest.New(h, ingest.Config{
		Shards:        8,
		FlushInterval: 20 * time.Millisecond,
		Name:          "firehose",
	})
	defer in.Close()

	// Producer: ~4s of wall time, event time starting at the backlog's
	// one-year watermark and advancing, so LAST windows slide with the
	// stream's leading edge.
	var produced, backpressured atomic.Uint64
	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := stats.NewRNG(99)
		eventT := 86400.0 * 365 // the OSM backlog ends here
		deadline := time.Now().Add(4 * time.Second)
		for time.Now().Before(deadline) {
			chunk := make([]data.Row, 256)
			for i := range chunk {
				eventT += 0.004 // ~250 events per second of event time
				chunk[i] = data.Row{
					Pos: geo.Vec{rng.Uniform(-112.4, -111.4), rng.Uniform(40.2, 41.2), eventT},
					Num: map[string]float64{"speed": rng.Uniform(0, 30)},
				}
			}
			// Backpressure contract: on ErrBackpressure nothing of the
			// chunk was buffered — back off and retry the whole chunk.
			for in.AppendBatch(chunk) != nil {
				backpressured.Add(1)
				time.Sleep(time.Millisecond)
			}
			produced.Add(uint64(len(chunk)))
			time.Sleep(time.Millisecond)
		}
	}()

	// Consumer: windowed estimates over the last 60 seconds of EVENT
	// time, while the stream is still arriving.
	region := geo.Range{MinX: -112.4, MinY: 40.2, MaxX: -111.4, MaxY: 41.2,
		MinT: 0, MaxT: 1e18}
	for i := 0; ; i++ {
		time.Sleep(400 * time.Millisecond)
		snap, err := h.Estimate(context.Background(), region, engine.Options{
			Kind: estimator.Avg, Attr: "speed",
			Last: 60 * time.Second, MaxSamples: 800, Seed: int64(i),
		})
		if err != nil {
			log.Fatal(err)
		}
		wm, _ := h.Watermark()
		fmt.Printf("  watermark %9.1fs  pending %6d  LAST 60s: AVG(speed) = %s\n",
			wm, in.Pending(), snap.Estimate)
		select {
		case <-done:
		default:
			continue
		}
		break
	}

	// Drain what's left, then ask the indexes about the final window: an
	// exact COUNT by range counting, and the AVG estimate over the same
	// population.
	in.Flush()
	fmt.Printf("\nproduced %d records (%d backpressure retries)\n",
		produced.Load(), backpressured.Load())
	count, err := h.Estimate(context.Background(), region, engine.Options{
		Kind: estimator.Count, Last: 60 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	avg, err := h.Estimate(context.Background(), region, engine.Options{
		Kind: estimator.Avg, Attr: "speed",
		Last: 60 * time.Second, MaxSamples: 800, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("final LAST 60s [%.1fs, %.1fs]: COUNT = %.0f (exact %v), AVG(speed) = %s\n",
		count.WindowLo, count.WindowHi, count.Value, count.Exact, avg.Estimate)
	if avg.Population != int(count.Value) {
		log.Fatalf("the estimate sampled %d records, the window holds %.0f", avg.Population, count.Value)
	}

	// The same window through the query language over HTTP would be:
	//   SELECT AVG(speed) FROM osm LAST 60s WITH ERROR 2%
	// (see QUERYLANG.md "Sliding windows" and OPERATIONS.md "POST /ingest").
}

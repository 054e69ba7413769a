// Distributed: STORM on a cluster of commodity machines, its shard hosts
// run in this process. The dataset is cut across shards in contiguous STR
// leaf runs, each with a local RS-tree; a coordinator draws uniform samples across
// shards weighted by per-shard matching counts and the engine folds that
// one stream into the estimate — the deployment the paper describes over
// a DFS.
package main

import (
	"context"
	"fmt"
	"log"

	"storm"
)

func main() {
	fmt.Println("generating 1M OSM-like points...")
	ds := storm.GenerateOSM(storm.OSMConfig{N: 1_000_000, Seed: 17})
	db := storm.Open(storm.Config{Seed: 17})

	q := storm.Range{MinX: -76, MinY: 38.7, MaxX: -72, MaxY: 42.7,
		MinT: 0, MaxT: 86400 * 365}

	for _, shards := range []int{1, 4, 8} {
		h, err := db.Register(ds, storm.IndexOptions{Shards: shards})
		if err != nil {
			log.Fatal(err)
		}
		cluster := h.Cluster()
		fmt.Printf("\n-- %d shard(s) --\n", shards)
		for _, s := range cluster.Shards() {
			fmt.Printf("  shard %d: %d records\n", s.ID, s.Len())
		}
		fmt.Printf("  matching records across shards: %d\n", cluster.Count(q.Rect()))

		cluster.ResetNet()
		snap, err := h.Estimate(context.Background(), q, storm.Options{
			Kind: storm.Avg, Attr: "altitude", MaxSamples: 2000,
		})
		if err != nil {
			log.Fatal(err)
		}
		net := cluster.Net()
		fmt.Printf("  coordinator online AVG: %s (sampler %s)\n", snap.Estimate, snap.Method)
		fmt.Printf("  network: %d messages, %d samples moved\n", net.Messages, net.SamplesMoved)

		if err := db.Unregister(ds.Name()); err != nil {
			log.Fatal(err)
		}
	}
}

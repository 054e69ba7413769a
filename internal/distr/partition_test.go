package distr

import (
	"slices"
	"testing"

	"storm/internal/data"
	"storm/internal/geo"
	"storm/internal/rtree"
)

// pinnedPartition is partition with the Hilbert sort on rtree.SortKeyed
// itself: the order partition must reproduce, ties included.
func pinnedPartition(ds *data.Dataset, shards int) [][]data.Entry {
	entries := ds.Entries()
	quant := rtree.NewQuantizer(rtree.HilbertBounds(geo.Rect{}, entries))
	order := make([]rtree.Keyed[uint64], len(entries))
	for i, e := range entries {
		order[i] = rtree.Keyed[uint64]{Key: quant.Value3(e.Pos[0], e.Pos[1], e.Pos[2]), Idx: i}
	}
	rtree.SortKeyed(order)
	parts := make([][]data.Entry, shards)
	per := (len(entries) + shards - 1) / shards
	for s := range parts {
		for _, k := range order[min(s*per, len(order)):min((s+1)*per, len(order))] {
			parts[s] = append(parts[s], entries[k.Idx])
		}
	}
	return parts
}

// tiedDataset puts n records on a coarse grid, every third one an exact
// duplicate of an earlier record, so Hilbert keys collide throughout.
func tiedDataset(n int) *data.Dataset {
	ds := data.NewDataset("ties")
	state := uint64(7)
	next := func(mod uint64) uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return (state >> 33) % mod
	}
	for i := 0; i < n; i++ {
		pos := geo.Vec{float64(next(10)), float64(next(10)), float64(next(10))}
		if i%3 == 2 {
			pos = ds.Pos(next(uint64(i)))
		}
		ds.Append(data.Row{Pos: pos})
	}
	return ds
}

// TestPartitionMatchesPinnedOrder checks that every shard gets the records,
// in the order, that a partition on SortKeyed gives them: distinct Hilbert
// keys on the radix path, tied keys (where the tie order decides which
// shard a record lands in) on the pinned one.
func TestPartitionMatchesPinnedOrder(t *testing.T) {
	for _, c := range []struct {
		name  string
		ds    *data.Dataset
		radix bool
	}{
		{"distinct keys", testDataset(5000), true},
		{"tied keys", tiedDataset(5000), false},
	} {
		for _, shards := range []int{2, 3} {
			radix0, pinned0 := rtree.SortPaths()
			got, _ := partition(c.ds, shards)
			radix, pinned := rtree.SortPaths()
			if c.radix && (radix != radix0+1 || pinned != pinned0) || !c.radix && (radix != radix0 || pinned != pinned0+1) {
				t.Errorf("%s, %d shards: radix sorts +%d, pinned +%d; want the radix path = %v",
					c.name, shards, radix-radix0, pinned-pinned0, c.radix)
			}
			want := pinnedPartition(c.ds, shards)
			for s := range want {
				if !slices.Equal(got[s], want[s]) {
					t.Errorf("%s: shard %d of %d differs from the SortKeyed partition", c.name, s, shards)
				}
			}
		}
	}
}

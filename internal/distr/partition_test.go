package distr

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"slices"
	"testing"

	"storm/internal/data"
	"storm/internal/data/datatest"
	"storm/internal/geo"
	"storm/internal/rtree"
)

// referencePartition is partition built from slices.SortFunc over the
// entries themselves by (Hilbert key, ID): the shards partition must give,
// ties included.
func referencePartition(entries []data.Entry, shards int) [][]data.Entry {
	quant := rtree.NewQuantizer(rtree.HilbertBounds(geo.Rect{}, entries))
	key := func(e data.Entry) uint64 { return quant.Value3(e.Pos[0], e.Pos[1], e.Pos[2]) }
	sorted := slices.Clone(entries)
	slices.SortFunc(sorted, func(a, b data.Entry) int {
		if c := cmp.Compare(key(a), key(b)); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	parts := make([][]data.Entry, shards)
	per := (len(sorted) + shards - 1) / shards
	for s := range parts {
		parts[s] = sorted[min(s*per, len(sorted)):min((s+1)*per, len(sorted))]
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

// signedZeros returns n records whose coordinates are ±0 and ±1, so
// positions repeat and −0 and +0 share every Hilbert key.
func signedZeros(n int) *data.Dataset {
	r := rand.New(rand.NewSource(3))
	vals := []float64{math.Copysign(0, -1), 0, -1, 1}
	ds := data.NewDataset("zeros")
	for range n {
		var pos geo.Vec
		for d := range pos {
			pos[d] = vals[r.Intn(len(vals))]
		}
		ds.Append(data.Row{Pos: pos})
	}
	return ds
}

// TestPartitionMatchesReference checks that every shard gets the records
// that the reference gives it: on distinct keys, on tied ones (where the
// tie rule decides which shard a record lands in) and on signed zeros, on
// both sides of the radix cutoff, for one to seven shards. Only membership
// is compared: the order within a part is left open
// (TestBuildShardIgnoresPartOrder). The keys partition cuts, which shard
// leaves cache, must be the reference's keys by record ID.
func TestPartitionMatchesReference(t *testing.T) {
	for name, ds := range map[string]*data.Dataset{
		"distinct keys":   testDataset(5000),
		"tied keys":       tiedDataset(5000),
		"tieHeavy":        datatest.TieHeavy(20_000),
		"tied keys short": tiedDataset(700),
		"signed zeros":    signedZeros(3000),
	} {
		entries := ds.Entries()
		bounds := rtree.HilbertBounds(geo.Rect{}, entries)
		quant := rtree.NewQuantizer(bounds)
		k := keyRecords(ds)
		if k.n != len(entries) || k.bounds != bounds {
			t.Fatalf("%s: keyed %d records over %v, want %d over %v", name, k.n, k.bounds, len(entries), bounds)
		}
		for id, e := range entries {
			if want := quant.Value3(e.Pos[0], e.Pos[1], e.Pos[2]); k.keys[id] != want {
				t.Fatalf("%s: key of record %d = %d, want %d", name, id, k.keys[id], want)
			}
		}
		for shards := 1; shards <= 7; shards++ {
			got := partition(ds, k, shards)
			for s, want := range referencePartition(entries, shards) {
				if !slices.EqualFunc(byID(got[s]), byID(want), sameEntry) {
					t.Fatalf("%s: shard %d of %d holds other records than the reference partition", name, s, shards)
				}
			}
		}
	}
}

// byID returns a copy of part in record ID order.
func byID(part []data.Entry) []data.Entry {
	out := slices.Clone(part)
	slices.SortFunc(out, func(a, b data.Entry) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// TestBuildShardIgnoresPartOrder builds each shard of a tie-heavy partition
// from its part as partition returns it and from shuffles of it: tree and
// sample buffers must digest the same, which is what lets partition leave
// the order within a part open.
func TestBuildShardIgnoresPartOrder(t *testing.T) {
	ds := datatest.TieHeavy(20_000)
	keys := keyRecords(ds)
	for id, part := range partition(ds, keys, 3) {
		wantTree, wantBuf := shardDigests(t, ds, part, keys, id)
		for shuffle := int64(0); shuffle < 2; shuffle++ {
			in := slices.Clone(part)
			rand.New(rand.NewSource(shuffle)).Shuffle(len(in), func(i, j int) { in[i], in[j] = in[j], in[i] })
			gotTree, gotBuf := shardDigests(t, ds, in, keys, id)
			if gotTree != wantTree {
				t.Errorf("shard %d, shuffle %d: tree digest %s, want %s", id, shuffle, gotTree, wantTree)
			}
			if gotBuf != wantBuf {
				t.Errorf("shard %d, shuffle %d: buffer digest %s, want %s", id, shuffle, gotBuf, wantBuf)
			}
		}
	}
}

// shardDigests builds shard id from part and digests its tree in pre-order
// — page IDs, boxes as float bits, subtree counts, leaf entry IDs — and its
// sample buffers as entry IDs in stored order.
func shardDigests(t *testing.T, ds *data.Dataset, part []data.Entry, keys *recordKeys, id int) (tree, buffers string) {
	t.Helper()
	sh, err := buildShard(ds, part, keys, id, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	th, bh := sha256.New(), sha256.New()
	put := func(h hash.Hash, v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	var walk func(n *rtree.Node)
	walk = func(n *rtree.Node) {
		put(th, uint64(n.PageID()))
		put(th, uint64(n.Count()))
		mbr := n.MBR()
		for d := range mbr.Min {
			put(th, math.Float64bits(mbr.Min[d]))
			put(th, math.Float64bits(mbr.Max[d]))
		}
		for _, e := range n.Entries() {
			put(th, uint64(e.ID))
		}
		buf := sh.index.StoredBuffer(n)
		put(bh, uint64(len(buf)))
		for _, e := range buf {
			put(bh, uint64(e.ID))
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(sh.index.Tree().Root())
	return fmt.Sprintf("%x", th.Sum(nil)), fmt.Sprintf("%x", bh.Sum(nil))
}

// sameEntry reports whether a and b are one entry, positions bit for bit.
func sameEntry(a, b data.Entry) bool {
	for d := range a.Pos {
		if math.Float64bits(a.Pos[d]) != math.Float64bits(b.Pos[d]) {
			return false
		}
	}
	return a.ID == b.ID
}

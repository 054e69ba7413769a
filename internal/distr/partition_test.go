package distr

import (
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

// leafEntries lists the entries of t's leaves, leaf after leaf in tree
// order: the order they were packed in.
func leafEntries(t *rtree.Tree) []data.Entry {
	var out []data.Entry
	var walk func(n *rtree.Node)
	walk = func(n *rtree.Node) {
		out = append(out, n.Entries()...)
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(t.Root())
	return out
}

// buildAll sends the Builds for every shard of ds into of at fanout to h,
// one after another, and returns the built shards in shard order.
func buildAll(t *testing.T, h *Host, ds *data.Dataset, of, fanout uint32) []*Shard {
	t.Helper()
	shards := make([]*Shard, of)
	for s, b := range cut(ds, of, fanout, 1) {
		if resp := h.Handle(b); !isBuildOK(resp) {
			t.Fatalf("Build shard %d of %d at fanout %d: %#v", s, of, fanout, resp)
		}
		shards[s] = h.backend(b.Target).shard
	}
	return shards
}

// TestPartitionMatchesReference builds every shard of a dataset on a host
// and checks the cut against the reference: with L leaves of the dataset's
// STR order (rtree.STROrder over its entries), leaf i goes to shard
// ⌈(i+1)·S/L⌉ − 1, so the shards' leaves, in shard order, are that order
// entry for entry. Every record is then on exactly one shard, and every
// shard is within one leaf of N/S. On distinct keys, on tied ones and on
// signed zeros, on both sides of the radix cutoff, at the default fanout
// and at 8, for one to seven shards.
func TestPartitionMatchesReference(t *testing.T) {
	for name, ds := range map[string]*data.Dataset{
		"distinct keys":   testDataset(5000),
		"tied keys":       tiedDataset(5000),
		"tieHeavy":        datatest.TieHeavy(20_000),
		"tied keys short": tiedDataset(700),
		"signed zeros":    signedZeros(3000),
	} {
		for _, fanout := range []uint32{0, 8} {
			f := shardFanout(int(fanout))
			ref := rtree.STROrder(f, ds.Entries())[0]
			leaves := (len(ref) + f - 1) / f
			for of := uint32(1); of <= 7; of++ {
				want := make([][]data.Entry, of)
				for i := range leaves {
					s := ((i+1)*int(of)+leaves-1)/leaves - 1
					want[s] = append(want[s], ref[i*f:min((i+1)*f, len(ref))]...)
				}
				h := NewHost()
				h.AddDataset(ds)
				held := make([]int, ds.Len())
				for s, sh := range buildAll(t, h, ds, of, fanout) {
					got := leafEntries(sh.index.Tree())
					if !slices.EqualFunc(got, want[s], sameEntry) {
						t.Fatalf("%s, fanout %d: shard %d of %d holds other leaves than the reference cut", name, f, s, of)
					}
					if d := len(got) - len(ref)/int(of); d < -f || d > f {
						t.Errorf("%s, fanout %d: shard %d of %d holds %d records, more than a leaf from %d", name, f, s, of, len(got), len(ref)/int(of))
					}
					for _, e := range got {
						held[e.ID]++
					}
				}
				if i := slices.IndexFunc(held, func(k int) bool { return k != 1 }); i >= 0 {
					t.Fatalf("%s, fanout %d: record %d is on %d of %d shards", name, f, i, held[i], of)
				}
			}
		}
	}
}

// TestBuildShardIgnoresPartOrder builds each shard of a tie-heavy dataset
// on a host, and again from its window of the STR order of shuffles of the
// dataset's entries: tree and sample buffers must digest the same. A shard
// is a function of the dataset's records, not of the order a sort reads
// them in, which is what lets any coordinator's sort name a host's shards.
func TestBuildShardIgnoresPartOrder(t *testing.T) {
	ds := datatest.TieHeavy(20_000)
	const of, fanout = 3, 16
	h := NewHost()
	h.AddDataset(ds)
	for id, sh := range buildAll(t, h, ds, of, fanout) {
		wantTree, wantBuf := shardDigests(sh)
		for shuffle := int64(0); shuffle < 2; shuffle++ {
			in := ds.Entries()
			rand.New(rand.NewSource(shuffle)).Shuffle(len(in), func(i, j int) { in[i], in[j] = in[j], in[i] })
			run := leafRun(rtree.STROrder(fanout, in)[0], fanout, of, id)
			again, err := buildShard(ds, run, ds.Bounds(), id, fanout, 1)
			if err != nil {
				t.Fatal(err)
			}
			gotTree, gotBuf := shardDigests(again)
			if gotTree != wantTree {
				t.Errorf("shard %d, shuffle %d: tree digest %s, want %s", id, shuffle, gotTree, wantTree)
			}
			if gotBuf != wantBuf {
				t.Errorf("shard %d, shuffle %d: buffer digest %s, want %s", id, shuffle, gotBuf, wantBuf)
			}
		}
	}
}

// shardDigests digests sh's tree in pre-order — page IDs, boxes as float
// bits, subtree counts, leaf entry IDs — and its sample buffers as entry
// IDs in stored order.
func shardDigests(sh *Shard) (tree, buffers string) {
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

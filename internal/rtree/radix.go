package rtree

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"storm/internal/data"
)

// The bulk-load sorts. Every order a bulk load uses — the three STR passes,
// the Hilbert sorts of InsertBatch and its leaf splits, and the Hilbert
// ranges distr's partition cuts (by selection, GroupByKey: only the buckets
// a cut falls in are sorted) — is the lexicographic order (key, record ID),
// where a coordinate's key is its floatImage. Over entries with distinct
// IDs that order is total, so any correct sort produces it, on any
// toolchain, and which sort runs is a matter of speed alone: from radixMin
// keys up a stable LSD radix sort on the key, then each run of equal keys
// ordered by ID; below, slices.SortFunc with the same comparison
// (compareKeyed).

// radixMin is the fewest keys the bulk-load sorts radix-sort; shorter sorts
// go through slices.SortFunc, which matches a radix sort's fixed histogram
// cost at about this size and loses above it (the sort benchmark in
// radix_test.go: 2.7 µs each at 64 keys, 2.9 against 5.2 at 96, 22 against
// 81 at 832, on one core of a 2-core x86-64 box).
const radixMin = 64

// Keyed is what the bulk-load sorts move: a sort key and the position of the
// entry it belongs to — half the bytes of a data.Entry; the entries
// themselves are gathered once per pass.
type Keyed struct {
	Key uint64
	Idx int
}

// compareKeyed orders a and b, whose Idx index entries, by key, then by the
// record ID of their entry, then by Idx — which decides only between two
// copies of one record, so that even a list holding a record twice has a
// single order.
func compareKeyed(a, b Keyed, entries []data.Entry) int {
	if a.Key != b.Key {
		return cmp.Compare(a.Key, b.Key)
	}
	if c := cmp.Compare(entries[a.Idx].ID, entries[b.Idx].ID); c != 0 {
		return c
	}
	return cmp.Compare(a.Idx, b.Idx)
}

// SortByKeyID sorts x, whose every Idx indexes entries, into (Key, record
// ID) order.
func SortByKeyID(x []Keyed, entries []data.Entry) {
	sortKeys(x, entries, radixMin, nil)
}

// sortKeys is SortByKeyID with the radix sort taken from radixFrom keys up,
// using tmp as its scratch when tmp is long enough.
func sortKeys(x []Keyed, entries []data.Entry, radixFrom int, tmp []Keyed) {
	byID := func(a, b Keyed) int { return compareKeyed(a, b, entries) }
	if len(x) < radixFrom {
		slices.SortFunc(x, byID)
		return
	}
	if len(tmp) < len(x) {
		tmp = make([]Keyed, len(x))
	}
	radixSort(x, tmp)
	for i := 1; i < len(x); i++ {
		if x[i].Key != x[i-1].Key {
			continue
		}
		lo := i - 1
		for i+1 < len(x) && x[i+1].Key == x[lo].Key {
			i++
		}
		slices.SortFunc(x[lo:i+1], byID)
	}
}

// floatImage maps a float64 onto a uint64 whose unsigned order is the
// float's: −0 maps to +0, negatives have every bit flipped and the rest get
// the sign bit set. For non-NaN a and b, a < b exactly when floatImage(a) <
// floatImage(b); a NaN lands beyond the infinity of its sign, placed by its
// payload, so every float has a fixed place.
func floatImage(f float64) uint64 {
	b := math.Float64bits(f)
	if b == 1<<63 { // −0
		b = 0
	}
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// radixSort sorts x by Key, stably, with tmp (at least as long as x) as
// scratch: one LSD pass per byte of the key, skipping the bytes every key
// shares (the sign and high exponent bits of coordinates in one range).
func radixSort(x, tmp []Keyed) {
	n := len(x)
	if n < 2 {
		return
	}
	var counts [8][256]int
	for _, k := range x {
		key := k.Key
		counts[0][uint8(key)]++
		counts[1][uint8(key>>8)]++
		counts[2][uint8(key>>16)]++
		counts[3][uint8(key>>24)]++
		counts[4][uint8(key>>32)]++
		counts[5][uint8(key>>40)]++
		counts[6][uint8(key>>48)]++
		counts[7][uint8(key>>56)]++
	}
	src, dst := x, tmp[:n]
	first := x[0].Key
	for d := range counts {
		shift := 8 * uint(d)
		c := &counts[d]
		if c[uint8(first>>shift)] == n {
			continue // every key has this byte: the pass would not move anything
		}
		sum := 0
		for b, m := range c {
			c[b] = sum
			sum += m
		}
		for _, k := range src {
			b := uint8(k.Key >> shift)
			dst[c[b]] = k
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &x[0] {
		copy(x, src)
	}
}

// groupEntries copies src into dst so that each consecutive group of size
// entries (the last one may be short) holds the entries that group holds
// in (coordinate axis, ID) order. The order within a group is left open;
// the STR x and y passes need only the members, as the next pass sorts
// each group again. One MSD radix pass on the highest byte of the
// coordinates' images that varies buckets the entries; only the buckets a
// group boundary cuts are sorted (sortEntries), because entries in
// different buckets differ.
func groupEntries(dst, src []data.Entry, axis, size, radixFrom int, w *strScratch) {
	if len(src) <= size {
		copy(dst, src)
		return
	}
	first := floatImage(src[0].Pos[axis])
	var diff uint64
	for _, e := range src {
		diff |= floatImage(e.Pos[axis]) ^ first
	}
	shift := uint(max(bits.Len64(diff)-8, 0))
	var ends [256]int
	for _, e := range src {
		ends[uint8(floatImage(e.Pos[axis])>>shift)]++
	}
	sum := 0
	for b, m := range ends {
		ends[b] = sum
		sum += m
	}
	for _, e := range src {
		b := uint8(floatImage(e.Pos[axis]) >> shift)
		dst[ends[b]] = e
		ends[b]++ // ends with the bucket's end
	}
	lo := 0
	for _, hi := range ends {
		if cut := (lo/size + 1) * size; cut < hi {
			sortEntries(dst[lo:hi], axis, radixFrom, w)
		}
		lo = hi
	}
}

// sortEntries sorts entries into (coordinate axis, ID) order through w's
// buffers.
func sortEntries(entries []data.Entry, axis, radixFrom int, w *strScratch) {
	n := len(entries)
	if cap(w.images) < n {
		w.images = make([]Keyed, n)
		w.tmp = make([]Keyed, n)
	}
	images := w.images[:n]
	for i, e := range entries {
		images[i] = Keyed{Key: floatImage(e.Pos[axis]), Idx: i}
	}
	sortKeys(images, entries, radixFrom, w.tmp[:n])
	gather(entries, images, &w.entries)
}

// GroupByKey returns a copy of entries in which each consecutive group of
// size entries (the last one may be short) holds the entries that group
// holds in (key, record ID) order, keys[i] being the key of entries[i]. The
// order within a group is left open: it is a selection, not a sort, for
// callers that cut an order into parts and need only each part's members
// (distr's shard partition). As in groupEntries, one MSD radix pass on the
// highest byte of the keys that varies scatters the entries into buckets,
// and only the buckets a group boundary cuts are sorted.
func GroupByKey(entries []data.Entry, keys []uint64, size int) []data.Entry {
	out := make([]data.Entry, len(entries))
	if len(entries) <= size {
		copy(out, entries)
		return out
	}
	var diff uint64
	for _, k := range keys {
		diff |= k ^ keys[0]
	}
	shift := uint(max(bits.Len64(diff)-8, 0))
	var count [256]int
	for _, k := range keys {
		count[uint8(k>>shift)]++
	}
	// A cut bucket's keys are scattered too, into its span of cut, so it
	// can be sorted without recomputing them; cutAt is that span's next
	// slot, -1 for a bucket no group boundary cuts.
	var start, cutAt [256]int
	lo, cuts := 0, 0
	for b, m := range count {
		start[b], cutAt[b] = lo, -1
		if (lo/size+1)*size < lo+m {
			cutAt[b] = cuts
			cuts += m
		}
		lo += m
	}
	cut := make([]Keyed, cuts)
	next := start
	for i, e := range entries {
		b := uint8(keys[i] >> shift)
		if c := cutAt[b]; c >= 0 {
			cut[c] = Keyed{Key: keys[i], Idx: next[b] - start[b]}
			cutAt[b]++
		}
		out[next[b]] = e
		next[b]++ // ends with the bucket's end
	}
	var scratch []data.Entry
	c := 0
	for b, end := range next {
		if cutAt[b] < 0 {
			continue
		}
		bucket, keyed := out[start[b]:end], cut[c:cutAt[b]]
		SortByKeyID(keyed, bucket)
		gather(bucket, keyed, &scratch)
		c = cutAt[b]
	}
	return out
}

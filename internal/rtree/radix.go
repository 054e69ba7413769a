package rtree

import (
	"math"
	"math/bits"
	"sync/atomic"

	"storm/internal/data"
)

// The radix path of the bulk-load sorts. SortKeyed (keysort.go) defines
// every bulk-load order; this file only reproduces it faster where that is
// provable. A comparison sort leaves tied keys in an order of its own, but
// when the order a sort must produce is the only order there is — no ties
// anywhere it matters — every correct sort produces it, SortKeyed's
// included. So the bulk loads sort in linear time by radix (LSD for whole
// sorts, one MSD pass for the STR passes that only group), check
// afterwards that the result is the unique order, and run SortKeyed
// exactly as before whenever it is not.

// radixMin is the fewest keys the bulk-load sorts radix-sort; shorter sorts
// stay on SortKeyed, which beats a radix sort's fixed histogram cost up to
// about this size (BenchmarkSortKeyed). Leaf splits and ingest-sized
// InsertBatch sorts are all shorter.
const radixMin = 1024

// radixSorts and pinnedSorts count the sorts of at least radixMin keys (an
// STR list counts once) by the path they ended on.
var radixSorts, pinnedSorts atomic.Uint64

// SortPaths returns how many bulk-load sorts of at least radixMin keys —
// whole STR lists, Hilbert sorts and partitions — have ended on each path
// since the process started: radix when their order was provably unique,
// pinned when ties or NaNs sent them back to SortKeyed. It is a
// deterministic function of the data sorted, so benchmarks and tests read
// it to tell which path a dataset takes.
func SortPaths() (radix, pinned uint64) { return radixSorts.Load(), pinnedSorts.Load() }

// SortKeyedIndexed leaves x exactly as SortKeyed(x) would, for x whose
// every Idx is its own position (x[i].Idx == i), as the Hilbert sorts build
// it. From radixMin keys up it radix-sorts, and keeps the result when the
// keys are pairwise distinct: then the sorted order is the only one, so it
// is SortKeyed's. On a tie it puts every pair back where its Idx says it
// started and runs SortKeyed.
func SortKeyedIndexed(x []Keyed[uint64]) {
	if len(x) < radixMin {
		SortKeyed(x)
		return
	}
	tmp := make([]Keyed[uint64], len(x))
	radixSort(x, tmp)
	if distinct(x) {
		radixSorts.Add(1)
		return
	}
	pinnedSorts.Add(1)
	copy(tmp, x)
	for _, k := range tmp {
		x[k.Idx] = k
	}
	SortKeyed(x)
}

// distinct reports whether no two neighbours of the sorted x share a key.
func distinct(x []Keyed[uint64]) bool {
	for i := 1; i < len(x); i++ {
		if x[i-1].Key == x[i].Key {
			return false
		}
	}
	return true
}

// floatImage maps a non-NaN float64 onto a uint64 whose unsigned order is
// the float's: −0 maps to +0, negatives have every bit flipped and the rest
// get the sign bit set. For non-NaN a and b, a < b exactly when
// floatImage(a) < floatImage(b), so SortKeyed's comparisons come out the
// same on either key.
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
func radixSort(x, tmp []Keyed[uint64]) {
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
// when sorted by coordinate axis, and reports whether that grouping is
// unique: whether no coordinate is NaN and no run of equal coordinates
// crosses a group boundary. The order within a group is left open; the
// STR x and y passes need only the members, as the next pass sorts each
// group again. One MSD radix pass on the highest byte of the coordinates'
// images that varies buckets the entries; only the buckets a group
// boundary cuts are sorted (sortEntries) and checked, because entries in
// different buckets differ.
func groupEntries(dst, src []data.Entry, axis, size, radixFrom int, w *strScratch) bool {
	if len(src) == 0 {
		return true
	}
	first := floatImage(src[0].Pos[axis])
	var diff uint64
	for _, e := range src {
		if e.Pos[axis] != e.Pos[axis] {
			return false
		}
		diff |= floatImage(e.Pos[axis]) ^ first
	}
	if len(src) <= size {
		copy(dst, src)
		return true
	}
	if diff == 0 {
		return false // one run of equal coordinates, cut by every boundary
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
			images, _ := sortEntries(dst[lo:hi], axis, radixFrom, w)
			for ; cut < hi; cut += size {
				if images[cut-lo-1].Key == images[cut-lo].Key {
					return false
				}
			}
		}
		lo = hi
	}
	return true
}

// sortEntries sorts entries by coordinate axis through w's buffers — by
// radixSort from radixFrom entries up, by SortKeyed on the images below;
// either gives a sorted order, which is all a pass whose ties are checked
// asks — and returns the sorted (image, position) pairs, which stay valid
// until w's next use. It reports false, leaving entries as they were, if a
// coordinate is NaN.
func sortEntries(entries []data.Entry, axis, radixFrom int, w *strScratch) ([]Keyed[uint64], bool) {
	n := len(entries)
	if cap(w.images) < n {
		w.images = make([]Keyed[uint64], n)
		w.tmp = make([]Keyed[uint64], n)
	}
	images := w.images[:n]
	for i, e := range entries {
		if e.Pos[axis] != e.Pos[axis] {
			return nil, false
		}
		images[i] = Keyed[uint64]{Key: floatImage(e.Pos[axis]), Idx: i}
	}
	if n < radixFrom {
		SortKeyed(images)
	} else {
		radixSort(images, w.tmp[:n])
	}
	gather(entries, images, &w.entries)
	return images, true
}

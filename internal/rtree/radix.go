package rtree

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"storm/internal/data"
	"storm/internal/geo"
)

// The bulk-load sorts. Every order a bulk load uses — the three STR passes
// and the Hilbert sorts of InsertBatch and its leaf splits — is the
// lexicographic order (key, record ID), where a coordinate's key is its
// floatImage. Over entries with distinct IDs that order is total, so any
// correct sort produces it, on any toolchain, and which sort runs is a
// matter of speed alone: from radixMin keys up a stable LSD radix sort on
// the key, then each run of equal keys ordered by ID; below,
// slices.SortFunc with the same comparison (compareKeyed).

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

// groupEntries copies the records of src into dst so that each consecutive
// group of size entries (the last one may be short) holds the entries that
// group holds in (coordinate axis, ID) order, once the cut buckets it
// returns — the spans of dst a group boundary falls in — are sorted on axis
// (sortEntries). The order within a group is left open; the STR x and y
// passes need only the members, as the next pass sorts each group again.
// One MSD radix pass on the highest byte of the coordinates' images that
// varies buckets the entries, and entries in different buckets differ, so
// only the cut buckets need sorting.
//
// src is read three times — a scan, the bucket counts, the scatter — each
// over MapChunks at grain; chunk c scatters each bucket's records after
// those of the chunks before it, so dst is the same however many chunks
// ran. The scan also returns what recordScan gathers.
func groupEntries(dst []data.Entry, src strSource, axis, size, grain int) ([]bucket, recordScan) {
	n := len(dst)
	if n <= size && src.entries != nil {
		copy(dst, src.entries)
		return nil, recordScan{}
	}
	var first uint64
	if n > 0 {
		first = floatImage(src.coord(0, axis))
	}
	scan := newRecordScan()
	for _, part := range MapChunks(n, grain, func(lo, hi int) recordScan { return src.scan(lo, hi, axis, first) }) {
		scan = scan.merge(part)
	}
	if n <= size {
		for i := range dst {
			src.put(&dst[i], i)
		}
		return nil, scan
	}
	shift := uint(max(bits.Len64(scan.diff)-8, 0))
	type chunk struct {
		lo   int
		next [256]int // records of each bucket, then the bucket's next slot
	}
	chunks := MapChunks(n, grain, func(lo, hi int) chunk {
		c := chunk{lo: lo}
		for i := lo; i < hi; i++ {
			c.next[uint8(floatImage(src.coord(i, axis))>>shift)]++
		}
		return c
	})
	var starts [257]int
	sum := 0
	for b := range 256 {
		starts[b] = sum
		for c := range chunks {
			m := chunks[c].next[b]
			chunks[c].next[b] = sum
			sum += m
		}
	}
	starts[256] = n
	MapChunks(n, grain, func(lo, hi int) struct{} {
		c := 0
		for chunks[c].lo != lo {
			c++
		}
		next := chunks[c].next
		for i := lo; i < hi; i++ {
			b := uint8(floatImage(src.coord(i, axis)) >> shift)
			src.put(&dst[next[b]], i)
			next[b]++
		}
		return struct{}{}
	})
	var cuts []bucket
	for b := range 256 {
		if lo, hi := starts[b], starts[b+1]; (lo/size+1)*size < hi {
			cuts = append(cuts, bucket{lo, hi})
		}
	}
	return cuts, scan
}

// bucket is the span [lo, hi) of a grouping's output one bucket fills.
type bucket struct{ lo, hi int }

// recordScan is what the first read of a grouping learns: the bits in which
// the records' images on the grouped axis differ from the first record's,
// and, for a dataset source only, the records' MBR and latest time (see
// DatasetOrder).
type recordScan struct {
	diff   uint64
	bounds geo.Rect
	maxT   float64
}

func newRecordScan() recordScan { return recordScan{bounds: geo.EmptyRect(), maxT: math.NaN()} }

// merge folds o, the scan of the records after r's, into r: both the MBR
// and the latest time are folds whose chunks combine in order.
func (r recordScan) merge(o recordScan) recordScan {
	return recordScan{diff: r.diff | o.diff, bounds: r.bounds.Extend(o.bounds), maxT: geo.LatestT(r.maxT, o.maxT)}
}

// scan reads records [lo, hi) of s for recordScan.
func (s strSource) scan(lo, hi, axis int, first uint64) recordScan {
	r := newRecordScan()
	if s.entries != nil {
		for _, e := range s.entries[lo:hi] {
			r.diff |= floatImage(e.Pos[axis]) ^ first
		}
		return r
	}
	if lo == hi {
		return r
	}
	r.bounds = geo.RectFromPoint(s.pos[lo])
	for i := lo; i < hi; i++ {
		p := &s.pos[i]
		r.diff |= floatImage(p[axis]) ^ first
		if i > lo {
			r.bounds.Cover(p)
		}
		r.maxT = geo.LatestT(r.maxT, p[2])
	}
	return r
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

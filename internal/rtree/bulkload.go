package rtree

import (
	"math"
	"runtime"
	"slices"
	"sync"

	"storm/internal/data"
	"storm/internal/geo"
	"storm/internal/iosim"
)

// BulkLoad builds the tree from scratch over the given entries, replacing
// any existing contents. It is sort-then-pack: a pure sort of a copy of the
// entries into the order Config.Packing names — Sort-Tile-Recursive (the
// default, see STROrder) or Hilbert order (the Hilbert R-tree construction
// the paper's RS-tree is built on) — followed by Pack. Both orders produce
// leaves filled to the fanout, giving the compact trees the paper assumes.
// The tree remains insertable after an STR load: inserts still place by
// Hilbert value and leaf LHVs are exact maxima either way.
func (t *Tree) BulkLoad(entries []data.Entry) {
	if t.cfg.Packing == PackHilbert {
		sorted := make([]data.Entry, len(entries))
		copy(sorted, entries)
		t.quantizeFor(sorted)
		t.sortHilbert(sorted)
		t.pack(sorted)
		return
	}
	t.Pack(STROrder(t.cfg.Fanout, entries)[0])
}

// Pack is the second half of a bulk load: it replaces the tree's contents
// with the given entries, which must already be in the tree's packing order
// (STROrder at the tree's fanout for the default packing). Everything that
// has an order of its own happens here and nowhere else — page IDs are
// assigned, node writes are charged to the device and the Hilbert key cache
// is filled, leaf by leaf and then level by level — so trees packed one
// after another charge a shared device exactly as if each had been bulk
// loaded in turn, however their sorts were scheduled. Leaves copy their
// entries: sorted is not retained and may back several trees. Without
// Config.Bounds, the keys are quantized over the MBR of sorted.
func (t *Tree) Pack(sorted []data.Entry) {
	t.quantizeFor(sorted)
	t.pack(sorted)
}

// pack is Pack with the quantizer already set.
func (t *Tree) pack(sorted []data.Entry) {
	t.size = len(sorted)
	if len(sorted) == 0 {
		t.root = t.newNode(true)
		t.height = 1
		return
	}
	nodes := t.packLeaves(sorted)
	t.height = 1
	for len(nodes) > 1 {
		nodes = t.packInternal(nodes)
		t.height++
	}
	t.root = nodes[0]
}

// sortHilbert orders entries by Hilbert value of their position and returns
// the values in the same order.
func (t *Tree) sortHilbert(entries []data.Entry) []uint64 {
	keys := make([]uint64, len(entries))
	for i, e := range entries {
		keys[i] = t.hilbertValue(e.Pos)
	}
	sortByKey(entries, keys)
	return keys
}

// sortByKey reorders entries and their keys together into (key, record ID)
// order.
func sortByKey(entries []data.Entry, keys []uint64) {
	order := make([]Keyed, len(keys))
	for i, k := range keys {
		order[i] = Keyed{Key: k, Idx: i}
	}
	SortByKeyID(order, entries)
	unsorted := slices.Clone(entries)
	for i, o := range order {
		entries[i] = unsorted[o.Idx]
		keys[i] = o.Key
	}
}

// STROrder returns a copy of each list arranged in Sort-Tile-Recursive
// order for 3 dimensions: sort by x, cut into vertical slabs, sort each slab
// by y, cut into runs, sort each run by t. Consecutive groups of fanout
// entries then form spatially coherent leaves; a fanout below 1 (0 is
// "unset" throughout, and New rejects the rest) tiles for DefaultFanout. It
// is the pure first half of a bulk load — no tree, no device, no randomness
// — so the lists, and the independent slabs within each, are sorted
// concurrently on up to GOMAXPROCS goroutines.
//
// The result is nevertheless a pure function of each list's entries, not
// of their order: every pass orders by (coordinate, record ID), with
// coordinates compared as their floatImage, so ties, ±0, ±Inf and NaN all
// have one place. Page contents, and with them every seeded sample stream,
// rest on that. The x and y passes only group entries into slabs and runs
// (groupEntries); the t pass sorts each run (sortEntries).
func STROrder(fanout int, lists ...[]data.Entry) [][]data.Entry {
	return strOrder(fanout, radixMin, lists...)
}

// strOrder is STROrder with every sort of at least radixFrom entries done
// by radix; math.MaxInt sorts by slices.SortFunc alone.
func strOrder(fanout, radixFrom int, lists ...[]data.Entry) [][]data.Entry {
	if fanout < 1 {
		fanout = DefaultFanout
	}
	sorts := make([]*strSort, len(lists))
	total := 0
	for i, src := range lists {
		sorts[i] = newSTRSort(src, fanout, radixFrom)
		total += 1 + sorts[i].slabs()
	}
	// Sized to the most sends there can be (one x pass per list, which
	// then queues its slabs), so a worker never blocks handing out work.
	tasks := make(chan func(w *strScratch), total)
	var pending sync.WaitGroup
	pending.Add(len(sorts))
	for _, s := range sorts {
		tasks <- func(w *strScratch) {
			groupEntries(s.out, s.src, 0, s.slabSize, s.radixFrom, w)
			pending.Add(s.slabs())
			for lo := 0; lo < len(s.out); lo += s.slabSize {
				tasks <- func(w *strScratch) { s.sortSlab(lo, w) }
			}
		}
	}
	workers := min(runtime.GOMAXPROCS(0), total)
	var exited sync.WaitGroup
	exited.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer exited.Done()
			var w strScratch
			for task := range tasks {
				task(&w)
				pending.Done()
			}
		}()
	}
	pending.Wait()
	close(tasks)
	exited.Wait()

	out := make([][]data.Entry, len(lists))
	for i, s := range sorts {
		out[i] = s.out
	}
	return out
}

// strScratch is one STR worker's buffers, reused from task to task: the
// entry copy every gather goes through and the coordinate images a bucket
// or run is sorted by with their scratch.
type strScratch struct {
	entries     []data.Entry
	images, tmp []Keyed
}

// strSort is the STR sort of one list: the x pass groups out into slabs,
// then sortSlab runs on every slab (each touches only its own range of
// out, so slabs run in parallel).
type strSort struct {
	src, out          []data.Entry
	slabSize, runSize int
	radixFrom         int
}

func newSTRSort(src []data.Entry, fanout, radixFrom int) *strSort {
	leaves := (len(src) + fanout - 1) / fanout
	// Number of slabs along each of the first two axes; each x-slab holds
	// about s*s leaves' worth of entries, each y-run within it s leaves'.
	s := int(math.Ceil(math.Cbrt(float64(leaves))))
	if s < 1 {
		s = 1
	}
	return &strSort{
		src:       src,
		out:       make([]data.Entry, len(src)),
		slabSize:  s * s * fanout,
		runSize:   s * fanout,
		radixFrom: radixFrom,
	}
}

func (s *strSort) slabs() int { return (len(s.out) + s.slabSize - 1) / s.slabSize }

// sortSlab groups the x-slab starting at lo into runs by y and sorts each
// run by t.
func (s *strSort) sortSlab(lo int, w *strScratch) {
	slab := s.out[lo:min(lo+s.slabSize, len(s.out))]
	// The copy is only read until groupEntries has scattered it, so the
	// gathers within may reuse the buffer.
	w.entries = append(w.entries[:0], slab...)
	groupEntries(slab, w.entries, 1, s.runSize, s.radixFrom, w)
	for rlo := 0; rlo < len(slab); rlo += s.runSize {
		sortEntries(slab[rlo:min(rlo+s.runSize, len(slab))], 2, s.radixFrom, w)
	}
}

// gather permutes dst into the order of keys, whose Idx index dst, through
// the caller's scratch buffer.
func gather(dst []data.Entry, keys []Keyed, scratch *[]data.Entry) {
	unsorted := append((*scratch)[:0], dst...)
	*scratch = unsorted
	for i, k := range keys {
		dst[i] = unsorted[k.Idx]
	}
}

// packGrain is the fewest leaves worth a goroutine of their own; smaller
// packs (shard-sized test trees, LS-tree growth, the upper LS levels) build
// inline.
const packGrain = 256

// packLeaves groups consecutive sorted entries into full leaves. Leaf i is
// entries[i*fan:(i+1)*fan] on the i-th page after the current counter, so
// the leaves themselves — entry copy, MBR, Hilbert key cache, LHV — are
// built in parallel chunks; only the write charges have an order, and they
// are applied afterwards in page order, which is all the device ever saw.
func (t *Tree) packLeaves(entries []data.Entry) []*Node {
	fan := t.cfg.Fanout
	nodes := make([]*Node, (len(entries)+fan-1)/fan)
	base := t.nextPage + 1
	MapChunks(len(nodes), packGrain, func(lo, hi int) struct{} {
		for i := lo; i < hi; i++ {
			nodes[i] = t.buildLeaf(base+iosim.PageID(i), entries[i*fan:min((i+1)*fan, len(entries))])
		}
		return struct{}{}
	})
	t.nextPage += iosim.PageID(len(nodes))
	for _, n := range nodes {
		t.chargeWrite(n)
	}
	return nodes
}

// buildLeaf returns an uncharged leaf on the given page holding a copy of
// entries.
func (t *Tree) buildLeaf(page iosim.PageID, entries []data.Entry) *Node {
	n := &Node{page: page, leaf: true, mbr: geo.EmptyRect()}
	n.entries = append(n.entries, entries...)
	n.count = len(n.entries)
	// Populate the key cache and take the max for the LHV — not the last
	// key: only Hilbert-sorted input guarantees the last entry carries the
	// largest value, and STR packing is the default.
	n.keys = make([]uint64, len(n.entries))
	for i, e := range n.entries {
		n.mbr = n.mbr.ExtendPoint(e.Pos)
		n.keys[i] = t.hilbertValue(e.Pos)
		n.lhv = max(n.lhv, n.keys[i])
	}
	return n
}

// packInternal groups consecutive child nodes into parents.
func (t *Tree) packInternal(children []*Node) []*Node {
	fan := t.cfg.Fanout
	nodes := make([]*Node, 0, (len(children)+fan-1)/fan)
	for lo := 0; lo < len(children); lo += fan {
		hi := lo + fan
		if hi > len(children) {
			hi = len(children)
		}
		n := t.newNode(false)
		n.children = append(n.children, children[lo:hi]...)
		for _, c := range n.children {
			n.mbr = n.mbr.Extend(c.mbr)
			n.count += c.count
			if c.lhv > n.lhv {
				n.lhv = c.lhv
			}
		}
		t.chargeWrite(n)
		nodes = append(nodes, n)
	}
	return nodes
}

// boundsGrain is the fewest entries worth a goroutine of their own in
// EntryBounds.
const boundsGrain = 1 << 15

// EntryBounds returns the MBR covering all given entries.
func EntryBounds(entries []data.Entry) geo.Rect {
	parts := MapChunks(len(entries), boundsGrain, func(lo, hi int) geo.Rect {
		r := geo.EmptyRect()
		for _, e := range entries[lo:hi] {
			r = r.ExtendPoint(e.Pos)
		}
		return r
	})
	r := geo.EmptyRect()
	for _, part := range parts {
		r = r.Extend(part)
	}
	return r
}

// MapChunks cuts [0, n) into contiguous chunks — as many as there are Ps,
// but none shorter than grain — calls fn(lo, hi) on each concurrently and
// returns the results in chunk order. It is for the parts of a build that
// are pure functions of data already in place; whatever has an order (page
// charges, RNG draws) is applied by the caller from the results. A single
// chunk (n below 2*grain, or GOMAXPROCS = 1) runs fn(0, n) on the calling
// goroutine and starts none, so small builds cost what a plain loop costs.
func MapChunks[T any](n, grain int, fn func(lo, hi int) T) []T {
	chunks := max(1, min(runtime.GOMAXPROCS(0), n/max(grain, 1)))
	out := make([]T, chunks)
	var wg sync.WaitGroup
	wg.Add(chunks - 1)
	for c := 1; c < chunks; c++ {
		go func() {
			defer wg.Done()
			out[c] = fn(c*n/chunks, (c+1)*n/chunks)
		}()
	}
	out[0] = fn(0, n/chunks)
	wg.Wait()
	return out
}

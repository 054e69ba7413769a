package rtree

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"storm/internal/data"
	"storm/internal/geo"
	"storm/internal/iosim"
)

// BulkLoad builds the tree from scratch over the given entries, replacing
// any existing contents. It is sort-then-pack: a pure sort of a copy of the
// entries into Sort-Tile-Recursive order (STROrder) followed by Pack,
// which fills leaves to the fanout, giving the compact trees the paper
// assumes. The tree remains insertable: inserts place by Hilbert value and
// leaf LHVs are exact maxima whatever order a pack was given.
func (t *Tree) BulkLoad(entries []data.Entry) {
	t.Pack(STROrder(t.cfg.Fanout, entries)[0])
}

// Pack is the second half of a bulk load: it replaces the tree's contents
// with the given entries, already in leaf order: each run of fanout entries
// becomes one leaf (STROrder at the tree's fanout, as BulkLoad gives, or a
// Hilbert sort). Everything that has an order of its own happens here and
// nowhere else — page IDs are assigned, node writes are charged to the
// device and the Hilbert key cache is filled, leaf by leaf and then level by
// level — so trees packed one after another charge a shared device exactly
// as if each had been bulk loaded in turn, however their sorts were
// scheduled. Pack takes sorted over: each leaf holds its own window of it,
// capacity capped at the window (a leaf that grows moves out), so sorted
// must back no other tree and the caller must not touch it again. Without
// Config.Bounds, the keys are quantized over the MBR of sorted.
func (t *Tree) Pack(sorted []data.Entry) {
	t.quantizeFor(sorted)
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

// STROrder returns a copy of each list arranged in Sort-Tile-Recursive
// order for 3 dimensions: sort by x, cut into vertical slabs, sort each slab
// by y, cut into runs, sort each run by t. Consecutive groups of fanout
// entries then form spatially coherent leaves; a fanout below 1 (0 is
// "unset" throughout, and New rejects the rest) tiles for DefaultFanout. It
// is the pure first half of a bulk load — no tree, no device, no randomness
// — so its work is spread over up to GOMAXPROCS goroutines: each list's x
// pass reads and scatters in chunks, and the x buckets left to sort, then
// each list's slabs, are parallel tasks.
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
	srcs := make([]strSource, len(lists))
	for i, l := range lists {
		srcs[i] = strSource{entries: l}
	}
	out := make([][]data.Entry, len(lists))
	for i, s := range sortSTR(fanout, radixFrom, srcs) {
		out[i] = s.out
	}
	return out
}

// DatasetOrder is the STR order of a dataset's records, with what the sort
// learned of them on its first read.
type DatasetOrder struct {
	// Entries lists every record, row i as record ID i, in STROrder.
	Entries []data.Entry
	// Bounds is the records' MBR: ds.Bounds(), bit for bit.
	Bounds geo.Rect
	// MaxT is the latest t coordinate that is not NaN (geo.LatestT over
	// the rows in order), NaN when there is none.
	MaxT float64
}

// STROrderDataset is STROrder over the records of ds, read in place from
// its columns: the sorted list is the only copy made of them. The x pass's
// first read of each record also bounds it and notes its time, so a caller
// that packs the order over Bounds (Config.Bounds) and advances a watermark
// to MaxT reads no record again for either.
func STROrderDataset(fanout int, ds *data.Dataset) DatasetOrder {
	s := sortSTR(fanout, radixMin, []strSource{datasetSource(ds)})[0]
	return DatasetOrder{Entries: s.out, Bounds: s.scan.bounds, MaxT: s.scan.maxT}
}

// sortSTR sorts every source into STR order. The x passes run first, one
// list after another, each reading its source in chunks across the Ps;
// then a pool of up to GOMAXPROCS workers sorts the x buckets a slab
// boundary cuts and, once a list's cut buckets are sorted, its slabs.
func sortSTR(fanout, radixFrom int, srcs []strSource) []*strSort {
	if fanout < 1 {
		fanout = DefaultFanout
	}
	sorts := make([]*strSort, len(srcs))
	total := 0
	for i, src := range srcs {
		s := newSTRSort(src.len(), fanout, radixFrom)
		s.cuts, s.scan = groupEntries(s.out, src, 0, s.slabSize, xGrain)
		sorts[i] = s
		total += len(s.cuts) + s.slabs()
	}
	// Sized to every task there is, so a worker never blocks queueing one.
	tasks := make(chan func(w *strScratch), total)
	var pending sync.WaitGroup
	pending.Add(total)
	for _, s := range sorts {
		if len(s.cuts) == 0 {
			s.queueSlabs(tasks)
			continue
		}
		var left atomic.Int64
		left.Store(int64(len(s.cuts)))
		for _, c := range s.cuts {
			tasks <- func(w *strScratch) {
				sortEntries(s.out[c.lo:c.hi], 0, s.radixFrom, w)
				if left.Add(-1) == 0 {
					s.queueSlabs(tasks)
				}
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
	return sorts
}

// xGrain is the fewest records worth a goroutine of their own in an x pass.
const xGrain = 1 << 15

// strScratch is one STR worker's buffers, reused from task to task: the
// entry copy every gather goes through and the coordinate images a bucket
// or run is sorted by with their scratch.
type strScratch struct {
	entries     []data.Entry
	images, tmp []Keyed
}

// strSource is the list an STR sort reads: entries, or with entries nil
// the positions of a dataset's rows, read in place, row i being record ID i.
type strSource struct {
	entries []data.Entry
	pos     []geo.Vec
}

// datasetSource is the source over the rows of ds.
func datasetSource(ds *data.Dataset) strSource { return strSource{pos: ds.Positions()} }

func (s strSource) len() int {
	if s.entries == nil {
		return len(s.pos)
	}
	return len(s.entries)
}

// coord returns record i's coordinate on axis.
func (s strSource) coord(i, axis int) float64 {
	if s.entries == nil {
		return s.pos[i][axis]
	}
	return s.entries[i].Pos[axis]
}

// put copies record i to dst, field by field: an entry built or returned
// by value goes through stack copies that cost more than the rest of a
// scatter.
func (s strSource) put(dst *data.Entry, i int) {
	if s.entries == nil {
		dst.ID, dst.Pos = data.ID(i), s.pos[i]
	} else {
		*dst = s.entries[i]
	}
}

// strSort is the STR sort of one list: the x pass groups its source into
// out by slab, leaving cuts to sort, then sortSlab runs on every slab (each
// touches only its own range of out, so slabs run in parallel).
type strSort struct {
	out               []data.Entry
	slabSize, runSize int
	radixFrom         int
	cuts              []bucket
	scan              recordScan
}

func newSTRSort(n, fanout, radixFrom int) *strSort {
	leaves := (n + fanout - 1) / fanout
	// Number of slabs along each of the first two axes; each x-slab holds
	// about s*s leaves' worth of entries, each y-run within it s leaves'.
	s := int(math.Ceil(math.Cbrt(float64(leaves))))
	if s < 1 {
		s = 1
	}
	return &strSort{
		out:       make([]data.Entry, n),
		slabSize:  s * s * fanout,
		runSize:   s * fanout,
		radixFrom: radixFrom,
	}
}

func (s *strSort) slabs() int { return (len(s.out) + s.slabSize - 1) / s.slabSize }

// queueSlabs queues a task per slab.
func (s *strSort) queueSlabs(tasks chan<- func(w *strScratch)) {
	for lo := 0; lo < len(s.out); lo += s.slabSize {
		tasks <- func(w *strScratch) { s.sortSlab(lo, w) }
	}
}

// sortSlab groups the x-slab starting at lo into runs by y and sorts each
// run by t.
func (s *strSort) sortSlab(lo int, w *strScratch) {
	slab := s.out[lo:min(lo+s.slabSize, len(s.out))]
	// The copy is only read until groupEntries has scattered it, so the
	// gathers within may reuse the buffer.
	w.entries = append(w.entries[:0], slab...)
	cuts, _ := groupEntries(slab, strSource{entries: w.entries}, 1, s.runSize, math.MaxInt)
	for _, c := range cuts {
		sortEntries(slab[c.lo:c.hi], 1, s.radixFrom, w)
	}
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
// the leaves themselves — entries, MBR, Hilbert key cache, LHV — are
// built in parallel chunks; only the write charges have an order, and they
// are applied afterwards in page order, which is all the device ever saw.
// Each leaf is its capped window of entries.
func (t *Tree) packLeaves(entries []data.Entry) []*Node {
	fan := t.cfg.Fanout
	nodes := make([]*Node, (len(entries)+fan-1)/fan)
	base := t.nextPage + 1
	MapChunks(len(nodes), packGrain, func(lo, hi int) struct{} {
		for i := lo; i < hi; i++ {
			end := min((i+1)*fan, len(entries))
			nodes[i] = t.buildLeaf(base+iosim.PageID(i), entries[i*fan:end:end])
		}
		return struct{}{}
	})
	t.nextPage += iosim.PageID(len(nodes))
	for _, n := range nodes {
		t.chargeWrite(n)
	}
	return nodes
}

// buildLeaf returns an uncharged leaf on the given page holding entries.
func (t *Tree) buildLeaf(page iosim.PageID, entries []data.Entry) *Node {
	n := &Node{page: page, leaf: true, entries: entries, count: len(entries)}
	n.mbr = geo.Bounds(entries, entryPos)
	// Populate the key cache and take the max for the LHV — not the last
	// key: only Hilbert-sorted input guarantees the last entry carries the
	// largest value, and STR packing is the default.
	n.keys = make([]uint64, len(entries))
	for i, e := range entries {
		n.keys[i] = t.hilbertValue(e.Pos)
		n.lhv = max(n.lhv, n.keys[i])
	}
	return n
}

// packInternal groups consecutive child nodes into parents of fanout
// children. Where that would leave the last parent a single child, the
// parent before it hands its last child over, so every parent holds at
// least two (the fanout is at least 4).
func (t *Tree) packInternal(children []*Node) []*Node {
	fan := t.cfg.Fanout
	nodes := make([]*Node, 0, (len(children)+fan-1)/fan)
	for lo, hi := 0, 0; lo < len(children); lo = hi {
		hi = min(lo+fan, len(children))
		if len(children)-hi == 1 {
			hi--
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

// HilbertOrder returns the (Hilbert key, record ID) order of entries as
// positions into them, keyed over the box HilbertBounds gives the entries
// alone, and that box. Sorting (key, position) pairs moves 16 bytes per
// swap; the entries are read only to break ties by ID, and the caller
// gathers them once.
func HilbertOrder(entries []data.Entry) ([]Keyed, geo.Rect) {
	bounds := HilbertBounds(geo.Rect{}, entries)
	quant := NewQuantizer(bounds)
	order := make([]Keyed, len(entries))
	for i, e := range entries {
		order[i] = Keyed{Key: quant.Value3(e.Pos[0], e.Pos[1], e.Pos[2]), Idx: i}
	}
	SortByKeyID(order, entries)
	return order, bounds
}

// boundsGrain is the fewest entries worth a goroutine of their own in
// EntryBounds.
const boundsGrain = 1 << 15

// EntryBounds returns the MBR covering all given entries.
func EntryBounds(entries []data.Entry) geo.Rect {
	parts := MapChunks(len(entries), boundsGrain, func(lo, hi int) geo.Rect {
		return geo.Bounds(entries[lo:hi], entryPos)
	})
	r := geo.EmptyRect()
	for _, part := range parts {
		r = r.Extend(part)
	}
	return r
}

// entryPos is what geo.Bounds reads of an entry.
func entryPos(e *data.Entry) *geo.Vec { return &e.Pos }

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

package rtree

import (
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"

	"storm/internal/data"
	"storm/internal/geo"
)

// BulkLoad builds the tree from scratch over the given entries, replacing
// any existing contents. It is sort-then-pack: a pure sort of a copy of the
// entries into the order Config.Packing names — Sort-Tile-Recursive (the
// default, see STROrder) or Hilbert order (the Hilbert R-tree construction
// the paper's RS-tree is built on) — followed by Pack. Both orders produce
// leaves filled to the fanout, giving the compact trees the paper assumes.
// Hilbert-mode trees remain insertable after an STR load: inserts still
// place by Hilbert value and leaf LHVs are exact maxima either way.
func (t *Tree) BulkLoad(entries []data.Entry) {
	if t.cfg.Packing == PackHilbert {
		sorted := make([]data.Entry, len(entries))
		copy(sorted, entries)
		t.sortHilbert(sorted)
		t.Pack(sorted)
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
// entries: sorted is not retained and may back several trees.
func (t *Tree) Pack(sorted []data.Entry) {
	t.version++
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

// sortHilbert orders entries by Hilbert value of their position.
func (t *Tree) sortHilbert(entries []data.Entry) {
	keys := make([]uint64, len(entries))
	for i, e := range entries {
		keys[i] = t.hilbertValue(e.Pos)
	}
	sort.Sort(&hilbertSorter{entries: entries, keys: keys})
}

type hilbertSorter struct {
	entries []data.Entry
	keys    []uint64
}

func (s *hilbertSorter) Len() int           { return len(s.entries) }
func (s *hilbertSorter) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *hilbertSorter) Swap(i, j int) {
	s.entries[i], s.entries[j] = s.entries[j], s.entries[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
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
// The result is nevertheless a pure function of each list: every sort is
// the standard library's pdqsort over (coordinate, position) pairs compared
// by coordinate alone, a comparison sort whose permutation — including the
// order it leaves equal coordinates in — depends only on the outcomes of
// its comparisons, never on what is being moved or on scheduling. Page
// contents, and with them every seeded sample stream, rest on that.
func STROrder(fanout int, lists ...[]data.Entry) [][]data.Entry {
	if fanout < 1 {
		fanout = DefaultFanout
	}
	sorts := make([]*strSort, len(lists))
	total := 0
	for i, src := range lists {
		sorts[i] = newSTRSort(src, fanout)
		total += 1 + sorts[i].slabs()
	}
	// Sized to the number of sends (one x-sort per list, which then queues
	// its slabs), so a worker never blocks handing out more work.
	tasks := make(chan func(scratch *[]data.Entry), total)
	var pending sync.WaitGroup
	pending.Add(total)
	for _, s := range sorts {
		tasks <- func(*[]data.Entry) {
			s.sortX()
			for lo := 0; lo < len(s.out); lo += s.slabSize {
				tasks <- func(scratch *[]data.Entry) { s.sortSlab(lo, scratch) }
			}
		}
	}
	workers := min(runtime.GOMAXPROCS(0), total)
	var exited sync.WaitGroup
	exited.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer exited.Done()
			var scratch []data.Entry // this worker's slab-sized gather buffer
			for task := range tasks {
				task(&scratch)
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

// strKey is what the STR sorts move: one coordinate and the position of the
// entry it belongs to — half the bytes of a data.Entry, and the entries
// themselves are gathered once per pass.
type strKey struct {
	key float64
	idx int
}

// cmpSTRKey orders keys by coordinate only; equal coordinates compare equal
// whatever their positions, which is what keeps the permutation that of a
// sort over the entries themselves.
func cmpSTRKey(a, b strKey) int {
	switch {
	case a.key < b.key:
		return -1
	case a.key > b.key:
		return 1
	}
	return 0
}

// strSort is the STR sort of one list: sortX, then sortSlab for every slab
// (each touches only its own range of keys and out, so slabs run in
// parallel).
type strSort struct {
	src, out          []data.Entry
	keys              []strKey
	slabSize, runSize int
}

func newSTRSort(src []data.Entry, fanout int) *strSort {
	leaves := (len(src) + fanout - 1) / fanout
	// Number of slabs along each of the first two axes; each x-slab holds
	// about s*s leaves' worth of entries, each y-run within it s leaves'.
	s := int(math.Ceil(math.Cbrt(float64(leaves))))
	if s < 1 {
		s = 1
	}
	return &strSort{
		src:      src,
		out:      make([]data.Entry, len(src)),
		keys:     make([]strKey, len(src)),
		slabSize: s * s * fanout,
		runSize:  s * fanout,
	}
}

func (s *strSort) slabs() int { return (len(s.out) + s.slabSize - 1) / s.slabSize }

// sortX orders out by x.
func (s *strSort) sortX() {
	for i, e := range s.src {
		s.keys[i] = strKey{key: e.Pos[0], idx: i}
	}
	slices.SortFunc(s.keys, cmpSTRKey)
	for i, k := range s.keys {
		s.out[i] = s.src[k.idx]
	}
}

// sortSlab orders the x-slab starting at lo by y and each of its runs by t.
func (s *strSort) sortSlab(lo int, scratch *[]data.Entry) {
	hi := min(lo+s.slabSize, len(s.out))
	slab, keys := s.out[lo:hi], s.keys[lo:hi]
	for i, e := range slab {
		keys[i] = strKey{key: e.Pos[1], idx: i}
	}
	slices.SortFunc(keys, cmpSTRKey)
	for rlo := 0; rlo < len(keys); rlo += s.runSize {
		run := keys[rlo:min(rlo+s.runSize, len(keys))]
		for i, k := range run {
			run[i].key = slab[k.idx].Pos[2]
		}
		slices.SortFunc(run, cmpSTRKey)
	}
	unsorted := append((*scratch)[:0], slab...)
	*scratch = unsorted
	for i, k := range keys {
		slab[i] = unsorted[k.idx]
	}
}

// packLeaves groups consecutive sorted entries into full leaves.
func (t *Tree) packLeaves(entries []data.Entry) []*Node {
	fan := t.cfg.Fanout
	nodes := make([]*Node, 0, (len(entries)+fan-1)/fan)
	for lo := 0; lo < len(entries); lo += fan {
		hi := lo + fan
		if hi > len(entries) {
			hi = len(entries)
		}
		n := t.newNode(true)
		n.entries = append(n.entries, entries[lo:hi]...)
		n.count = len(n.entries)
		for _, e := range n.entries {
			n.mbr = n.mbr.ExtendPoint(e.Pos)
		}
		if t.quant != nil {
			// Populate the key cache and take the max for the LHV — not the
			// last key: only Hilbert-sorted input guarantees the last entry
			// carries the largest value, and STR packing is the default.
			n.keys = make([]uint64, len(n.entries))
			for i, e := range n.entries {
				v := t.hilbertValue(e.Pos)
				n.keys[i] = v
				if v > n.lhv {
					n.lhv = v
				}
			}
		}
		t.chargeWrite(n)
		nodes = append(nodes, n)
	}
	return nodes
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

// bulkBounds computes the MBR of a set of entries; used by callers that
// need bounds before constructing a Hilbert tree.
func bulkBounds(entries []data.Entry) geo.Rect {
	r := geo.EmptyRect()
	for _, e := range entries {
		r = r.ExtendPoint(e.Pos)
	}
	return r
}

// EntryBounds returns the MBR covering all given entries.
func EntryBounds(entries []data.Entry) geo.Rect { return bulkBounds(entries) }

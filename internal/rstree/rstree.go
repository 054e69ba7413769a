// Package rstree implements STORM's second and primary sampling index, the
// RS-tree: a single Hilbert R-tree (package rtree, the tree under every
// index) augmented with per-node sample buffers.
//
// Where the LS-tree maintains O(log N) separate trees, the RS-tree keeps
// one tree and attaches to every node u a buffer S(u): a uniform
// without-replacement sample of the points below u, stored in random order
// (leaves buffer all of their entries). The paper's three ideas map onto
// this implementation as follows:
//
//   - Sample buffering: S(u) is stored with the node (as its on-disk page
//     layout would), tagged with the node's version so updates invalidate
//     it and the next query regenerates it lazily. Its size is the tree
//     fanout, so a buffer occupies about one disk page alongside its node.
//     The build writes every internal node's buffer; a leaf's buffer, a
//     shuffled copy of the leaf itself, is only marked pending there and
//     filled by the first read (see precomputeBuffers).
//
//   - Acceptance/rejection + weighted node selection: a query maintains a
//     set of active "parts" (disjoint subtrees covering P ∩ Q) and draws
//     the next sample from part u with probability proportional to the
//     number of not-yet-consumed points below u, using a Fenwick tree for
//     O(log·) weighted draws. Buffer entries that fall outside Q (possible
//     only for boundary parts) are consumed-and-rejected, which is exactly
//     the acceptance/rejection step that keeps the output uniform on P ∩ Q.
//
//   - Lazy exploration: the query frontier stops at fully-contained
//     subtrees and at small boundary subtrees, never expanding them up
//     front. A part's subtree is read in full (one sequential range
//     report, then served from memory) only when sampling pressure
//     exhausts its stored buffer — which happens with probability
//     proportional to how many samples actually land in it, so subtrees
//     the sample stream never reaches are never read at all.
//
// Drawing k samples touches the frontier node pages repeatedly instead of
// k random leaf pages, so with any reasonable buffer pool the I/O cost
// stays near O(r(N) + k/B) versus RandomPath's Ω(k) (paper Figure 3a),
// and is bounded by one full range report no matter how large k grows.
//
// # Concurrency
//
// The index splits its state into a shared-immutable part and a
// query-local part. The tree structure and the published per-node sample
// buffers are shared and never mutated in place: a stale buffer (node
// version moved past the buffer's) or a pending leaf is generated off to
// the side and published with an atomic swap, and its contents are a pure
// function of (index seed, node page, node version), so racing generations
// produce byte-identical buffers and either publication is correct.
// Everything a query mutates — the frontier, Fenwick weights, per-part
// permutation cursors, the consumed set, materialized part contents — lives
// in the Sampler. Any number of Samplers may therefore run concurrently against
// one Index. Mutations (InsertBatch, Delete) must still be serialized
// against in-flight samplers by the caller; package engine does this with
// a per-dataset RWMutex.
package rstree

import (
	"fmt"
	"sort"
	"sync/atomic"

	"storm/internal/data"
	"storm/internal/geo"
	"storm/internal/iosim"
	"storm/internal/rtree"
	"storm/internal/stats"
)

// Config controls RS-tree construction.
type Config struct {
	// Fanout is the underlying Hilbert R-tree fanout; 0 means
	// rtree.DefaultFanout.
	Fanout int
	// BufferSize is the per-node sample buffer size; 0 means Fanout.
	BufferSize int
	// Device charges page accesses; nil disables accounting.
	Device iosim.Accountant
	// Bounds is the coordinate space for Hilbert quantization; unset, the
	// build entries' MBR (rtree.Config.Bounds).
	Bounds geo.Rect
	// Seed drives buffer generation randomness.
	Seed int64
}

// Index is an RS-tree over a point set. Any number of Samplers may run
// against one Index concurrently: cached node buffers are immutable once
// published and regenerated copy-on-write (see the package comment).
// InsertBatch and Delete must be externally serialized against in-flight
// samplers.
type Index struct {
	cfg  Config
	tree *rtree.Tree
	// regens counts lazy buffer regenerations (a stale or absent S(u)
	// rebuilt by a query). Atomic: concurrent queries race to regenerate
	// the same buffer, and each racer's build counts — the duplicated
	// work is exactly what this metric makes visible.
	regens atomic.Uint64
}

// BufferRegens returns how many per-node sample buffers queries have had to
// regenerate since the index was built — update invalidation pressure.
// Buffers the build wrote, and leaf buffers it left pending that a first
// read fills, do not count, so a freshly built index reports 0.
func (x *Index) BufferRegens() uint64 { return x.regens.Load() }

// leafFills counts leaf buffers generated in this process: pending leaves
// filled on first read and regenerated leaves alike. It is process-wide, not
// per index, so a benchmark can read it across builds whose indexes it
// cannot reach (a shard host's).
var leafFills atomic.Uint64

// LeafFills returns how many leaf sample buffers this process has generated,
// by a first read or a regeneration. A build generates none, so the count
// does not move across one.
func LeafFills() uint64 { return leafFills.Load() }

// Build constructs an RS-tree over the given entries.
func Build(entries []data.Entry, cfg Config) (*Index, error) {
	return build(entries, cfg, (*rtree.Tree).BulkLoad)
}

// BuildSorted is Build over entries already in STR order at cfg.Fanout
// (rtree.STROrder), for callers that sort once and pack several trees from
// the one order — the engine's RS-tree and LS-tree level 0, a shard's
// replicas. It skips Build's sort and is otherwise identical: the same
// input order yields the same pages, buffers and device charges. sorted is
// not retained.
func BuildSorted(sorted []data.Entry, cfg Config) (*Index, error) {
	return build(sorted, cfg, (*rtree.Tree).Pack)
}

// build is the shared body of Build and BuildSorted; load fills the fresh
// tree from entries.
func build(entries []data.Entry, cfg Config, load func(*rtree.Tree, []data.Entry)) (*Index, error) {
	if cfg.Fanout == 0 {
		cfg.Fanout = rtree.DefaultFanout
	}
	if cfg.BufferSize == 0 {
		cfg.BufferSize = cfg.Fanout
	}
	if cfg.BufferSize < 2 {
		return nil, fmt.Errorf("rstree: BufferSize must be at least 2")
	}
	if cfg.Device == nil {
		cfg.Device = iosim.Discard
	}
	t, err := rtree.New(rtree.Config{Fanout: cfg.Fanout, Device: cfg.Device, Bounds: cfg.Bounds})
	if err != nil {
		return nil, fmt.Errorf("rstree: %w", err)
	}
	load(t, entries)
	idx := &Index{cfg: cfg, tree: t}
	idx.precomputeBuffers()
	return idx, nil
}

// bufferGrain is the fewest nodes worth a goroutine of their own when
// buffers are precomputed; smaller trees generate inline.
const bufferGrain = 32

// precomputeBuffers writes the build's sample buffers, as the on-disk layout
// would: S(u) is written next to each internal node u once. A leaf's buffer
// holds every entry of the leaf, so writing it would copy the whole dataset
// a second time, and a query reads one only when the root is a leaf (its
// frontier stops at the leaf-parent level, see Sampler); the build charges the
// leaf page the generation reads and publishes a pending marker at the
// leaf's version, and the first read fills the buffer (stored). A buffer is
// a pure function of (index seed, node page, node version), so the nodes are
// handled in parallel chunks of the pre-order walk; what has an order is the
// page reads, and a shared device still sees those node by node in
// pre-order: each worker records the pages it read and the records are
// replayed in chunk order. With nothing to share the order with — one
// chunk, or no accounting — the tree's device is charged directly and
// nothing is recorded.
func (x *Index) precomputeBuffers() {
	var nodes []*rtree.Node
	var walk func(n *rtree.Node)
	walk = func(n *rtree.Node) {
		nodes = append(nodes, n)
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(x.tree.Root())

	dev := x.tree.Device()
	logs := rtree.MapChunks(len(nodes), bufferGrain, func(lo, hi int) pageLog {
		var log pageLog
		acct := dev
		// A chunk short of the whole list has siblings running beside it.
		if hi-lo < len(nodes) && dev != iosim.Discard {
			acct = &log
		}
		// Markers are immutable, so leaves of one version share one.
		var pending *buffer
		for _, n := range nodes[lo:hi] {
			if !n.IsLeaf() {
				x.generate(n, acct)
				continue
			}
			if n.Count() > 0 {
				acct.Access(n.PageID()) // what generating the leaf buffer reads
			}
			if pending == nil || pending.version != n.Version() {
				pending = &buffer{version: n.Version(), pending: true}
			}
			n.SetAux(pending)
		}
		return log
	})
	for _, log := range logs {
		for _, p := range log {
			dev.Access(p)
		}
	}
}

// pageLog is the accountant one precompute worker generates against: it
// records the pages read, in order, for replay to the shared device.
type pageLog []iosim.PageID

func (l *pageLog) Access(p iosim.PageID) bool { *l = append(*l, p); return true }
func (l *pageLog) Write(iosim.PageID)         {}
func (l *pageLog) Invalidate(iosim.PageID)    {}

func (l *pageLog) AccessBatch(pages []iosim.PageID, counts []int) uint64 {
	var n uint64
	for i, p := range pages {
		for j := 0; j < counts[i]; j++ {
			*l = append(*l, p)
			n++
		}
	}
	return n
}

// Tree exposes the underlying Hilbert R-tree (for counting, reporting and
// structural tests).
func (x *Index) Tree() *rtree.Tree { return x.tree }

// Len returns the number of indexed records.
func (x *Index) Len() int { return x.tree.Len() }

// Count returns |P ∩ q| exactly.
func (x *Index) Count(q geo.Rect) int { return x.tree.Count(q) }

// InsertBatch adds records, one or many, as Hilbert-sorted runs (see
// rtree.Tree.InsertBatch). The entries slice is reordered in place. Buffers
// along the touched paths are invalidated by the node version bump and
// regenerated lazily by the next query.
func (x *Index) InsertBatch(entries []data.Entry) { x.tree.InsertBatch(entries) }

// Delete removes a record, returning true if it existed.
func (x *Index) Delete(e data.Entry) bool { return x.tree.Delete(e) }

// buffer is the cached per-node sample attachment. Once published through
// Node.SetAux it is immutable: generation builds a fresh buffer and swaps
// it in, so concurrent queries reading the old one are never disturbed.
type buffer struct {
	version uint64
	entries []data.Entry // uniform without-replacement sample, random order
	// pending marks a leaf buffer the build charged but did not generate:
	// entries is nil until a read fills it (stored).
	pending bool
}

// StoredBuffer returns the sample buffer stored with n, in stored order, or
// nil when n has none or its buffer is stale. Unlike a query's read it
// charges nothing and regenerates nothing; a leaf the build left pending is
// filled, as its first read would.
func (x *Index) StoredBuffer(n *rtree.Node) []data.Entry {
	ent, _ := x.stored(n)
	return ent
}

// stored returns n's buffer for its current version, filling it first when
// the build left it pending, or ok=false when n has none or it is stale.
// The fill charges nothing (the build charged the page it reads) and is not
// a regeneration.
func (x *Index) stored(n *rtree.Node) (entries []data.Entry, ok bool) {
	b, _ := n.Aux().(*buffer)
	if b == nil || b.version != n.Version() {
		return nil, false
	}
	if b.pending {
		return x.generate(n, iosim.Discard), true
	}
	return b.entries, true
}

// bufferSeed derives the RNG seed for generating node n's buffer at its
// current version. Making the seed — and therefore the buffer contents — a
// pure function of (index seed, node page, node version) gives two
// guarantees at once: racing regenerations by concurrent queries produce
// identical buffers (so an atomic last-write-wins publish is correct), and
// a query's sample stream depends only on its own RNG, never on which
// other queries happened to touch the cache first (seed reproducibility).
// The mixing is splitmix64-style so nearby pages and versions decorrelate.
func (x *Index) bufferSeed(n *rtree.Node) int64 {
	z := uint64(x.cfg.Seed) ^ uint64(n.PageID())*0x9E3779B97F4A7C15 ^ n.Version()*0xBF58476D1CE4E5B9
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z >> 1)
}

// bufferFor returns node n's sample buffer, regenerating it when the node
// has changed since the buffer was built. Reading the buffer charges one
// access of the node's page (the buffer is stored with the node); the
// charge and any regeneration I/O go to acct, the accountant of whichever
// query triggered the read. Regeneration is generate-then-publish: the new
// buffer is built off to the side and swapped in atomically, never mutating
// the previously published one.
func (x *Index) bufferFor(n *rtree.Node, acct iosim.Accountant) []data.Entry {
	if ent, ok := x.stored(n); ok {
		return ent
	}
	x.regens.Add(1)
	return x.generate(n, acct)
}

// generate builds and publishes node n's buffer for its current version,
// charging acct for the pages the generating descent reads.
func (x *Index) generate(n *rtree.Node, acct iosim.Accountant) []data.Entry {
	s := x.cfg.BufferSize
	if n.IsLeaf() {
		// Leaf buffers hold every entry (in random order): the leaf is
		// the explosion base case, so its buffer must be exhaustive.
		s = n.Count()
		leafFills.Add(1)
	}
	ent := x.sampleSubtree(n, s, acct)
	n.SetAux(&buffer{version: n.Version(), entries: ent})
	return ent
}

// sampleSubtree draws a uniform without-replacement sample of size at most
// s from the points below n, in random order. It works by drawing s
// distinct positions in the subtree's canonical enumeration (children in
// order, then leaf entries in order) and descending only into children that
// own a drawn position, so generation costs O(s · height) node visits. The
// randomness comes from a pooled RNG reseeded by (node, version), so the
// result is deterministic for a given tree state.
func (x *Index) sampleSubtree(n *rtree.Node, s int, acct iosim.Accountant) []data.Entry {
	count := n.Count()
	if count == 0 {
		return nil
	}
	if s > count {
		s = count
	}
	rng := rngPool.Get().(*stats.RNG)
	rng.Reseed(x.bufferSeed(n))
	box := distinctPositions(rng, count, s)
	positions := *box
	if s < count { // s == count comes back as 0..count-1 already
		sort.Ints(positions)
	}
	out := make([]data.Entry, 0, s)
	x.collectPositions(n, positions, 0, &out, acct)
	intPool.put(box)
	// The positions were sorted for the descent; shuffle the collected
	// entries so the buffer order is uniform.
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	rngPool.Put(rng)
	return out
}

// distinctPositions returns s distinct uniform values in [0, count) in a
// pooled slice (return the box with intPool.put). When s == count — every
// leaf buffer — the values are all of [0, count), returned in order: the
// partial Fisher–Yates still makes its count Intn draws, so the RNG is left
// exactly where the shuffle that follows expects it, but the swaps, whose
// order the caller would sort away, are skipped.
func distinctPositions(rng *stats.RNG, count, s int) *[]int {
	if s*2 >= count {
		// Dense case: partial Fisher–Yates over the full range.
		box := intPool.get(count)
		all := *box
		for i := range all {
			all[i] = i
		}
		for i := 0; i < s; i++ {
			j := i + rng.Intn(count-i)
			if s < count {
				all[i], all[j] = all[j], all[i]
			}
		}
		*box = all[:s]
		return box
	}
	seen := make(map[int]struct{}, s)
	box := intPool.get(s)
	out := (*box)[:0]
	for len(out) < s {
		p := rng.Intn(count)
		if _, dup := seen[p]; dup {
			continue
		}
		seen[p] = struct{}{}
		out = append(out, p)
	}
	*box = out
	return box
}

// collectPositions resolves sorted subtree positions to entries, charging
// visited pages to acct. positions are absolute within the subtree whose
// enumeration starts at base; passing the offset down instead of copying
// re-based sub-slices keeps the descent allocation-free.
func (x *Index) collectPositions(n *rtree.Node, positions []int, base int, out *[]data.Entry, acct iosim.Accountant) {
	if len(positions) == 0 {
		return
	}
	acct.Access(n.PageID())
	if n.IsLeaf() {
		entries := n.Entries()
		for _, p := range positions {
			*out = append(*out, entries[p-base])
		}
		return
	}
	lo := base
	idx := 0
	for _, c := range n.Children() {
		hi := lo + c.Count()
		start := idx
		for idx < len(positions) && positions[idx] < hi {
			idx++
		}
		if idx > start {
			x.collectPositions(c, positions[start:idx], lo, out, acct)
		}
		lo = hi
		if idx == len(positions) {
			break
		}
	}
}

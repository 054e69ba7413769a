// Package rstree implements STORM's second and primary sampling index, the
// RS-tree: a single Hilbert R-tree (package rtree, the tree under every
// index) augmented with per-node sample buffers.
//
// Where the LS-tree maintains O(log N) separate trees, the RS-tree keeps
// one tree and attaches to every internal node u a buffer S(u): a uniform
// without-replacement sample of the points below u, stored in random order.
// The paper's three ideas map onto this implementation as follows:
//
//   - Sample buffering: S(u) is stored with the node (as its on-disk page
//     layout would), tagged with the node's version so updates invalidate
//     it and the next query regenerates it lazily. Its size is the tree
//     fanout, so a buffer occupies about one disk page alongside its node.
//     Leaves carry none: a query's frontier stops at the leaf-parent
//     level, so the only leaf it can draw from is a root leaf, which it
//     reads whole (see Sampler).
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
// version moved past the buffer's), or one a split-created node lacks, is
// generated off to the side and published with an atomic swap, and its
// contents are a pure function of (index seed, node page, node version), so
// racing generations produce byte-identical buffers and either publication
// is correct.
// Everything a query mutates — the frontier, Fenwick weights, per-part
// permutation cursors, the consumed set, materialized part contents — lives
// in the Sampler. Any number of Samplers may therefore run concurrently against
// one Index. Mutations (InsertBatch, Delete) must still be serialized
// against in-flight samplers by the caller; package engine does this with
// a per-dataset RWMutex.
package rstree

import (
	"fmt"
	"slices"
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
// Buffers the build wrote do not count, so a freshly built index reports 0.
func (x *Index) BufferRegens() uint64 { return x.regens.Load() }

// Build constructs an RS-tree over the given entries: BuildSorted over
// their STR order (rtree.STROrder). entries is not retained.
func Build(entries []data.Entry, cfg Config) (*Index, error) {
	return BuildSorted(rtree.STROrder(cfg.Fanout, entries)[0], cfg)
}

// BuildSorted is Build over entries already in STR order at cfg.Fanout, for
// callers that sort otherwise — the engine from the dataset's columns
// (rtree.STROrderDataset, its Bounds as cfg.Bounds), a shard host the
// window of that order a coordinator's Build names. It takes sorted over (rtree.Tree.Pack). The same input
// order yields the same pages, buffers and device charges.
func BuildSorted(sorted []data.Entry, cfg Config) (*Index, error) {
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
	t.Pack(sorted)
	idx := &Index{cfg: cfg, tree: t}
	idx.precomputeBuffers()
	return idx, nil
}

// precomputeBuffers writes the build's sample buffers, as the on-disk layout
// would: S(u) is written next to each internal node u once, in pre-order,
// each generation's page reads charged to the tree's device. A 500 k-record
// fanout-64 tree has 126 internal nodes, about a millisecond of generation,
// so nothing is gained by spreading them across Ps.
func (x *Index) precomputeBuffers() {
	dev := x.tree.Device()
	var walk func(n *rtree.Node)
	walk = func(n *rtree.Node) {
		if n.IsLeaf() {
			return
		}
		x.generate(n, dev)
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(x.tree.Root())
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
}

// StoredBuffer returns the sample buffer stored with n, in stored order, or
// nil when n has none (every leaf) or its buffer is stale. Unlike a query's
// read it charges nothing and regenerates nothing.
func (x *Index) StoredBuffer(n *rtree.Node) []data.Entry {
	ent, _ := stored(n)
	return ent
}

// stored returns n's buffer for its current version, or ok=false when n has
// none or it is stale.
func stored(n *rtree.Node) (entries []data.Entry, ok bool) {
	b, _ := n.Aux().(*buffer)
	if b == nil || b.version != n.Version() {
		return nil, false
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

// bufferFor returns internal node n's sample buffer, regenerating it when
// the node has changed since the buffer was built. A stored read charges
// nothing here: the buffer lives on the node's page, which the query
// charges on each draw from it (Sampler.next). A regeneration charges acct,
// the accountant of whichever query triggered it, for the pages its descent
// reads. Regeneration is generate-then-publish: the new buffer is built off
// to the side and swapped in atomically, never mutating the previously
// published one.
func (x *Index) bufferFor(n *rtree.Node, acct iosim.Accountant) []data.Entry {
	if ent, ok := stored(n); ok {
		return ent
	}
	x.regens.Add(1)
	return x.generate(n, acct)
}

// generate builds and publishes internal node n's buffer for its current
// version, charging acct for the pages the generating descent reads.
func (x *Index) generate(n *rtree.Node, acct iosim.Accountant) []data.Entry {
	ent := x.sampleSubtree(n, acct)
	n.SetAux(&buffer{version: n.Version(), entries: ent})
	return ent
}

// sampleSubtree draws a uniform without-replacement sample of at most
// BufferSize points below n, in random order. It works by drawing s
// distinct positions in the subtree's canonical enumeration (children in
// order, then leaf entries in order) and descending only into children that
// own a drawn position, so generation costs O(s · height) node visits. The
// randomness comes from an RNG seeded by (node, version), so the result is
// deterministic for a given tree state.
func (x *Index) sampleSubtree(n *rtree.Node, acct iosim.Accountant) []data.Entry {
	count := n.Count()
	if count == 0 {
		return nil
	}
	s := min(x.cfg.BufferSize, count)
	rng := stats.NewRNG(x.bufferSeed(n))
	box := distinctPositions(rng, count, s)
	positions := *box
	slices.Sort(positions)
	out := make([]data.Entry, 0, s)
	x.collectPositions(n, positions, 0, &out, acct)
	intPool.put(box)
	// The positions were sorted for the descent; shuffle the collected
	// entries so the buffer order is uniform.
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// distinctPositions returns s distinct uniform values in [0, count) in a
// pooled slice (return the box with intPool.put).
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
			all[i], all[j] = all[j], all[i]
		}
		*box = all[:s]
		return box
	}
	// Sparse case: rejection of repeats. s is about a page of entries, so a
	// linear membership test is cheap where a set would allocate.
	box := intPool.get(s)
	out := (*box)[:0]
	for len(out) < s {
		if p := rng.Intn(count); !slices.Contains(out, p) {
			out = append(out, p)
		}
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

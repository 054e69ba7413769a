// Package rtree implements the disk-aware R-tree substrate underneath
// STORM's sampling indexes: one Hilbert R-tree (Kamel & Faloutsos, VLDB
// 1994), the only kind of tree in the system.
//
// Every leaf entry carries its Hilbert value (cached beside the entry) and
// every node the largest value below it (its LHV). Inserts, one record or
// many, go through InsertBatch: each key goes to the first child whose LHV
// covers it, runs merge in Hilbert order, and overflowing nodes split into
// evenly filled siblings. Bulk loads pack STR order; the keys and LHVs are
// exact either way, so a packed tree stays insertable. The tree also
// supports deletes, range reporting, exact range counting via per-node
// subtree counts, and canonical-set computation. Every node is mapped to a
// page of a simulated block device (package iosim), so traversals produce
// the I/O counts that the paper's Figure 3(a) compares across sampling
// methods.
//
// Each node additionally stores the cardinality of its subtree. Subtree
// counts are what make weighted random descent (Olken's RandomPath) and the
// RS-tree's acceptance/rejection node sampling possible, and they give
// O(log N)-node exact range counts for query planning.
//
// # Concurrency
//
// A Tree is safe for any number of concurrent readers: traversal accessors
// (Root, Children, Entries, Count, MBR, Version, Search, ReportAll,
// Canonical) never mutate tree structure, and the per-node Aux attachment
// is published through an atomic pointer so readers may regenerate and
// re-publish derived per-node state (the RS-tree's sample buffers) while
// other readers are traversing. Mutations (InsertBatch, Delete, BulkLoad, Pack) must
// be externally serialized against all readers — package engine does this
// with a per-dataset RWMutex.
package rtree

import (
	"fmt"
	"sync"
	"sync/atomic"

	"storm/internal/data"
	"storm/internal/geo"
	"storm/internal/hilbert"
	"storm/internal/iosim"
)

// DefaultFanout is the default maximum number of entries (or children) per
// node. With ~32-byte leaf entries this models a 2 KiB page; the benchmark
// harness overrides it to explore other block sizes.
const DefaultFanout = 64

// Config controls tree shape and I/O accounting.
type Config struct {
	// Fanout is the maximum entries per node (>= 4).
	Fanout int
	// Device charges page accesses; nil means no accounting.
	Device iosim.Accountant
	// Bounds is the coordinate space Hilbert values are quantized over;
	// out-of-box coordinates clamp. When unset, a bulk load or pack
	// quantizes over its entries' MBR, and a tree that has only seen
	// inserts over the unit box (HilbertBounds is the rule).
	Bounds geo.Rect
}

func (c Config) withDefaults() Config {
	if c.Fanout == 0 {
		c.Fanout = DefaultFanout
	}
	if c.Device == nil {
		c.Device = iosim.Discard
	}
	return c
}

// curve is the Hilbert curve of every key: order 16, i.e. 16 bits per
// dimension.
var curve = hilbert.MustNew(geo.Dims, 16)

// HilbertBounds is the one rule for the box Hilbert values are quantized
// over: bounds when set, else the MBR of entries, else the unit box (no
// entries, or every one at the origin). A box is unset when it is empty or
// the zero Rect.
func HilbertBounds(bounds geo.Rect, entries []data.Entry) geo.Rect {
	unset := func(r geo.Rect) bool { return r.IsEmpty() || r == (geo.Rect{}) }
	if unset(bounds) {
		bounds = EntryBounds(entries)
	}
	if unset(bounds) {
		bounds = geo.NewRect(geo.Vec{0, 0, 0}, geo.Vec{1, 1, 1})
	}
	return bounds
}

// NewQuantizer returns the quantizer that maps positions in b (a box
// HilbertBounds returned) onto the curve every tree keys its entries with.
func NewQuantizer(b geo.Rect) *hilbert.Quantizer {
	q, err := hilbert.NewQuantizer(curve, b.Min[:], b.Max[:])
	if err != nil {
		// Only an inverted box fails, and HilbertBounds never returns one.
		panic(fmt.Sprintf("rtree: %v", err))
	}
	return q
}

// Node is an R-tree node. Leaves hold data entries; internal nodes hold
// children. Fields are unexported; samplers use the accessor methods.
type Node struct {
	page     iosim.PageID
	leaf     bool
	mbr      geo.Rect
	count    int // data entries in this subtree
	lhv      uint64
	version  uint64 // bumped when subtree contents change
	children []*Node
	entries  []data.Entry
	// keys caches the Hilbert value of each leaf entry, index-parallel to
	// entries (nil for internal nodes). The quantizer walk
	// costs hundreds of nanoseconds, and without the cache a single insert
	// recomputes it O(log fanout) times inside the placement search — the
	// streaming drain path is insert-rate-bound on exactly that.
	keys []uint64
	// aux is the per-node attachment used by the RS-tree sample buffers.
	// It is read and published atomically so concurrent queries can
	// regenerate a stale buffer without racing each other: generation
	// happens off to the side, then the finished value is swapped in.
	aux atomic.Value
	// attrs caches the subtree's per-attribute digests (see Summaries),
	// keyed by version like the RS-tree buffers: any mutation along the
	// node's path bumps version, invalidating the cache, and racing
	// recomputes publish identical values (the digest is a pure function
	// of subtree contents under the reader lock).
	attrs atomic.Pointer[nodeAttrs]
}

// IsLeaf reports whether n is a leaf node.
func (n *Node) IsLeaf() bool { return n.leaf }

// MBR returns the node's minimum bounding rectangle.
func (n *Node) MBR() geo.Rect { return n.mbr }

// Count returns the number of data entries in the subtree rooted at n.
func (n *Node) Count() int { return n.count }

// Children returns the children of an internal node (nil for leaves).
func (n *Node) Children() []*Node { return n.children }

// Entries returns the data entries of a leaf node (nil for internal nodes).
func (n *Node) Entries() []data.Entry { return n.entries }

// LHV returns the largest Hilbert value of any entry below n.
func (n *Node) LHV() uint64 { return n.lhv }

// HilbertKeys returns a leaf's cached Hilbert values, index-parallel to
// Entries (nil for internal nodes). Read-only.
func (n *Node) HilbertKeys() []uint64 { return n.keys }

// Version returns a counter that changes whenever the subtree's contents
// change; the RS-tree uses it to detect stale sample buffers.
func (n *Node) Version() uint64 { return n.version }

// Aux returns the auxiliary attachment set by SetAux, or nil. It is safe
// to call concurrently with SetAux.
func (n *Node) Aux() any { return n.aux.Load() }

// SetAux attaches auxiliary per-node state (e.g. an RS-tree sample buffer).
// The value is published atomically: concurrent readers observe either the
// previous attachment or the new one, never a torn mix. Every attachment of
// one node must be non-nil and of one concrete type (sync/atomic.Value's
// rule), and published values are immutable — to change one, build a
// replacement and SetAux it. Storing a pointer allocates nothing.
func (n *Node) SetAux(v any) { n.aux.Store(v) }

// PageID returns the simulated page this node occupies.
func (n *Node) PageID() iosim.PageID { return iosim.PageID(n.page) }

// Tree is a dynamic R-tree over point data.
type Tree struct {
	cfg      Config
	root     *Node
	size     int
	height   int // number of levels; 1 = root is a leaf
	nextPage iosim.PageID
	quant    *hilbert.Quantizer
	minFill  int
	// descents recycles the batchers Count and CountWhere charge through.
	descents sync.Pool
}

// New returns an empty tree with the given configuration.
func New(cfg Config) (*Tree, error) {
	cfg = cfg.withDefaults()
	if cfg.Fanout < 4 {
		return nil, fmt.Errorf("rtree: fanout %d too small (min 4)", cfg.Fanout)
	}
	t := &Tree{
		cfg:     cfg,
		minFill: cfg.Fanout * 2 / 5,
	}
	if t.minFill < 1 {
		t.minFill = 1
	}
	t.quant = NewQuantizer(HilbertBounds(cfg.Bounds, nil))
	t.root = t.newNode(true)
	t.height = 1
	return t, nil
}

// MustNew is New for configurations known to be valid.
func MustNew(cfg Config) *Tree {
	t, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

func (t *Tree) newNode(leaf bool) *Node {
	t.nextPage++
	return &Node{page: t.nextPage, leaf: leaf, mbr: geo.EmptyRect()}
}

// Len returns the number of data entries in the tree.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels (1 = root is a leaf).
func (t *Tree) Height() int { return t.height }

// Root returns the root node; samplers traverse from here. The caller must
// charge page accesses through Charge as it descends.
func (t *Tree) Root() *Node { return t.root }

// Fanout returns the maximum entries per node.
func (t *Tree) Fanout() int { return t.cfg.Fanout }

// Bounds returns the MBR of all indexed entries.
func (t *Tree) Bounds() geo.Rect { return t.root.mbr }

// Charge accounts one logical page access for visiting n.
func (t *Tree) Charge(n *Node) { t.cfg.Device.Access(n.page) }

// Device returns the accountant the tree charges page accesses to. Samplers
// use it as the default target when no per-query accountant is attached.
func (t *Tree) Device() iosim.Accountant { return t.cfg.Device }

// chargeWrite accounts a page write for n.
func (t *Tree) chargeWrite(n *Node) { t.cfg.Device.Write(n.page) }

// hilbertValue returns the Hilbert value of p.
func (t *Tree) hilbertValue(p geo.Vec) uint64 {
	return t.quant.Value3(p[0], p[1], p[2])
}

// quantizeFor sets the quantizer a bulk load or pack of entries keys its
// leaves with: the configured bounds when set, else the entries' own MBR.
// The load replaces every key in the tree, so none is left stale.
func (t *Tree) quantizeFor(entries []data.Entry) {
	t.quant = NewQuantizer(HilbertBounds(t.cfg.Bounds, entries))
}

// NodeCount returns the total number of nodes, walking the whole tree.
// Intended for tests and benchmarks, not hot paths.
func (t *Tree) NodeCount() int {
	var count func(n *Node) int
	count = func(n *Node) int {
		c := 1
		for _, ch := range n.children {
			c += count(ch)
		}
		return c
	}
	return count(t.root)
}

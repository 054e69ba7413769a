// Per-node attribute summaries and predicate-pruned traversal.
//
// A Summaries attaches min/max/has-NaN digests of every numeric attribute
// to the tree's nodes, cached in a version-keyed per-node slot exactly
// like the RS-tree's sample buffers: inserts, deletes and splits already
// bump node versions along the mutated path, so a stale digest is
// recomputed on demand from its children (internal nodes, O(fanout)
// merges) or by scanning leaf entries against the dataset columns. The
// digests are therefore always tight — never widened conservatively by
// updates — and the update path needs no changes at all.
//
// A TreeFilter binds a compiled predicate to a tree's Summaries and gives
// traversals the three-valued verdict of package pred: None prunes the
// subtree (no record under it can satisfy the predicate), All skips
// per-record checks, Maybe tests records individually. CountWhere and
// ReportAllWhereTo are the pruned counterparts of Count and ReportAll.
package rtree

import (
	"math"
	"sort"

	"storm/internal/data"
	"storm/internal/geo"
	"storm/internal/iosim"
	"storm/internal/pred"
)

// AttrSource resolves a dataset's numeric columns for summary
// (re)computation; *data.Dataset satisfies it. Columns are re-fetched at
// every recompute because append reallocates the backing slices.
type AttrSource interface {
	// NumericColumns names the numeric columns.
	NumericColumns() []string
	// NumericColumn returns the backing slice of one column.
	NumericColumn(name string) ([]float64, error)
}

// nodeAttrs is the version-keyed per-node digest cache.
type nodeAttrs struct {
	version uint64
	stats   []pred.AttrStats
	// vals holds a leaf's values of each summarized attribute in entry
	// order (nil for internal nodes), so a Maybe leaf tests its predicate
	// over contiguous memory instead of gathering col[id] per entry. An
	// unresolvable value is NaN, which no term contains — exactly
	// pred.Compiled.Match's rule for an ID past the column.
	vals [][]float64
}

// precomputeGrain is the fewest leaves one Precompute chunk scans.
const precomputeGrain = 64

// Summaries maintains per-node attribute digests for one tree. Digests
// are computed lazily per node and cached against the node's version;
// Precompute warms the whole tree (bulk-load/pack time). Safe for
// concurrent readers under the same discipline as the tree itself:
// queries run under the dataset read lock, mutations under the write
// lock.
type Summaries struct {
	tree  *Tree
	src   AttrSource
	attrs []string
	index map[string]int
}

// NewSummaries builds the summary maintainer for t over src's numeric
// columns (sorted by name, fixing each attribute's digest index).
func NewSummaries(t *Tree, src AttrSource) *Summaries {
	names := append([]string(nil), src.NumericColumns()...)
	sort.Strings(names)
	index := make(map[string]int, len(names))
	for i, n := range names {
		index[n] = i
	}
	return &Summaries{tree: t, src: src, attrs: names, index: index}
}

// Attrs returns the summarized attribute names (sorted).
func (s *Summaries) Attrs() []string { return s.attrs }

// AttrIndex returns an attribute's index into per-node digest slices.
func (s *Summaries) AttrIndex(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// Precompute computes and caches every node's digests and leaf values —
// the bulk-load/pack-time rebuild, mirroring the RS-tree's buffer
// precompute. Each attribute's leaf values share one slab in leaf order;
// leaves are scanned in MapChunks chunks, then internal nodes merge their
// children's digests in child order.
func (s *Summaries) Precompute() {
	if s.tree.root == nil || len(s.attrs) == 0 {
		return
	}
	var leaves []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.leaf {
			leaves = append(leaves, n)
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(s.tree.root)
	starts := make([]int, len(leaves)+1)
	for i, n := range leaves {
		starts[i+1] = starts[i] + len(n.entries)
	}
	cols := s.columns()
	slabs := make([][]float64, len(cols))
	for a := range slabs {
		slabs[a] = make([]float64, starts[len(leaves)])
	}
	k := len(cols)
	MapChunks(len(leaves), precomputeGrain, func(lo, hi int) struct{} {
		recs := make([]nodeAttrs, hi-lo)
		stats := make([]pred.AttrStats, (hi-lo)*k)
		vals := make([][]float64, (hi-lo)*k)
		for i := lo; i < hi; i++ {
			r, j := &recs[i-lo], (i-lo)*k
			r.version = leaves[i].version
			r.stats, r.vals = stats[j:j+k:j+k], vals[j:j+k:j+k]
			for a, slab := range slabs {
				r.vals[a] = slab[starts[i]:starts[i+1]:starts[i+1]]
			}
			scanLeaf(leaves[i], cols, r)
			leaves[i].attrs.Store(r)
		}
		return struct{}{}
	})
	s.Stats(s.tree.root)
}

// Stats returns n's per-attribute digests (indexed per AttrIndex),
// recomputing and re-caching them if the node's version moved since the
// cached copy.
func (s *Summaries) Stats(n *Node) []pred.AttrStats {
	return s.cached(n).stats
}

// cached returns n's digest record, recomputing it when stale.
func (s *Summaries) cached(n *Node) *nodeAttrs {
	if c := n.attrs.Load(); c != nil && c.version == n.version {
		return c
	}
	c := s.compute(n)
	n.attrs.Store(c)
	return c
}

// Root returns the whole tree's digests — the dataset-level envelope the
// planner estimates selectivity from. Nil when nothing is summarized.
func (s *Summaries) Root() []pred.AttrStats {
	if s.tree.root == nil || len(s.attrs) == 0 {
		return nil
	}
	return s.Stats(s.tree.root)
}

// RootStats resolves one attribute's tree-level digest.
func (s *Summaries) RootStats(attr string) (pred.AttrStats, bool) {
	i, ok := s.index[attr]
	if !ok {
		return pred.AttrStats{}, false
	}
	root := s.Root()
	if root == nil {
		return pred.AttrStats{}, false
	}
	return root[i], true
}

// compute builds n's digest record from scratch: leaf entries are scanned
// against the current columns, internal nodes merge their children's
// (cached or recomputed) digests.
func (s *Summaries) compute(n *Node) *nodeAttrs {
	k := len(s.attrs)
	r := &nodeAttrs{version: n.version, stats: make([]pred.AttrStats, k)}
	if n.leaf {
		m := len(n.entries)
		slab := make([]float64, k*m)
		r.vals = make([][]float64, k)
		for a := range r.vals {
			r.vals[a] = slab[a*m : (a+1)*m : (a+1)*m]
		}
		scanLeaf(n, s.columns(), r)
		return r
	}
	for i := range r.stats {
		r.stats[i] = pred.EmptyStats()
	}
	for _, c := range n.children {
		cst := s.Stats(c)
		for i := range r.stats {
			r.stats[i].Merge(cst[i])
		}
	}
	return r
}

// columns resolves the current backing slice of every summarized
// attribute, nil where the source no longer resolves it.
func (s *Summaries) columns() [][]float64 {
	cols := make([][]float64, len(s.attrs))
	for i, name := range s.attrs {
		if col, err := s.src.NumericColumn(name); err == nil {
			cols[i] = col
		}
	}
	return cols
}

// scanLeaf fills r's digests and leaf values from leaf n's entries
// against cols. An unresolvable value (no column, or an ID past it) is
// NaN: the digest can still prune by envelope but never claims All.
func scanLeaf(n *Node, cols [][]float64, r *nodeAttrs) {
	for a, col := range cols {
		st, vals := pred.EmptyStats(), r.vals[a]
		for i, e := range n.entries {
			v := math.NaN()
			if e.ID < data.ID(len(col)) {
				v = col[e.ID]
			}
			vals[i] = v
			st.Add(v)
		}
		r.stats[a] = st
	}
}

// TreeFilter binds a compiled predicate to one tree's Summaries for
// pruned traversal. It is per-query state (the Pruned counter is not
// synchronized); build one per sampler or count.
type TreeFilter struct {
	c    *pred.Compiled
	sums *Summaries
	// idx maps each predicate term to its digest index, -1 when the
	// attribute is not summarized (its verdict is then always Maybe).
	idx []int
	// Pruned counts pruning events: each time a traversal excluded a
	// subtree on a None verdict. Surfaced through SamplerStats into
	// storm.engine.pushdown.pruned_nodes.
	Pruned uint64
}

// NewTreeFilter binds c to sums. A nil sums disables digest pruning (all
// verdicts Maybe); a nil *TreeFilter everywhere means "no predicate".
func NewTreeFilter(c *pred.Compiled, sums *Summaries) *TreeFilter {
	f := &TreeFilter{c: c, sums: sums, idx: make([]int, len(c.Terms()))}
	for i, t := range c.Terms() {
		f.idx[i] = -1
		if sums != nil {
			if j, ok := sums.AttrIndex(t.Attr); ok {
				f.idx[i] = j
			}
		}
	}
	return f
}

// Verdict classifies node n's subtree against the predicate, counting a
// pruning event on None. Nil filters pass everything.
func (f *TreeFilter) Verdict(n *Node) pred.Verdict {
	if f == nil {
		return pred.All
	}
	v := pred.All
	var stats []pred.AttrStats
	for ti, t := range f.c.Terms() {
		i := f.idx[ti]
		if i < 0 || f.sums == nil {
			v = pred.Maybe
			continue
		}
		if stats == nil {
			stats = f.sums.Stats(n)
		}
		switch t.Verdict(stats[i]) {
		case pred.None:
			f.Pruned++
			return pred.None
		case pred.Maybe:
			v = pred.Maybe
		}
	}
	return v
}

// Match reports whether record id satisfies the predicate (nil filters
// match everything).
func (f *TreeFilter) Match(id data.ID) bool {
	if f == nil {
		return true
	}
	return f.c.Match(id)
}

// countLeaf counts the entries of a Maybe leaf n that lie inside q and
// satisfy the predicate, testing only the faces of q that cut the leaf's
// box. When every term's attribute is summarized it tests each term against
// the leaf's values in entry order; otherwise it gathers through Match.
// Both paths count the same records as long as the summaries and the
// predicate resolve the same columns, as every caller's do.
func (f *TreeFilter) countLeaf(n *Node, q *geo.Rect) int {
	es := n.entries
	fc := cutFaces(q, &n.mbr)
	total := 0
	r := f.leafAttrs(n)
	if r == nil {
		for i := range es {
			if fc.in(&es[i].Pos) == 1 && f.Match(es[i].ID) {
				total++
			}
		}
		return total
	}
	// Values first, then position: the values are contiguous and the face
	// test is branch-free. One term is every predicate of the benchmark of
	// record, and CountWhere at a mean-altitude threshold over 500 k
	// records takes about 40 % longer when it runs the general loop below.
	terms := f.c.Terms()
	if len(terms) == 1 {
		t, vs := &terms[0], r.vals[f.idx[0]]
		for i := range es {
			if t.Contains(vs[i]) && fc.in(&es[i].Pos) == 1 {
				total++
			}
		}
		return total
	}
entries:
	for i := range es {
		for ti := range terms {
			if !terms[ti].Contains(r.vals[f.idx[ti]][i]) {
				continue entries
			}
		}
		total += fc.in(&es[i].Pos)
	}
	return total
}

// maskLeaf clears the mask of each entry of leaf n that fails f's
// predicate, the exact plan's counterpart of countLeaf: term by term over
// the leaf's cached values when every term's attribute is summarized, else
// through Match.
func (f *TreeFilter) maskLeaf(n *Node, mask []uint64) {
	r := f.leafAttrs(n)
	if r == nil {
		for i := range n.entries {
			if mask[i] != 0 && !f.Match(n.entries[i].ID) {
				mask[i] = 0
			}
		}
		return
	}
	for ti := range f.c.Terms() {
		t, vs := &f.c.Terms()[ti], r.vals[f.idx[ti]]
		for i := range mask {
			mask[i] &= uint64(b2i(t.Contains(vs[i])))
		}
	}
}

// leafAttrs returns leaf n's digest record, or nil when some term's
// attribute has no digest (or there are no summaries).
func (f *TreeFilter) leafAttrs(n *Node) *nodeAttrs {
	if f.sums == nil {
		return nil
	}
	for _, a := range f.idx {
		if a < 0 {
			return nil
		}
	}
	return f.sums.cached(n)
}

// CountWhere returns the number of entries in q that satisfy f's
// predicate, pruning subtrees whose digests rule the predicate out and
// short-cutting contained subtrees whose digests prove every record
// qualifies. A nil filter counts as Count does, and the descent is charged
// the same way.
func (t *Tree) CountWhere(q geo.Rect, f *TreeFilter) int {
	acct := t.beginDescent()
	defer t.endDescent(acct)
	total := 0
	t.descend(acct, t.root, &q, f, func(n *Node) { total += n.count }, func(n *Node, f *TreeFilter) {
		if f == nil {
			total += countLeaf(n, &q)
		} else {
			total += f.countLeaf(n, &q)
		}
	})
	return total
}

// ReportAllWhereTo returns all entries inside q satisfying f's predicate,
// charging acct (the tree's device when nil), pruning None subtrees during
// the descent. A nil filter reports every entry inside q.
func (t *Tree) ReportAllWhereTo(acct iosim.Accountant, q geo.Rect, f *TreeFilter) []data.Entry {
	if acct == nil {
		acct = t.cfg.Device
	}
	var out []data.Entry
	t.search(acct, t.root, q, f, func(e data.Entry) bool {
		out = append(out, e)
		return true
	})
	return out
}

package rstree

import (
	"storm/internal/data"
	"storm/internal/geo"
	"storm/internal/iosim"
	"storm/internal/pred"
	"storm/internal/rtree"
	"storm/internal/sampling"
	"storm/internal/stats"
)

// part is one active element of a query's canonical decomposition: a
// disjoint subtree from which samples are drawn. An internal part starts in
// buffered state, serving draws from the node's stored sample S(u); if
// sampling pressure exhausts the buffer, the part is *materialized*: its
// subtree is range-reported once (sequential page reads), filtered against
// the query and the already-consumed set, shuffled, and served from memory.
// A leaf part, which only a root leaf can be, starts materialized. Parts are
// never split, so the canonical decomposition stays disjoint by
// construction.
type part struct {
	node *rtree.Node
	// buf is the active sample source: initially the node's stored
	// buffer, after materialization the remaining matching entries.
	buf []data.Entry
	// order is the query-local lazy Fisher–Yates permutation of a stored
	// buffer, which other queries share and which therefore stays in stored
	// order; nil before the first draw and once the part is materialized.
	order  *[]int
	cursor int
	// own is the pool box behind buf once the part is materialized, nil
	// before: buf then holds the exact remaining entries, belongs to this
	// part alone and is shuffled in place.
	own *[]data.Entry
	// contained marks a subtree entirely inside the query: its draws are
	// accepted without a per-entry containment test.
	contained bool
	// predAll marks a subtree whose attribute digests prove every record
	// satisfies the query predicate: its draws skip the per-entry
	// predicate test. Always true when the query has no predicate.
	predAll bool
}

// Sampler is the RS-tree's online sample stream for one query. It
// implements sampling.Sampler: it emits every record of P ∩ Q exactly once
// in uniformly random prefix order.
//
// A Sampler owns all of its query's mutable state, so any number of
// Samplers may run concurrently against the same Index; each individual
// Sampler is single-goroutine (wrap it if a query fans out).
type Sampler struct {
	index *Index
	query geo.Rect
	rng   *stats.RNG
	// batch queues this query's page charges as runs for the accountant
	// the sampler was built with; NextBatch flushes it, so a pull takes
	// the device lock once per flush while the stats stay identical to
	// per-access charging.
	batch *iosim.Batcher
	// filter is the query's predicate pushdown state; nil means no
	// predicate. Subtrees it rules out never enter the frontier, and
	// draws failing the predicate are consumed-and-rejected, which keeps
	// the cross-part draw distribution exact over qualifying records.
	filter *rtree.TreeFilter

	parts []*part
	fen   *fenwick
	seen  *sampling.IDSet
	init  bool
	// closed marks a sampler whose scratch went back to the pools.
	closed bool

	// instrumentation
	explosions uint64
	rejects    uint64
	draws      uint64
}

// SamplerStats implements sampling.Sampler. Explosions counts the parts
// materialized so far (their subtrees bulk-loaded) — the exploration
// pressure the sample-buffer size controls; Rejects counts consumed draws
// that fell outside the query or failed its predicate — the
// acceptance/rejection overhead of keeping boundary subtrees whole.
func (s *Sampler) SamplerStats() sampling.SamplerStats {
	st := sampling.SamplerStats{
		Draws:      s.draws,
		Rejects:    s.rejects,
		Explosions: s.explosions,
	}
	if s.filter != nil {
		st.Pruned = s.filter.Pruned
	}
	return st
}

// Sampler returns an online sampler for q. Samplers of the same Index may
// run concurrently: shared node buffers are published copy-on-write, and
// all query-progress state lives in the Sampler itself. rng drives only
// this query's draws, so a fixed rng seed reproduces the same stream
// regardless of what other queries run beside it.
func (x *Index) Sampler(q geo.Rect, rng *stats.RNG) *Sampler {
	return x.SamplerWhere(q, rng, nil, nil)
}

// SamplerWhere returns an online sampler for q restricted to records
// satisfying f's predicate: subtrees whose digests rule the predicate out
// never enter the frontier, predicate-failing draws are consumed-and-
// rejected (keeping the accepted stream exactly uniform over qualifying
// records), and materialized parts hold only qualifying entries. Page
// charges go to acct — an iosim.Counter forwarding to the shared device
// attributes I/O to this query without racing other queries' attribution
// — or to the tree's device when acct is nil. A nil filter and a nil acct
// is exactly Sampler.
func (x *Index) SamplerWhere(q geo.Rect, rng *stats.RNG, f *rtree.TreeFilter, acct iosim.Accountant) *Sampler {
	if acct == nil {
		acct = x.tree.Device()
	}
	return &Sampler{index: x, query: q, rng: rng, batch: iosim.NewBatcher(acct), filter: f}
}

// charge accounts one logical access of n's page to this query.
func (s *Sampler) charge(n *rtree.Node) { s.batch.Access(n.PageID()) }

var _ sampling.Sampler = (*Sampler)(nil)

// Name implements sampling.Sampler.
func (s *Sampler) Name() string { return "RS-tree" }

// NextBatch implements sampling.Sampler: it draws up to min(k, len(dst))
// samples, amortizing the per-draw overheads across the pull: page charges
// are coalesced into run-length batches (one device lock per flush instead
// of per draw), node buffers regenerated during the pull are visited at
// most once, and steady-state draws allocate nothing (scratch comes from
// pools).
func (s *Sampler) NextBatch(dst []data.Entry, k int) int {
	if k > len(dst) {
		k = len(dst)
	}
	if k <= 0 || s.closed {
		return 0
	}
	defer s.batch.Flush()
	if !s.init {
		s.initialize()
	}
	got := 0
	for got < k {
		e, ok := s.next()
		if !ok {
			break
		}
		dst[got] = e
		got++
	}
	return got
}

// initialize builds the query frontier: the maximal subtrees fully inside
// the query, plus partially-intersecting subtrees that are either leaves
// or small enough (count <= Fanout², i.e. the leaf-parent level) to keep
// whole — the paper's lazy exploration: "avoid exploring small subtrees in
// R_Q which are expensive yet relatively useless". Samples drawn from such
// a subtree that land outside the query are rejected, trading a few
// wasted (cheap, buffered) draws for never materializing boundary leaves
// the query may not need. A part's subtree is only ever read in full if
// sampling pressure exhausts its stored buffer.
func (s *Sampler) initialize() {
	s.init = true
	s.fen = newFenwick(64)
	s.seen = sampling.NewIDSet(s.index.Len())
	s.frontier(s.index.tree.Root())
}

func (s *Sampler) frontier(n *rtree.Node) {
	s.charge(n)
	if n.Count() == 0 || !n.MBR().Intersects(s.query) {
		return
	}
	v := s.filter.Verdict(n)
	if v == pred.None {
		return
	}
	contained := s.query.ContainsRect(n.MBR())
	fan := s.index.cfg.Fanout
	if contained || n.IsLeaf() || n.Count() <= fan*fan {
		s.addPart(n, contained, v == pred.All)
		return
	}
	for _, c := range n.Children() {
		s.frontier(c)
	}
}

// addPart registers a subtree as an active part. Its weight is the full
// subtree cardinality: boundary parts include out-of-query (or predicate-
// failing) mass, which is burned off through consumed-and-rejected draws
// (or dropped wholesale at materialization). A leaf carries no buffer, so a
// leaf part is materialized at once.
func (s *Sampler) addPart(n *rtree.Node, contained, predAll bool) {
	p := &part{node: n, contained: contained, predAll: predAll}
	s.fen.Append(n.Count())
	s.parts = append(s.parts, p)
	if n.IsLeaf() {
		s.materialize(p, len(s.parts)-1)
		return
	}
	p.buf = s.index.bufferFor(n, s.batch)
}

// next draws the next element of a uniform random permutation of P ∩ Q.
// Each iteration picks a part with probability proportional to its
// remaining unconsumed count, consumes the next element of its buffer, and
// accepts it if it lies inside the query.
// Rejected draws still consume weight, which keeps the cross-part draw
// distribution exact.
func (s *Sampler) next() (data.Entry, bool) {
	for s.fen.Total() > 0 {
		r := s.rng.Intn(s.fen.Total())
		i := s.fen.Find(r)
		p := s.parts[i]
		s.charge(p.node)
		e, ok := s.nextFromBuffer(p)
		if !ok {
			if p.materialized() {
				// The exact remaining set is exhausted.
				s.retirePart(p, i)
				continue
			}
			s.materialize(p, i)
			continue
		}
		s.seen.Add(e.ID)
		s.fen.Add(i, -1)
		if p.materialized() ||
			((p.contained || s.query.Contains(e.Pos)) &&
				(p.predAll || s.filter.Match(e.ID))) {
			s.draws++
			return e, true
		}
		s.rejects++
	}
	return data.Entry{}, false
}

// retirePart zeroes an exhausted part's weight and recycles its scratch.
func (s *Sampler) retirePart(p *part, slot int) {
	s.fen.Set(slot, 0)
	p.release()
}

// materialized reports whether buf holds the part's exact remaining entries
// rather than the node's stored sample.
func (p *part) materialized() bool { return p.own != nil }

// release returns the part's pooled scratch — the permutation of a stored
// buffer, the contents of a materialized one — and leaves it empty.
func (p *part) release() {
	if p.order != nil {
		intPool.put(p.order)
		p.order = nil
	}
	if p.own != nil {
		putEntries(p.own)
		p.own = nil
	}
	p.buf = nil
}

// Close ends the stream and hands the scratch its parts still hold to the
// next query; further pulls return nothing. A query that never calls it
// loses nothing but the reuse. Safe to call more than once, and on a sampler
// that never drew.
func (s *Sampler) Close() error {
	s.closed = true
	for _, p := range s.parts {
		p.release()
	}
	s.parts = nil
	return nil
}

// nextFromBuffer returns the next not-yet-consumed entry of p's buffer in
// query-local random order, or ok=false when the buffer is exhausted. Both
// kinds of buffer take the same Fisher–Yates step off the same draw: a
// stored buffer through the part's permutation, a materialized one on its
// own entries.
func (s *Sampler) nextFromBuffer(p *part) (data.Entry, bool) {
	var order []int
	if !p.materialized() {
		if p.order == nil {
			p.order = intPool.get(len(p.buf))
			for i := range *p.order {
				(*p.order)[i] = i
			}
		}
		order = *p.order
	}
	for p.cursor < len(p.buf) {
		i := p.cursor
		j := i + s.rng.Intn(len(p.buf)-i)
		var e data.Entry
		if p.materialized() {
			p.buf[i], p.buf[j] = p.buf[j], p.buf[i]
			e = p.buf[i]
		} else {
			order[i], order[j] = order[j], order[i]
			e = p.buf[order[i]]
		}
		p.cursor++
		if s.seen.Contains(e.ID) {
			// Defensive: stored buffers and materialized lists are
			// disjoint from consumed entries by construction.
			continue
		}
		return e, true
	}
	return data.Entry{}, false
}

// materialize bulk-loads an exhausted part: one sequential range report of
// its subtree (each page read once), filtered to unconsumed matching
// entries. Subsequent draws from the part are free of page access beyond
// the part's own page. This keeps the total I/O of a long-running query
// bounded by r(N) plus the pages of the subtrees the sample stream
// actually drained — never more than a full range report.
func (s *Sampler) materialize(p *part, slot int) {
	s.explosions++
	p.release()
	p.own = getEntries(p.node.Count())
	s.collectMatching(p.node, p.contained, p.predAll, p.own)
	p.buf = *p.own
	p.cursor = 0
	s.fen.Set(slot, len(p.buf))
}

// collectMatching appends the subtree's unconsumed matching entries in
// depth-first order, using a pooled explicit stack (materialization scans
// whole subtrees; recursion and per-call slices would be the dominant
// allocations of a large query). contained skips the per-entry containment
// test for subtrees known to lie inside the query; predAll likewise skips
// the per-entry predicate test, and predicate-pruned child subtrees are
// dropped from the scan entirely.
func (s *Sampler) collectMatching(root *rtree.Node, contained, predAll bool, out *[]data.Entry) {
	box := getNodeStack()
	stack := append(*box, root)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		s.charge(n)
		if n.IsLeaf() {
			for _, e := range n.Entries() {
				if !contained && !s.query.Contains(e.Pos) {
					continue
				}
				if !predAll && !s.filter.Match(e.ID) {
					continue
				}
				if s.seen.Contains(e.ID) {
					continue
				}
				*out = append(*out, e)
			}
			continue
		}
		kids := n.Children()
		// Reverse push keeps the pop order equal to recursive DFS order.
		for i := len(kids) - 1; i >= 0; i-- {
			if !contained && !kids[i].MBR().Intersects(s.query) {
				continue
			}
			if !predAll && s.filter.Verdict(kids[i]) == pred.None {
				continue
			}
			stack = append(stack, kids[i])
		}
	}
	putNodeStack(box, stack)
}

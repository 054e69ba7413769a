package rstree

import (
	"slices"
	"testing"

	"storm/internal/data"
	"storm/internal/geo"
	"storm/internal/iosim"
	"storm/internal/rtree"
	"storm/internal/sampling/samplingtest"
	"storm/internal/stats"
)

// preorder lists the nodes of x's tree in pre-order.
func preorder(x *Index) []*rtree.Node {
	var nodes []*rtree.Node
	var walk func(n *rtree.Node)
	walk = func(n *rtree.Node) {
		nodes = append(nodes, n)
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(x.Tree().Root())
	return nodes
}

// checkBuffers fails unless every internal node of x carries a current
// buffer (when internal is set) and no leaf carries a buffer at all.
func checkBuffers(t *testing.T, x *Index, stage string, internal bool) {
	t.Helper()
	for _, n := range preorder(x) {
		_, has := n.Aux().(*buffer)
		switch {
		case n.IsLeaf() && has:
			t.Fatalf("%s: leaf page %d carries a buffer", stage, n.PageID())
		case !n.IsLeaf() && internal && x.StoredBuffer(n) == nil:
			t.Fatalf("%s: internal page %d has no current buffer", stage, n.PageID())
		}
	}
}

// TestLeavesCarryNoBuffer: a build writes every internal node's buffer and
// no leaf's, and neither a drained query — over a many-level tree or a root
// leaf — nor an insert that splits leaves, nor a delete puts one on a leaf.
func TestLeavesCarryNoBuffer(t *testing.T) {
	entries := genEntries(6000, 13)
	small := genEntries(50, 17)
	cfg := Config{Fanout: 16, Seed: 5}
	built, err := Build(entries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sorted, err := BuildSorted(rtree.STROrder(16, entries)[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	rootLeaf, err := Build(small, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !rootLeaf.Tree().Root().IsLeaf() {
		t.Fatal("fixture: 50 records at the default fanout should make a root leaf")
	}
	drain := func(x *Index) {
		s := x.Sampler(testQuery, stats.NewRNG(7))
		for _, ok := samplingtest.Next(s); ok; _, ok = samplingtest.Next(s) {
		}
	}
	for _, c := range []struct {
		name    string
		x       *Index
		entries []data.Entry
	}{{"Build", built, entries}, {"BuildSorted", sorted, entries}, {"root leaf", rootLeaf, small}} {
		checkBuffers(t, c.x, c.name, true)
		drain(c.x)
		checkBuffers(t, c.x, c.name+": drained query", true)
		batch := make([]data.Entry, 40)
		for i := range batch {
			batch[i] = data.Entry{ID: data.ID(90_000 + i), Pos: geo.Vec{40, 40, float64(i)}}
		}
		c.x.InsertBatch(batch)
		checkBuffers(t, c.x, c.name+": InsertBatch", false)
		if !c.x.Delete(c.entries[0]) {
			t.Fatalf("%s: delete missed", c.name)
		}
		checkBuffers(t, c.x, c.name+": Delete", false)
		drain(c.x)
		checkBuffers(t, c.x, c.name+": drained query after updates", false)
	}
}

// TestRootLeafFirstSampleUniform: over a tree that is a single leaf — the
// one shape whose query frontier holds a leaf, read whole — the first
// sample is uniform over P ∩ Q across query seeds of one build, and a
// drained query emits P ∩ Q exactly once after one explosion.
func TestRootLeafFirstSampleUniform(t *testing.T) {
	entries := genEntries(60, 23)
	x, err := Build(entries, Config{Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	if !x.Tree().Root().IsLeaf() {
		t.Fatal("fixture: 60 records at the default fanout should make a root leaf")
	}
	q := geo.NewRect(geo.Vec{10, 10, 0}, geo.Vec{90, 90, 100})
	want := matching(entries, q)
	if len(want) < 20 {
		t.Fatalf("fixture degenerate: |P ∩ Q| = %d", len(want))
	}

	s := x.Sampler(q, stats.NewRNG(31))
	var got []data.ID
	for e, ok := samplingtest.Next(s); ok; e, ok = samplingtest.Next(s) {
		if !want[e.ID] {
			t.Fatalf("sample %d outside the query", e.ID)
		}
		got = append(got, e.ID)
	}
	slices.Sort(got)
	if len(slices.Compact(got)) != len(want) || len(got) != len(want) {
		t.Fatalf("drained %d samples (duplicates removed), want %d", len(got), len(want))
	}
	if st := s.SamplerStats(); st.Explosions != 1 || st.Rejects != 0 {
		t.Errorf("drained root leaf: %d explosions and %d rejects, want 1 and 0", st.Explosions, st.Rejects)
	}

	const trials = 20000
	counts := make(map[data.ID]int)
	for i := 0; i < trials; i++ {
		e, ok := samplingtest.Next(x.Sampler(q, stats.NewRNG(stats.MixSeed(int64(i)))))
		if !ok {
			t.Fatal("no first sample")
		}
		counts[e.ID]++
	}
	obs := make([]int, 0, len(want))
	exp := make([]float64, 0, len(want))
	for id := range want {
		obs = append(obs, counts[id])
		exp = append(exp, float64(trials)/float64(len(want)))
	}
	stat := stats.ChiSquareStat(obs, exp)
	if crit := stats.ChiSquareQuantile(0.999, len(want)-1); stat > crit {
		t.Errorf("root-leaf first-sample chi-square %v > crit %v: not uniform", stat, crit)
	}
}

// TestBuildChargesEagerGenerationReads: the pages a build charges are, in
// order, the ones generating every internal node's buffer in pre-order
// reads.
func TestBuildChargesEagerGenerationReads(t *testing.T) {
	for _, n := range []int{40, 6000} { // a root leaf, and a tree of three internal levels
		log := &pageLog{}
		x, err := Build(genEntries(n, 13), Config{Fanout: 16, BufferSize: 8, Device: log, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		var want pageLog
		for _, node := range preorder(x) {
			if !node.IsLeaf() {
				x.sampleSubtree(node, &want)
			}
		}
		if !slices.Equal(*log, want) {
			t.Errorf("n=%d: build charged %d page reads, eager generation reads %d (or another order)", n, len(*log), len(want))
		}
	}
}

// TestBufferRegensCountsStaleNodes: after a delete and an insert, a read of
// an internal node whose buffer they staled regenerates it, counted and
// charged the pages its descent reads; a read of any other internal node
// charges nothing and counts nothing.
func TestBufferRegensCountsStaleNodes(t *testing.T) {
	x, err := Build(genEntries(6000, 13), Config{Fanout: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var leaves []*rtree.Node
	for _, n := range preorder(x) {
		if n.IsLeaf() {
			leaves = append(leaves, n)
		}
	}
	// A delete from the last leaf, and copies of a record near the end of
	// the curve, enough to split the leaf they join.
	if !x.Delete(leaves[len(leaves)-1].Entries()[0]) {
		t.Fatal("delete missed")
	}
	p := leaves[len(leaves)-3].Entries()[0].Pos
	batch := make([]data.Entry, 20)
	for i := range batch {
		batch[i] = data.Entry{ID: data.ID(90_000 + i), Pos: p}
	}
	x.InsertBatch(batch)

	var stale int
	var log, want pageLog
	for _, n := range preorder(x) {
		if n.IsLeaf() {
			continue
		}
		regens := x.BufferRegens()
		log, want = log[:0], want[:0]
		if x.StoredBuffer(n) != nil {
			x.bufferFor(n, &log)
			if len(log) != 0 || x.BufferRegens() != regens {
				t.Fatalf("a current buffer's read charged %d pages and counted %d regens", len(log), x.BufferRegens()-regens)
			}
			continue
		}
		stale++
		x.sampleSubtree(n, &want)
		x.bufferFor(n, &log)
		if x.BufferRegens() != regens+1 || !slices.Equal(log, want) {
			t.Errorf("internal page %d: regen counted %d, charged %v; want 1 and %v", n.PageID(), x.BufferRegens()-regens, log, want)
		}
	}
	if stale < 2 {
		t.Errorf("the delete and the insert staled %d internal buffers, want at least 2", stale)
	}
}

// pageLog is an accountant that records the pages read, in order.
type pageLog []iosim.PageID

func (l *pageLog) Access(p iosim.PageID) bool { *l = append(*l, p); return true }
func (l *pageLog) Write(iosim.PageID)         {}
func (l *pageLog) Invalidate(iosim.PageID)    {}

func (l *pageLog) AccessBatch(pages []iosim.PageID, counts []int) uint64 {
	var n uint64
	for i, p := range pages {
		for j := 0; j < counts[i]; j++ {
			l.Access(p)
			n++
		}
	}
	return n
}

// TestBuildSortedDatasetOrderMatchesBuild: an index built over a dataset's
// own STR order (BuildSorted over rtree.STROrderDataset, keyed over the
// order's Bounds, as the engine builds it) has Build's pages, leaves, keys
// and buffers, and charges the device the same.
func TestBuildSortedDatasetOrderMatchesBuild(t *testing.T) {
	entries := genEntries(6000, 17)
	pos := make([]geo.Vec, len(entries))
	for i, e := range entries {
		pos[i] = e.Pos
	}
	ds, err := data.FromColumns("d", pos, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var logA, logB pageLog
	a, err := Build(ds.Entries(), Config{Fanout: 16, Device: &logA, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	order := rtree.STROrderDataset(16, ds)
	b, err := BuildSorted(order.Entries, Config{Fanout: 16, Device: &logB, Bounds: order.Bounds, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	na, nb := preorder(a), preorder(b)
	if len(na) != len(nb) || !slices.Equal(logA, logB) {
		t.Fatalf("BuildSorted: %d nodes and %d page reads, Build: %d and %d", len(nb), len(logB), len(na), len(logA))
	}
	for i := range na {
		if na[i].PageID() != nb[i].PageID() || na[i].MBR() != nb[i].MBR() ||
			!slices.Equal(na[i].Entries(), nb[i].Entries()) || !slices.Equal(na[i].HilbertKeys(), nb[i].HilbertKeys()) ||
			!slices.Equal(a.StoredBuffer(na[i]), b.StoredBuffer(nb[i])) {
			t.Fatalf("node %d (page %d) differs between Build and BuildSorted", i, na[i].PageID())
		}
	}
}

package rstree

import (
	"slices"
	"sync"
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

// pendingLeaf reports whether n is a leaf whose build-time marker is still
// current and unfilled.
func pendingLeaf(n *rtree.Node) bool {
	b, _ := n.Aux().(*buffer)
	return n.IsLeaf() && b != nil && b.version == n.Version() && b.pending
}

// TestBuildLeavesLeafBuffersPending: a build generates no leaf buffer.
// LeafFills does not move across Build or BuildSorted, every leaf carries a
// pending marker and no entries, and every internal node a written buffer.
func TestBuildLeavesLeafBuffersPending(t *testing.T) {
	entries := genEntries(6000, 13)
	cfg := Config{Fanout: 16, Seed: 5}
	before := LeafFills()
	built, err := Build(entries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sorted, err := BuildSorted(rtree.STROrder(16, entries)[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := LeafFills() - before; got != 0 {
		t.Errorf("two builds generated %d leaf buffers, want 0", got)
	}
	for name, x := range map[string]*Index{"Build": built, "BuildSorted": sorted} {
		for _, n := range preorder(x) {
			b, _ := n.Aux().(*buffer)
			switch {
			case n.IsLeaf() && (!pendingLeaf(n) || b.entries != nil):
				t.Fatalf("%s: leaf page %d is not pending after the build", name, n.PageID())
			case !n.IsLeaf() && (b == nil || b.pending || len(b.entries) == 0):
				t.Fatalf("%s: internal page %d has no written buffer after the build", name, n.PageID())
			}
		}
	}
}

// TestBuildChargesEagerGenerationReads: the pages a build charges are, in
// order, the ones generating every node's buffer in pre-order reads, leaves
// included — what the build charged when it wrote leaf buffers too.
func TestBuildChargesEagerGenerationReads(t *testing.T) {
	for _, n := range []int{40, 6000} { // one leaf, and a tree fanned across workers
		log := &pageLog{}
		x, err := Build(genEntries(n, 13), Config{Fanout: 16, BufferSize: 8, Device: log, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		var want pageLog
		for _, node := range preorder(x) {
			size := x.cfg.BufferSize
			if node.IsLeaf() {
				size = node.Count()
			}
			x.sampleSubtree(node, size, &want)
		}
		if !slices.Equal(*log, want) {
			t.Errorf("n=%d: build charged %d page reads, eager generation reads %d (or another order)", n, len(*log), len(want))
		}
	}
}

// TestFirstReadFillsWithoutCharge: a first read fills a pending leaf with
// the entries eager generation gives, charges no page and counts no regen;
// a query over a pending leaf draws the same stream, and charges the device
// the same, as one over a filled leaf.
func TestFirstReadFillsWithoutCharge(t *testing.T) {
	entries := genEntries(6000, 31)
	x, err := Build(entries, Config{Fanout: 16, Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	var log pageLog
	for _, n := range preorder(x) {
		if !n.IsLeaf() {
			continue
		}
		want := x.sampleSubtree(n, n.Count(), iosim.Discard)
		if got := x.bufferFor(n, &log); !slices.Equal(got, want) {
			t.Fatalf("leaf page %d: first read differs from eager generation", n.PageID())
		}
		if got := x.StoredBuffer(n); !slices.Equal(got, want) {
			t.Fatalf("leaf page %d: stored buffer differs from the first read", n.PageID())
		}
	}
	if len(log) != 0 || x.BufferRegens() != 0 {
		t.Errorf("first reads charged %d pages and counted %d regens, want 0 and 0", len(log), x.BufferRegens())
	}

	// A tree of one leaf is the one shape whose queries read a leaf buffer.
	one := genEntries(50, 41)
	q := geo.NewRect(geo.Vec{10, 10, 0}, geo.Vec{90, 90, 100})
	run := func(fill bool) ([]data.ID, iosim.Stats) {
		dev := iosim.NewDevice(64, iosim.DefaultCostModel())
		x, err := Build(one, Config{Device: dev, Seed: 43})
		if err != nil {
			t.Fatal(err)
		}
		if fill {
			x.StoredBuffer(x.Tree().Root())
		}
		dev.ResetStats()
		s := x.Sampler(q, stats.NewRNG(47))
		var ids []data.ID
		for e, ok := samplingtest.Next(s); ok; e, ok = samplingtest.Next(s) {
			ids = append(ids, e.ID)
		}
		if x.BufferRegens() != 0 {
			t.Errorf("fill=%v: BufferRegens = %d, want 0", fill, x.BufferRegens())
		}
		return ids, dev.Stats()
	}
	filledIDs, filledIO := run(true)
	pendingIDs, pendingIO := run(false)
	if !slices.Equal(pendingIDs, filledIDs) {
		t.Error("a query over a pending leaf draws another stream than over a filled one")
	}
	if pendingIO != filledIO {
		t.Errorf("a query over a pending leaf charged %+v, over a filled one %+v", pendingIO, filledIO)
	}
}

// TestBufferRegensCountsStaleLeaves: first fills count no regen and charge
// nothing, while a leaf an insert or a delete staled before its first read,
// and a leaf a split created, regenerate as a query's read always did:
// counted, and charged the leaf's page.
func TestBufferRegensCountsStaleLeaves(t *testing.T) {
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
	var log pageLog
	for _, n := range leaves[:len(leaves)/2] {
		x.bufferFor(n, &log)
	}
	if len(log) != 0 || x.BufferRegens() != 0 {
		t.Fatalf("first fills charged %d pages and counted %d regens, want 0 and 0", len(log), x.BufferRegens())
	}

	// A delete from the last leaf, and copies of a record near the end of
	// the curve, enough to split the leaf they join.
	last := leaves[len(leaves)-1]
	if !x.Delete(last.Entries()[0]) {
		t.Fatal("delete missed")
	}
	p := leaves[len(leaves)-3].Entries()[0].Pos
	batch := make([]data.Entry, 20)
	for i := range batch {
		batch[i] = data.Entry{ID: data.ID(90_000 + i), Pos: p}
	}
	x.InsertBatch(batch)

	var stale, split int
	for _, n := range preorder(x) {
		if !n.IsLeaf() {
			continue
		}
		regens := x.BufferRegens()
		log = log[:0]
		switch b, _ := n.Aux().(*buffer); {
		case b == nil:
			split++
		case b.version != n.Version():
			stale++
		case pendingLeaf(n):
			x.bufferFor(n, &log)
			if len(log) != 0 || x.BufferRegens() != regens {
				t.Fatalf("an untouched pending leaf charged %d pages and counted %d regens", len(log), x.BufferRegens()-regens)
			}
			continue
		default:
			continue
		}
		x.bufferFor(n, &log)
		if x.BufferRegens() != regens+1 || !slices.Equal(log, pageLog{n.PageID()}) {
			t.Errorf("leaf page %d: regen counted %d, charged %v; want 1 and its own page", n.PageID(), x.BufferRegens()-regens, log)
		}
	}
	if stale < 2 || split < 1 {
		t.Errorf("the delete and the insert left %d stale leaves and %d split-created ones, want at least 2 and 1", stale, split)
	}
}

// TestConcurrentFirstReads (run with -race): many goroutines take their first
// samples at once — over a one-leaf tree, whose queries read the leaf
// buffer, and over a larger tree while others read every leaf's stored
// buffer — and each gets what a serial run on a fresh index gets.
func TestConcurrentFirstReads(t *testing.T) {
	const workers = 8
	for _, n := range []int{50, 8000} {
		entries := genEntries(n, 53)
		cfg := Config{Seed: 59}
		if n > 64 {
			cfg.Fanout = 16
		}
		draw := func(x *Index, seed int64) []data.ID {
			s := x.Sampler(testQuery, stats.NewRNG(seed))
			var ids []data.ID
			for len(ids) < 400 {
				e, ok := samplingtest.Next(s)
				if !ok {
					break
				}
				ids = append(ids, e.ID)
			}
			return ids
		}
		leafIDs := func(x *Index) [][]data.ID {
			var out [][]data.ID
			for _, node := range preorder(x) {
				if node.IsLeaf() {
					var ids []data.ID
					for _, e := range x.StoredBuffer(node) {
						ids = append(ids, e.ID)
					}
					out = append(out, ids)
				}
			}
			return out
		}

		serial, err := Build(entries, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]data.ID, workers)
		for i := range want {
			want[i] = draw(serial, int64(61+i))
		}
		wantLeaves := leafIDs(serial)

		x, err := Build(entries, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := make([][]data.ID, workers)
		gotLeaves := make([][][]data.ID, workers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(2)
			go func() {
				defer wg.Done()
				<-start
				got[i] = draw(x, int64(61+i))
			}()
			go func() {
				defer wg.Done()
				<-start
				gotLeaves[i] = leafIDs(x)
			}()
		}
		close(start)
		wg.Wait()
		for i := range got {
			if !slices.Equal(got[i], want[i]) {
				t.Errorf("n=%d: sampler %d drew another stream than the serial run", n, i)
			}
			if !slices.EqualFunc(gotLeaves[i], wantLeaves, slices.Equal) {
				t.Errorf("n=%d: reader %d saw other leaf buffers than the serial run", n, i)
			}
		}
		if x.BufferRegens() != 0 {
			t.Errorf("n=%d: concurrent first reads counted %d regens, want 0", n, x.BufferRegens())
		}
	}
}

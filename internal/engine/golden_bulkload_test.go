package engine

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"strings"
	"testing"

	"storm/internal/data"
	"storm/internal/data/datatest"
	"storm/internal/gen"
	"storm/internal/geo"
	"storm/internal/rtree"
	"storm/internal/sampling"
)

// bulkloadGoldenFile pins the structure Register builds: one line per tree,
// "<case>/<tree> <nodes> <sha256 of the pre-order walk>", where the walk
// renders every node's page ID, leaf flag, subtree count and (for leaves)
// entry IDs in stored order. Page IDs seed the RS-tree's per-node sample
// buffers and leaf order is what every sampler enumerates, so an unchanged
// file means every seeded stream over these trees is unchanged too. It was
// recorded at the commit BEFORE bulk loading was split into sort and pack,
// re-recorded once when stats.RNG moved onto PCG (the generated records and
// every seeded draw changed), and must never be regenerated to make a
// build-path change pass.
// STORM_UPDATE_GOLDEN=1 rewrites it (deliberate, reviewed changes only).
const bulkloadGoldenFile = "testdata/golden_bulkload.txt"

// preorderDigest hashes whatever visit feeds put for each node of t in
// pre-order into a "<nodes> <sha256>" line.
func preorderDigest(t *rtree.Tree, visit func(n *rtree.Node, put func(uint64))) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	nodes := 0
	var walk func(n *rtree.Node)
	walk = func(n *rtree.Node) {
		nodes++
		visit(n, put)
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(t.Root())
	return fmt.Sprintf("%d %x", nodes, h.Sum(nil))
}

// treeDigest renders t's structure — every node's page ID, leaf flag,
// subtree count and leaf entry IDs — into a digest line.
func treeDigest(t *rtree.Tree) string {
	return preorderDigest(t, func(n *rtree.Node, put func(uint64)) {
		put(uint64(n.PageID()))
		leaf := uint64(0)
		if n.IsLeaf() {
			leaf = 1
		}
		put(leaf)
		put(uint64(n.Count()))
		for _, e := range n.Entries() {
			put(e.ID)
		}
	})
}

// idDigest digests a sample stream's record IDs in emission order.
func idDigest(es []data.Entry) string {
	h := sha256.New()
	var buf [8]byte
	for _, e := range es {
		binary.LittleEndian.PutUint64(buf[:], e.ID)
		h.Write(buf[:])
	}
	return fmt.Sprintf("%d %x", len(es), h.Sum(nil))
}

// goldenSet is one dataset of the build-path golden cases with the query its
// seeded sample streams run over.
type goldenSet struct {
	name  string
	build func() *data.Dataset
	q     geo.Range
}

var goldenSets = []goldenSet{
	{"osm50k", func() *data.Dataset { return gen.OSM(gen.OSMConfig{N: 50_000, Seed: 1}) },
		geo.Range{MinX: -100, MinY: 30, MaxX: -80, MaxY: 45, MinT: 0, MaxT: 86400 * 365}},
	{"ties20k", func() *data.Dataset { return datatest.TieHeavy(20_000) },
		geo.Range{MinX: 5, MinY: 5, MaxX: 30, MaxY: 30, MinT: 0, MaxT: 100}},
}

// goldenLines is an ordered set of "<case> <digest>" lines.
type goldenLines struct {
	t     *testing.T
	order []string
	got   map[string]string
}

func newGoldenLines(t *testing.T) *goldenLines {
	return &goldenLines{t: t, got: map[string]string{}}
}

func (g *goldenLines) record(name, line string) {
	if _, dup := g.got[name]; dup {
		g.t.Fatalf("duplicate golden case %q", name)
	}
	g.got[name] = line
	g.order = append(g.order, name)
}

// check compares the lines against file, or rewrites it under
// STORM_UPDATE_GOLDEN=1.
func (g *goldenLines) check(file string) {
	t := g.t
	if os.Getenv("STORM_UPDATE_GOLDEN") == "1" {
		var b strings.Builder
		for _, name := range g.order {
			fmt.Fprintf(&b, "%s %s\n", name, g.got[name])
		}
		if err := os.WriteFile(file, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d cases)", file, len(g.order))
		return
	}
	f, err := os.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, rest, ok := strings.Cut(sc.Text(), " ")
		if ok {
			want[name] = rest
		}
	}
	if len(want) != len(g.got) {
		t.Errorf("%s has %d cases, the test ran %d", file, len(want), len(g.got))
	}
	for _, name := range g.order {
		if want[name] != g.got[name] {
			t.Errorf("%s: changed\n  golden: %s\n  got:    %s", name, want[name], g.got[name])
		}
	}
}

// registerGolden runs one golden case — Register with both local indexes and
// a replicated three-shard cluster against a 2048-page pool — and records
// what golden_bulkload.txt pins (device counters, structure, seeded streams)
// in structure and what golden_pack_derived.txt pins in derived.
func registerGolden(t *testing.T, set goldenSet, fanout int, structure, derived *goldenLines) {
	name := fmt.Sprintf("%s/f%d", set.name, fanout)
	e := New(Config{Seed: 7, Fanout: fanout, BufferPoolPages: 2048})
	h, err := e.Register(set.build(), IndexOptions{LSTree: true, Shards: 3, Replicas: 2})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	st := e.Device().Stats()
	structure.record(name+"/device", fmt.Sprintf("reads=%d writes=%d hits=%d logical=%d evictions=%d cost=%s",
		st.Reads, st.Writes, st.Hits, st.Logical, st.Evictions, f(st.CostUnits)))
	structure.record(name+"/rs", treeDigest(h.rs.Tree()))
	derived.record(name+"/rs", derivedDigest(h.rs.Tree()))
	derived.record(name+"/rs-buffers", bufferDigest(h.rs))
	ls := h.ls.Load()
	for i := 0; i < ls.Levels(); i++ {
		structure.record(fmt.Sprintf("%s/ls%d", name, i), treeDigest(ls.Level(i)))
		derived.record(fmt.Sprintf("%s/ls%d", name, i), derivedDigest(ls.Level(i)))
	}
	for _, sh := range h.cluster.Shards() {
		structure.record(fmt.Sprintf("%s/shard%d", name, sh.ID), treeDigest(sh.Index().Tree()))
		derived.record(fmt.Sprintf("%s/shard%d", name, sh.ID), derivedDigest(sh.Index().Tree()))
		derived.record(fmt.Sprintf("%s/shard%d-buffers", name, sh.ID), bufferDigest(sh.Index()))
	}
	for _, m := range []Method{MethodRSTree, MethodLSTree, MethodDistributed} {
		es, err := h.Sample(set.q, 400, m, sampling.WithoutReplacement, 99)
		if err != nil {
			t.Fatalf("%s: sampling %v: %v", name, m, err)
		}
		structure.record(fmt.Sprintf("%s/sample-%v", name, m), idDigest(es))
	}
}

// TestGoldenBulkLoadStructure is the build-path safety net: every tree
// Register builds — the RS-tree, each LS-tree level, each primary shard tree
// — keeps its exact pre-order structure, seeded sample streams over them
// keep their IDs, and the shared device ends a Register with the same
// counters.
func TestGoldenBulkLoadStructure(t *testing.T) {
	structure := newGoldenLines(t)
	for _, set := range goldenSets {
		for _, fanout := range []int{8, 64} {
			registerGolden(t, set, fanout, structure, newGoldenLines(t))
		}
	}
	structure.check(bulkloadGoldenFile)
}

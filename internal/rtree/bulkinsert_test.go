package rtree

import (
	"testing"

	"storm/internal/data"
	"storm/internal/geo"
	"storm/internal/stats"
)

// TestInsertBatchMatchesBrute checks the batched insert path against
// brute force, growing from a bulk-loaded base — the streaming drain
// scenario: an STR-packed tree absorbing Hilbert-sorted run merges. With
// bounds covering every batch, and without: the base's own MBR, which
// later batch entries may fall outside of (their keys clamp).
func TestInsertBatchMatchesBrute(t *testing.T) {
	all := genEntries(8000, 17)
	base, batch := all[:5000], all[5000:]
	for _, bounds := range []geo.Rect{EntryBounds(all), {}} {
		tree := MustNew(Config{Fanout: 16, Bounds: bounds})
		tree.BulkLoad(base)
		// Several uneven slices so merges hit partially-filled leaves.
		for lo := 0; lo < len(batch); lo += 700 {
			hi := lo + 700
			if hi > len(batch) {
				hi = len(batch)
			}
			chunk := append([]data.Entry(nil), batch[lo:hi]...)
			tree.InsertBatch(chunk)
			if err := tree.Validate(); err != nil {
				t.Fatalf("bounds %v: invalid after batch [%d:%d]: %v", bounds, lo, hi, err)
			}
		}
		if tree.Len() != len(all) {
			t.Fatalf("bounds %v: Len = %d, want %d", bounds, tree.Len(), len(all))
		}
		for _, q := range testQueries() {
			got := tree.ReportAll(q)
			want := bruteRange(all, q)
			if !sameIDs(got, want) {
				t.Errorf("bounds %v range %v: got %d, want %d", bounds, q, len(got), len(want))
			}
			if c := tree.Count(q); c != len(want) {
				t.Errorf("bounds %v Count(%v) = %d, want %d", bounds, q, c, len(want))
			}
		}
	}
}

// TestInsertBatchGrowsEmptyTree feeds one large batch to an empty tree:
// the even multi-way splits must fan the single leaf out across several
// levels in one call, and the result must stay valid and complete.
func TestInsertBatchGrowsEmptyTree(t *testing.T) {
	entries := genEntries(20000, 23)
	tree := MustNew(Config{Fanout: 8, Bounds: EntryBounds(entries)})
	tree.InsertBatch(append([]data.Entry(nil), entries...))
	if err := tree.Validate(); err != nil {
		t.Fatalf("invalid after giant batch: %v", err)
	}
	if tree.Len() != len(entries) || tree.Height() < 3 {
		t.Fatalf("Len = %d, Height = %d; want %d entries over multiple levels",
			tree.Len(), tree.Height(), len(entries))
	}
	for _, q := range testQueries() {
		if got, want := tree.ReportAll(q), bruteRange(entries, q); !sameIDs(got, want) {
			t.Errorf("range %v: got %d, want %d", q, len(got), len(want))
		}
	}
	// A zero-length batch is a no-op.
	tree.InsertBatch(nil)
	if tree.Len() != len(entries) {
		t.Fatal("empty batch mutated the tree")
	}
}

// TestInsertBatchThenDelete interleaves batch inserts with deletes: the
// key cache and LHVs must survive condensation and reinsertion.
func TestInsertBatchThenDelete(t *testing.T) {
	all := genEntries(4000, 31)
	tree := MustNew(Config{Fanout: 16, Bounds: EntryBounds(all)})
	tree.BulkLoad(all[:2000])
	tree.InsertBatch(append([]data.Entry(nil), all[2000:]...))
	for i := 0; i < 1500; i++ {
		if !tree.Delete(all[i]) {
			t.Fatalf("entry %d not found for delete", i)
		}
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("invalid after deletes: %v", err)
	}
	remaining := all[1500:]
	for _, q := range testQueries() {
		if got, want := tree.ReportAll(q), bruteRange(remaining, q); !sameIDs(got, want) {
			t.Errorf("range %v: got %d, want %d", q, len(got), len(want))
		}
	}
}

// TestInsertBatchOfOneAllocs pins what a shard host pays per mirrored
// record: a single-record InsertBatch into a warmed tree sorts nothing and
// copies no child list, so it allocates only when a node splits — on
// average well under once per call.
func TestInsertBatchOfOneAllocs(t *testing.T) {
	rng := stats.NewRNG(1)
	tree := MustNew(Config{Fanout: 64, Bounds: geo.NewRect(geo.Vec{0, 0, 0}, geo.Vec{1000, 1000, 1000})})
	one := make([]data.Entry, 1)
	id := 0
	insert := func() {
		one[0] = data.Entry{ID: data.ID(id), Pos: geo.Vec{rng.Uniform(0, 1000), rng.Uniform(0, 1000), rng.Uniform(0, 1000)}}
		id++
		tree.InsertBatch(one)
	}
	for range 50_000 {
		insert()
	}
	if avg := testing.AllocsPerRun(2000, insert); avg >= 1 {
		t.Errorf("single-record InsertBatch: %.2f allocs per call, want < 1", avg)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

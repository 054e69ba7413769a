package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"storm/internal/data"
	"storm/internal/estimator"
	"storm/internal/gen"
	"storm/internal/geo"
	"storm/internal/rtree"
	"storm/internal/sampling"
	"storm/internal/stats"
)

// TestLazyLSTreeMatchesEager: on an unmutated dataset, the LS-tree the first
// LS-tree query builds is the tree Register builds under IndexOptions.LSTree
// with the same seed — every level's structure, and the seeded stream over
// it, is identical.
func TestLazyLSTreeMatchesEager(t *testing.T) {
	for _, set := range goldenSets {
		t.Run(set.name, func(t *testing.T) {
			ds := set.build()
			lazy, err := New(Config{Seed: 7, Fanout: 16}).Register(ds, IndexOptions{})
			if err != nil {
				t.Fatal(err)
			}
			e := New(Config{Seed: 7, Fanout: 16})
			rsSeed := e.nextSeed()
			if want := stats.MixSeed(rsSeed); lazy.lsSeed != want {
				t.Fatalf("lazy LS seed %d, want stats.MixSeed(rsSeed) = %d", lazy.lsSeed, want)
			}
			eager, err := e.buildLocal(ds, rtree.STROrderDataset(16, ds), true, rsSeed, lazy.lsSeed)
			if err != nil {
				t.Fatal(err)
			}
			got, err := lazy.Sample(set.q, 400, MethodLSTree, sampling.WithoutReplacement, 99)
			if err != nil {
				t.Fatal(err)
			}
			want, err := eager.Sample(set.q, 400, MethodLSTree, sampling.WithoutReplacement, 99)
			if err != nil {
				t.Fatal(err)
			}
			if idDigest(got) != idDigest(want) {
				t.Error("seeded LS-tree stream differs between the lazy and the eager build")
			}
			lz, eg := lazy.ls.Load(), eager.ls.Load()
			if lz.Levels() != eg.Levels() {
				t.Fatalf("lazy build has %d levels, eager %d", lz.Levels(), eg.Levels())
			}
			for i := 0; i < lz.Levels(); i++ {
				if a, b := treeDigest(lz.Level(i)), treeDigest(eg.Level(i)); a != b {
					t.Errorf("level %d: lazy %s, eager %s", i, a, b)
				}
			}
		})
	}
}

// TestLazyLSTreeAfterChurn: inserts and deletes that land before the first
// LS-tree query are part of the population it builds the tree over, and the
// ones after it are maintained — the LS population always equals the
// RS-tree's, and an exhaustive LS-tree stream never draws a deleted record.
func TestLazyLSTreeAfterChurn(t *testing.T) {
	_, h := buildHandle(t, 5000, false)
	universe := geo.Range{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100, MinT: 0, MaxT: 100}
	deleted := map[data.ID]bool{}
	churn := func(round int) {
		rows := make([]data.Row, 300)
		for i := range rows {
			f := float64(i+round*300) / 900
			rows[i] = data.Row{Pos: geo.Vec{100 * f, 100 * (1 - f), 50}, Num: map[string]float64{"value": f}}
		}
		ids := h.InsertBatch(rows)
		for i := round; i < 4000; i += 11 {
			if h.Delete(data.ID(i)) {
				deleted[data.ID(i)] = true
			}
		}
		h.Delete(ids[0])
		deleted[ids[0]] = true
		box := geo.Range{MinX: 10 + 30*float64(round), MinY: 10, MaxX: 20 + 30*float64(round), MaxY: 20, MinT: 0, MaxT: 100}
		h.mu.RLock()
		gone := h.rs.Tree().ReportAll(box.Rect())
		h.mu.RUnlock()
		if n, err := h.DeleteRange(box); err != nil || n != len(gone) {
			t.Fatalf("DeleteRange removed %d (err %v), want %d", n, err, len(gone))
		}
		for _, e := range gone {
			deleted[e.ID] = true
		}
	}
	check := func(when string) {
		live := h.Count(universe)
		es, err := h.Sample(universe, live+10, MethodLSTree, sampling.WithoutReplacement, 5)
		if err != nil {
			t.Fatal(err)
		}
		if ls := h.ls.Load(); ls.Len() != h.Len() || ls.Level(0).Count(testRange.Rect()) != h.Count(testRange) {
			t.Errorf("%s: LS-tree holds %d records (%d in testRange), RS-tree %d (%d)",
				when, ls.Len(), ls.Level(0).Count(testRange.Rect()), h.Len(), h.Count(testRange))
		}
		if len(es) != live {
			t.Errorf("%s: exhaustive LS-tree stream drew %d records, RS-tree Count %d", when, len(es), live)
		}
		seen := map[data.ID]bool{}
		for _, e := range es {
			if deleted[e.ID] {
				t.Fatalf("%s: drew deleted record %d", when, e.ID)
			}
			if seen[e.ID] {
				t.Fatalf("%s: drew record %d twice", when, e.ID)
			}
			seen[e.ID] = true
		}
	}
	churn(0)
	churn(1)
	if h.HasLSTree() {
		t.Fatal("churn built the LS-tree")
	}
	check("first use after churn")
	churn(2)
	check("churn after first use")
}

// TestLazyLSTreeBuildsOnce races first LS-tree queries against an ingest
// drain (run under -race by `make race`): the tree is built exactly once,
// and every query gets a stream over it.
func TestLazyLSTreeBuildsOnce(t *testing.T) {
	e := New(Config{Seed: 3, Fanout: 32})
	h, err := e.Register(gen.Uniform(20_000, 7, geo.Range{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100, MinT: 0, MaxT: 100}), IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var drain sync.WaitGroup
	drain.Add(1)
	go func() {
		defer drain.Done()
		rows := make([]data.Row, 64)
		for i := range rows {
			rows[i] = data.Row{Pos: geo.Vec{float64(i), 50, 50}, Num: map[string]float64{"value": 1}}
		}
		for {
			select {
			case <-stop:
				return
			default:
				h.InsertBatch(rows)
			}
		}
	}()

	const queries = 8
	start := make(chan struct{})
	errs := make(chan error, queries)
	var wg sync.WaitGroup
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			<-start
			snap, err := h.Estimate(context.Background(), testRange, Options{
				Kind: estimator.Avg, Attr: "value", Method: MethodLSTree, MaxSamples: 200, Seed: seed,
			})
			if err == nil && snap.Samples != 200 {
				err = fmt.Errorf("seed %d: %d samples, want 200", seed, snap.Samples)
			}
			errs <- err
		}(int64(i + 1))
	}
	close(start)
	wg.Wait()
	close(stop)
	drain.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if got := e.Obs().Counter("storm.engine.lstree.builds").Value(); got != 1 {
		t.Errorf("storm.engine.lstree.builds = %d, want 1", got)
	}
	if ls := h.ls.Load(); ls.Len() != h.Len() {
		t.Errorf("LS-tree holds %d records after the drain, RS-tree %d", ls.Len(), h.Len())
	}
}

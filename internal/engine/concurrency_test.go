package engine

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"storm/internal/data"
	"storm/internal/estimator"
	"storm/internal/gen"
	"storm/internal/geo"
	"storm/internal/sampling"
)

// TestConcurrentQueriesWithUpdates is the concurrency stress test: many
// goroutines run mixed estimate and KDE queries against one dataset while
// a writer interleaves inserts and deletes. Run under -race it exercises
// the shared-immutable/query-local split end to end; the assertions check
// that every estimate stays unbiased (inserted rows follow the same
// distribution, so the population mean is stable) and every confidence
// interval is well-formed.
func TestConcurrentQueriesWithUpdates(t *testing.T) {
	_, h := buildHandleWithPool(t, 20000, true, 256)
	truth, cnt := trueMean(h, testRange, "value")
	if cnt == 0 {
		t.Fatal("empty test range")
	}

	const readers = 8
	const queriesPerReader = 3
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, readers*queriesPerReader+1)

	methods := []Method{MethodRSTree, MethodLSTree, Auto}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < queriesPerReader; i++ {
				if (g+i)%3 == 2 {
					// KDE query.
					ch, err := h.KDEOnline(ctx, testRange, KDEOptions{Nx: 8, Ny: 8},
						Options{MaxSamples: 400, ReportEvery: 100})
					if err != nil {
						errs <- err
						return
					}
					var last KDESnapshot
					for s := range ch {
						last = s
					}
					if last.Map == nil || !last.Done {
						errs <- fmt.Errorf("reader %d: KDE finished without a map", g)
					}
					continue
				}
				m := methods[(g+i)%len(methods)]
				snap, err := h.Estimate(ctx, testRange, Options{
					Kind: estimator.Avg, Attr: "value",
					MaxSamples: 800, ReportEvery: 200, Method: m,
				})
				if err != nil {
					errs <- err
					return
				}
				if snap.Samples == 0 {
					errs <- fmt.Errorf("reader %d: no samples (method %v)", g, m)
					continue
				}
				if snap.HalfWidth < 0 || math.IsNaN(snap.HalfWidth) {
					errs <- fmt.Errorf("reader %d: invalid half-width %v", g, snap.HalfWidth)
				}
				// Unbiasedness: updates draw from the same distribution, so
				// the mean stays near the pre-update truth. Allow 5 CI
				// half-widths plus slack for the population drift.
				if diff := math.Abs(snap.Value - truth); diff > 5*snap.HalfWidth+5 {
					errs <- fmt.Errorf("reader %d: estimate %.2f vs truth %.2f (hw %.2f)", g, snap.Value, truth, snap.HalfWidth)
				}
			}
		}(g)
	}

	// Writer: interleave inserts and deletes while queries run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			if i%3 == 2 {
				h.Delete(data.ID(i * 7 % 20000))
				continue
			}
			h.Insert(data.Row{
				Pos: geo.Vec{30 + float64(i%30), 30 + float64(i%25), float64(i % 100)},
				Num: map[string]float64{"value": 100},
			})
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// buildHandleWithPool is buildHandle with an I/O-simulating buffer pool,
// so per-query attribution paths run during the stress test.
func buildHandleWithPool(t testing.TB, n int, lstree bool, pages int) (*Engine, *Handle) {
	t.Helper()
	e := New(Config{Seed: 42, Fanout: 32, BufferPoolPages: pages})
	ds := gen.Uniform(n, 7, geo.Range{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100, MinT: 0, MaxT: 100})
	h, err := e.Register(ds, IndexOptions{LSTree: lstree})
	if err != nil {
		t.Fatal(err)
	}
	return e, h
}

// TestSameSeedSameStreamSerialVsConcurrent is the seed-plumbing regression
// test: a query's explicit seed must fully determine its sample stream, no
// matter what else runs at the same time. The serial reference stream is
// compared against copies raced against each other and against queries
// with different seeds (which perturb the lazy buffer cache, and on a
// cluster open streams of their own on every shard).
func TestSameSeedSameStreamSerialVsConcurrent(t *testing.T) {
	for _, method := range []Method{MethodRSTree, MethodLSTree, MethodDistributed} {
		t.Run(method.String(), func(t *testing.T) {
			var h *Handle
			if method == MethodDistributed {
				_, h = buildShardedHandle(t, 10000, 4, nil)
			} else {
				_, h = buildHandle(t, 10000, true)
			}
			const seed = 12345
			const k = 500
			ref, err := h.Sample(testRange, k, method, sampling.WithoutReplacement, seed)
			if err != nil {
				t.Fatal(err)
			}
			if len(ref) == 0 {
				t.Fatal("empty reference stream")
			}

			const dup = 6
			streams := make([][]data.Entry, dup)
			var wg sync.WaitGroup
			for i := 0; i < dup; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					if i%2 == 1 {
						// Perturb shared cache state with an unrelated query.
						_, _ = h.Sample(testRange, k, method, sampling.WithoutReplacement, int64(999+i))
					}
					s, err := h.Sample(testRange, k, method, sampling.WithoutReplacement, seed)
					if err != nil {
						t.Error(err)
						return
					}
					streams[i] = s
				}(i)
			}
			wg.Wait()

			for i, s := range streams {
				if len(s) != len(ref) {
					t.Fatalf("stream %d: %d samples, reference %d", i, len(s), len(ref))
				}
				for j := range s {
					if s[j].ID != ref[j].ID {
						t.Fatalf("stream %d diverges from reference at sample %d: %d vs %d", i, j, s[j].ID, ref[j].ID)
					}
				}
			}
		})
	}
}

// TestPerQueryIOAttribution checks that concurrent queries each see their
// own I/O counters: totals must be positive, internally consistent, and
// (summed) no larger than what the shared device recorded.
func TestPerQueryIOAttribution(t *testing.T) {
	e, h := buildHandleWithPool(t, 20000, false, 128)
	ctx := context.Background()

	const n = 4
	var wg sync.WaitGroup
	snaps := make([]Snapshot, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			snap, err := h.Estimate(ctx, testRange, Options{
				Kind: estimator.Avg, Attr: "value",
				MaxSamples: 500, ReportEvery: 100, Method: MethodRSTree,
			})
			if err != nil {
				t.Error(err)
				return
			}
			snaps[i] = snap
		}(i)
	}
	wg.Wait()

	var sumLogical uint64
	for i, s := range snaps {
		if s.IO.Logical == 0 {
			t.Errorf("query %d: no attributed I/O", i)
		}
		if s.IO.Logical != s.IO.Reads+s.IO.Hits {
			t.Errorf("query %d: logical %d != reads %d + hits %d", i, s.IO.Logical, s.IO.Reads, s.IO.Hits)
		}
		sumLogical += s.IO.Logical
	}
	if dev := e.Device().Stats().Logical; sumLogical > dev {
		t.Errorf("attributed logical I/O %d exceeds device total %d", sumLogical, dev)
	}
}

// namedUniform is gen.Uniform under a caller-chosen dataset name.
func namedUniform(name string, n int, seed int64) *data.Dataset {
	src := gen.Uniform(n, seed, geo.Range{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100, MinT: 0, MaxT: 100})
	col, _ := src.NumericColumn("value")
	ds := data.NewDataset(name)
	ds.AddNumericColumn("value")
	for i := 0; i < src.Len(); i++ {
		ds.Append(data.Row{Pos: src.Pos(uint64(i)), Num: map[string]float64{"value": col[i]}})
	}
	return ds
}

// TestRegisterDoesNotBlockOtherDatasets pins that Register builds outside
// the engine lock: while dataset b is being indexed, lookups of — and exact
// counts on — the already-registered dataset a keep completing. A round
// counts only if b is still unpublished once it has finished; with the
// build under the lock every round but (at most) the first would block
// until b was visible.
func TestRegisterDoesNotBlockOtherDatasets(t *testing.T) {
	e := New(Config{Seed: 42, Fanout: 32})
	if _, err := e.Register(namedUniform("a", 5_000, 7), IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	b := namedUniform("b", 150_000, 8)

	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		close(started)
		_, err := e.Register(b, IndexOptions{LSTree: true, Shards: 2})
		done <- err
	}()
	<-started

	during := 0
	for registered := false; !registered; {
		h, err := e.Dataset("a")
		if err != nil {
			t.Fatal(err)
		}
		if got := h.Count(testRange); got == 0 {
			t.Fatal("COUNT on a returned 0")
		}
		names := e.Datasets()
		if _, err := e.Dataset("b"); err != nil {
			during++
			if len(names) != 1 {
				t.Fatalf("half-registered dataset listed: %v", names)
			}
		} else {
			registered = true
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if during < 3 {
		t.Errorf("%d lookup rounds on a completed while b was registering, want several", during)
	}
}

// TestRegisterSameNameConcurrently races registrations of one name: exactly
// one wins, the rest fail without publishing anything, and a failed build
// releases its reservation.
func TestRegisterSameNameConcurrently(t *testing.T) {
	e := New(Config{Seed: 42, Fanout: 32})
	const racers = 6
	errs := make([]error, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = e.Register(namedUniform("dup", 20_000, int64(i)), IndexOptions{LSTree: true, Shards: 2, Replicas: 2})
		}(i)
	}
	wg.Wait()
	won := 0
	for _, err := range errs {
		if err == nil {
			won++
		}
	}
	if won != 1 {
		t.Fatalf("%d of %d concurrent registrations of one name succeeded, want exactly 1: %v", won, racers, errs)
	}
	if names := e.Datasets(); len(names) != 1 || names[0] != "dup" {
		t.Fatalf("datasets after the race = %v", names)
	}

	// Every index rejects fanout 2, so the build fails with the cluster
	// goroutine in flight; the name must come free again, not stay reserved.
	bad := New(Config{Seed: 1, Fanout: 2})
	for attempt := 0; attempt < 2; attempt++ {
		_, err := bad.Register(namedUniform("x", 500, 1), IndexOptions{LSTree: true, Shards: 2})
		if err == nil || strings.Contains(err.Error(), "already registered") {
			t.Fatalf("attempt %d: err = %v, want the fanout error", attempt, err)
		}
	}
	if names := bad.Datasets(); len(names) != 0 {
		t.Fatalf("failed registration left %v behind", names)
	}
}

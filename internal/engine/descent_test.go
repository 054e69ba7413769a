package engine

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"storm/internal/data"
	"storm/internal/estimator"
	"storm/internal/geo"
	"storm/internal/pred"
	"storm/internal/rtree"
)

// TestOneDescentPerRequest is the deterministic gate on a request's fixed
// planning cost: the shared device's Logical counter may move, outside the
// query's own attributed charges (its sampler's, or the exact plan's reads
// under the covered subtrees), by exactly one Count descent of the region
// per request — plus one CountWhere descent when a compiled predicate
// sizes the population — however many layers (server pre-check, contract
// planner, optimizer, population) want the count. The exact plan's descent
// is that Count (or CountWhere) descent.
func TestOneDescentPerRequest(t *testing.T) {
	e, h := buildHandleWithPool(t, 20000, false, 64)
	ctx := context.Background()
	dev := e.Device()
	where := []pred.Term{{Attr: "value", Lo: 100, Hi: math.Inf(1)}}

	delta := func(f func()) uint64 {
		before := dev.Stats().Logical
		f()
		return dev.Stats().Logical - before
	}
	// The reference descents, walked directly on the tree.
	rect := testRange.Rect()
	count := delta(func() { h.rs.Count(rect) })
	plan, empty, err := h.planWhere(where, PushdownAuto)
	if err != nil || empty || plan == nil {
		t.Fatalf("fixture predicate must neither pass nor fail every record: plan %v, empty %v, err %v", plan, empty, err)
	}
	countWhere := delta(func() { h.rs.Tree().CountWhere(rect, plan.treeFilter(h.sums)) })
	if count == 0 || countWhere == 0 {
		t.Fatalf("reference descents charged nothing: Count %d, CountWhere %d pages", count, countWhere)
	}

	t.Run("exact COUNT", func(t *testing.T) {
		var snap Snapshot
		got := delta(func() { snap, err = h.Estimate(ctx, testRange, Options{Kind: estimator.Count}) })
		if err != nil || !snap.Exact {
			t.Fatalf("COUNT: %+v, %v", snap, err)
		}
		if got != count {
			t.Errorf("exact COUNT charged %d pages, want one Count descent = %d", got, count)
		}
	})
	t.Run("ESTIMATE", func(t *testing.T) {
		var snap Snapshot
		got := delta(func() {
			snap, err = h.Estimate(ctx, testRange, Options{Kind: estimator.Avg, Attr: "value", MaxSamples: 64})
		})
		if err != nil || snap.Samples != 64 {
			t.Fatalf("ESTIMATE: %+v, %v", snap, err)
		}
		if want := count + snap.IO.Logical; got != want {
			t.Errorf("ESTIMATE charged %d pages, want one Count descent + the sampler's own = %d + %d", got, count, snap.IO.Logical)
		}
	})
	t.Run("exact ESTIMATE", func(t *testing.T) {
		// A region wide enough to cover internal nodes. The covered
		// subtrees' nodes below their roots, which the descent charged, are
		// what the exact plan reads besides it.
		wide := geo.Range{MinX: 5, MinY: 5, MaxX: 95, MaxY: 95, MinT: 0, MaxT: 100}
		count := delta(func() { h.rs.Count(wide.Rect()) })
		var below uint64
		var size func(n *rtree.Node) uint64
		size = func(n *rtree.Node) uint64 {
			k := uint64(1)
			for _, c := range n.Children() {
				k += size(c)
			}
			return k
		}
		for _, p := range h.rs.Tree().Canonical(wide.Rect()) {
			if p.Full {
				below += size(p.Node) - 1
			}
		}
		if below == 0 {
			t.Fatal("fixture: the region covers no internal node")
		}
		var snap Snapshot
		got := delta(func() { snap, err = h.Estimate(ctx, wide, Options{Kind: estimator.Avg, Attr: "value"}) })
		if err != nil || snap.Method != "exact" {
			t.Fatalf("ESTIMATE: %+v, %v; want the exact plan", snap, err)
		}
		if snap.IO.Logical != below || got != count+below {
			t.Errorf("exact ESTIMATE charged %d pages, %d of them its own; want one Count descent + the covered subtrees = %d + %d",
				got, snap.IO.Logical, count, below)
		}
	})
	t.Run("exact predicate contract", func(t *testing.T) {
		opts := Options{Kind: estimator.Avg, Attr: "value", Where: where}
		c := Contract{RelError: 0.001, Deadline: 2 * time.Second}
		var res ContractResult
		got := delta(func() {
			var cp ContractPlan
			if cp, err = h.ExplainContract(testRange, opts, c); err == nil {
				res, err = h.ExecuteContract(ctx, testRange, opts, cp)
			}
		})
		if err != nil || res.Method != "exact" {
			t.Fatalf("contract: %+v, %v; want the exact plan", res, err)
		}
		if want := countWhere + res.IO.Logical; got != want {
			t.Errorf("exact contract charged %d pages, want one CountWhere descent + its own = %d + %d", got, countWhere, res.IO.Logical)
		}
	})
	t.Run("predicate contract", func(t *testing.T) {
		opts := Options{Kind: estimator.Avg, Attr: "value", Where: where, Method: MethodRSTree}
		c := Contract{RelError: 0.05, Deadline: 2 * time.Second}
		var res ContractResult
		got := delta(func() {
			// What server.contractQuery does: plan, look at the plan, run it.
			var cp ContractPlan
			if cp, err = h.ExplainContract(testRange, opts, c); err == nil {
				res, err = h.ExecuteContract(ctx, testRange, opts, cp)
			}
		})
		if err != nil || res.Samples == 0 {
			t.Fatalf("contract: %+v, %v", res, err)
		}
		if want := count + countWhere + res.IO.Logical; got != want {
			t.Errorf("contract charged %d pages, want one Count + one CountWhere + the sampler's own = %d + %d + %d",
				got, count, countWhere, res.IO.Logical)
		}
	})
	t.Run("EXPLAIN", func(t *testing.T) {
		if got := delta(func() { _, err = h.ExplainWhere(testRange, nil, PushdownAuto) }); err != nil || got != count {
			t.Errorf("EXPLAIN charged %d pages (err %v), want one Count descent = %d", got, err, count)
		}
		if got := delta(func() { _, err = h.ExplainWhere(testRange, where, PushdownAuto) }); err != nil || got != count+countWhere {
			t.Errorf("EXPLAIN … WHERE charged %d pages (err %v), want one Count + one CountWhere = %d + %d", got, err, count, countWhere)
		}
	})
}

// TestStalePlanIsRecounted plans a contract, changes what the plan counted,
// and only then executes with that plan: its range count no longer describes
// the dataset the query runs on, so the execution must count again and
// answer over the population it actually sampled.
func TestStalePlanIsRecounted(t *testing.T) {
	ctx := context.Background()
	opts := Options{Kind: estimator.Avg, Attr: "value"}
	c := Contract{RelError: 0.02, Deadline: 5 * time.Second}
	rows := func(n int, x, y float64) []data.Row {
		out := make([]data.Row, n)
		for i := range out {
			out[i] = data.Row{Pos: geo.Vec{x, y, 50}, Num: map[string]float64{"value": 100}}
		}
		return out
	}
	// execute runs a plan made on planned against h, which must answer over
	// its own count of testRange.
	execute := func(t *testing.T, planned, h *Handle, change func()) {
		t.Helper()
		cp, err := planned.ExplainContract(testRange, opts, c)
		if err != nil {
			t.Fatal(err)
		}
		change()
		want := h.Count(testRange)
		if want == cp.counted.n {
			t.Fatalf("fixture: the region still holds the planned %d records", want)
		}
		res, err := h.ExecuteContract(ctx, testRange, opts, cp)
		if err != nil {
			t.Fatal(err)
		}
		if res.Population != want {
			t.Errorf("population %d from a plan that counted %d, want the current count %d", res.Population, cp.counted.n, want)
		}
	}

	// A drain keeps ingesting elsewhere meanwhile, so under -race the
	// carried count also meets concurrent writers.
	t.Run("insert", func(t *testing.T) {
		_, h := buildHandle(t, 5000, false)
		stop := make(chan struct{})
		var drain sync.WaitGroup
		drain.Add(1)
		go func() {
			defer drain.Done()
			for {
				select {
				case <-stop:
					return
				default:
					h.InsertBatch(rows(8, 90, 90)) // outside testRange
				}
			}
		}()
		defer func() {
			close(stop)
			drain.Wait()
		}()
		execute(t, h, h, func() { h.InsertBatch(rows(300, 40, 40)) })
	})
	t.Run("delete", func(t *testing.T) {
		_, h := buildHandle(t, 5000, false)
		execute(t, h, h, func() {
			if n, err := h.DeleteRange(geo.Range{MinX: 30, MinY: 30, MaxX: 40, MaxY: 40, MinT: 0, MaxT: 100}); n == 0 || err != nil {
				t.Fatalf("DeleteRange inside testRange removed %d (err %v)", n, err)
			}
		})
	})
	// Same version, same rectangle, another dataset: the handle keys the
	// count, so the plan is not reused.
	t.Run("other handle", func(t *testing.T) {
		_, planned := buildHandle(t, 5000, false)
		_, h := buildHandle(t, 3000, false)
		execute(t, planned, h, func() {
			if planned.version != h.version {
				t.Fatalf("fixture: versions %d and %d differ", planned.version, h.version)
			}
		})
	})
}

// TestVersionBumpsOncePerMutation pins the handle version's two writers:
// every mutation that changes the indexed records moves it by exactly one,
// and nothing else moves it.
func TestVersionBumpsOncePerMutation(t *testing.T) {
	_, h := buildHandle(t, 5000, false)
	ctx := context.Background()
	version := func() uint64 {
		h.mu.RLock()
		defer h.mu.RUnlock()
		return h.version
	}
	row := func(x float64) data.Row {
		return data.Row{Pos: geo.Vec{x, x, 50}, Num: map[string]float64{"value": 1}}
	}
	box := geo.Range{MinX: 30, MinY: 30, MaxX: 35, MaxY: 35, MinT: 0, MaxT: 100}
	empty := geo.Range{MinX: 200, MinY: 200, MaxX: 300, MaxY: 300, MinT: 0, MaxT: 100}
	ids := h.InsertBatch([]data.Row{row(1)})
	for _, step := range []struct {
		name string
		want uint64
		op   func()
	}{
		{"Insert", 1, func() { h.Insert(row(2)) }},
		{"InsertBatch of 5", 1, func() { h.InsertBatch([]data.Row{row(3), row(4), row(5), row(6), row(7)}) }},
		{"Delete", 1, func() { h.Delete(ids[0]) }},
		{"DeleteRange", 1, func() { h.DeleteRange(box) }},
		{"empty InsertBatch", 0, func() { h.InsertBatch(nil) }},
		{"Delete of an absent ID", 0, func() { h.Delete(data.ID(1 << 40)) }},
		{"Delete of a deleted ID", 0, func() { h.Delete(ids[0]) }},
		{"empty DeleteRange", 0, func() { h.DeleteRange(empty) }},
		{"lazy LS-tree build", 0, func() {
			h.Estimate(ctx, testRange, Options{Kind: estimator.Avg, Attr: "value", Method: MethodLSTree, MaxSamples: 50})
		}},
		{"queries", 0, func() {
			h.Estimate(ctx, testRange, Options{Kind: estimator.Count})
			h.Estimate(ctx, testRange, Options{Kind: estimator.Avg, Attr: "value", MaxSamples: 50})
			h.ExplainWhere(testRange, nil, PushdownAuto)
		}},
	} {
		before := version()
		step.op()
		if got := version() - before; got != step.want {
			t.Errorf("%s moved the version by %d, want %d", step.name, got, step.want)
		}
	}
	if !h.HasLSTree() {
		t.Error("the LS-tree query did not build the LS-tree")
	}
}

package sampling_test

import (
	"fmt"
	"math"
	"testing"

	"storm/internal/data"
	"storm/internal/distr"
	"storm/internal/distr/distrtest"
	"storm/internal/geo"
	"storm/internal/lstree"
	"storm/internal/pred"
	"storm/internal/rstree"
	"storm/internal/rtree"
	"storm/internal/sampling"
	"storm/internal/sampling/samplingtest"
	"storm/internal/stats"
)

// restPulls is the pull pattern of the Rest checks: single draws between
// the engine's smallest batch and a larger one.
var restPulls = []int{1, 16, 7, 64}

// restPrefixes are the stream positions the Rest checks stop at, for a
// population of q: the start, early, the middle, near the end, the end.
func restPrefixes(q int) []int { return []int{0, 10, q / 2, q - 40, q - 3, q} }

// qualifying is the brute-force set: the live entries inside r that pass
// where (nil passes all).
func qualifying(live map[data.ID]data.Entry, r geo.Rect, where *pred.Compiled) []data.ID {
	var out []data.ID
	for id, e := range live {
		if r.Contains(e.Pos) && (where == nil || where.Match(id)) {
			out = append(out, id)
		}
	}
	return out
}

// TestRestInvariantRSTree holds the RS-tree's exact finish to the Rest
// contract at fanout 8 (leaf-parent parts of 64 records) and 64, with
// pushdown and rejection WHERE, a LAST-style time window and a tree after
// insert/delete churn. Every case must finish exactly somewhere and, as the
// rest is counted exactly, never only without a cap.
func TestRestInvariantRSTree(t *testing.T) {
	ds := distrtest.Dataset(12000)
	q := distrtest.Query()
	window := geo.NewRect(geo.Vec{20, 20, 30}, geo.Vec{60, 60, 45})
	where, err := pred.Normalize([]pred.Term{{Attr: "value", Lo: 105, Hi: math.Inf(1), LoOpen: true}}).Compile(ds)
	if err != nil {
		t.Fatal(err)
	}
	for _, fanout := range []int{8, 64} {
		entries := ds.Entries()
		rs, err := rstree.Build(entries, rstree.Config{Fanout: fanout, Seed: 31})
		if err != nil {
			t.Fatal(err)
		}
		sums := rtree.NewSummaries(rs.Tree(), ds)
		sums.Precompute()
		live := make(map[data.ID]data.Entry, len(entries))
		for _, e := range entries {
			live[e.ID] = e
		}
		check := func(name string, r geo.Rect, pushdown, reject *pred.Compiled) {
			t.Helper()
			want := qualifying(live, r, pushdown)
			if reject != nil {
				want = qualifying(live, r, reject)
			}
			seed := int64(len(name))
			mk := func() samplingtest.Rester {
				var f *rtree.TreeFilter
				if pushdown != nil {
					f = rtree.NewTreeFilter(pushdown, sums)
				}
				var s sampling.Sampler = rs.SamplerWhere(r, sampling.WithoutReplacement, stats.NewRNG(seed), f, nil)
				if reject != nil {
					s = sampling.NewFiltered(s, reject)
				}
				return s
			}
			label := fmt.Sprintf("rs-tree/f%d/%s", fanout, name)
			atLeft, uncapped := samplingtest.RestInvariant(t, label, mk, want, restPulls, restPrefixes(len(want))...)
			t.Logf("%s: population %d, exact finishes %d at the cap, %d uncapped", label, len(want), atLeft, uncapped)
			if reject == nil && (atLeft == 0 || uncapped != 0) {
				t.Errorf("%s: %d exact finishes at the cap, %d only uncapped; want some, none", label, atLeft, uncapped)
			}
			if reject != nil && atLeft+uncapped == 0 {
				t.Errorf("%s: never finished exactly", label)
			}
		}
		check("plain", q, nil, nil)
		check("pushdown", q, where, nil)
		check("reject", q, nil, where)
		check("window", window, nil, nil)
		check("window+pushdown", window, where, nil)

		// Churn: delete every third record of the region and move a few
		// hundred outside records into it.
		var del, moved []data.Entry
		i := 0
		for _, e := range entries {
			switch {
			case q.Contains(e.Pos):
				if i%3 == 0 {
					del = append(del, e)
				}
				i++
			case len(moved) < 300:
				del = append(del, e)
				m := e
				m.Pos = geo.Vec{20 + math.Mod(e.Pos[0], 40), 20 + math.Mod(e.Pos[1], 40), e.Pos[2]}
				moved = append(moved, m)
			}
		}
		for _, e := range del {
			if !rs.Delete(e) {
				t.Fatalf("delete %d failed", e.ID)
			}
			delete(live, e.ID)
		}
		for _, e := range moved {
			live[e.ID] = e
		}
		rs.InsertBatch(moved)
		check("churn", q, nil, nil)
		check("churn+pushdown", q, where, nil)
		check("churn+window", window, nil, nil)
	}
}

// TestRestInvariantQueryFirst: QueryFirst holds its whole rest once the
// range report has run, so it finishes exactly at every prefix but the
// first; Filtered over it finishes through the inner rest.
func TestRestInvariantQueryFirst(t *testing.T) {
	ds := distrtest.Dataset(6000)
	q := distrtest.Query()
	where, err := pred.Normalize([]pred.Term{{Attr: "value", Lo: 105, Hi: math.Inf(1), LoOpen: true}}).Compile(ds)
	if err != nil {
		t.Fatal(err)
	}
	tr := rtree.MustNew(rtree.Config{Fanout: 16})
	tr.BulkLoad(ds.Entries())
	live := make(map[data.ID]data.Entry)
	for _, e := range ds.Entries() {
		live[e.ID] = e
	}
	all := qualifying(live, q, nil)
	qf := func() *sampling.QueryFirst {
		return sampling.NewQueryFirst(tr, q, sampling.WithoutReplacement, stats.NewRNG(3))
	}
	mk := func() samplingtest.Rester { return qf() }
	prefixes := restPrefixes(len(all))
	if atLeft, uncapped := samplingtest.RestInvariant(t, "queryfirst", mk, all, restPulls, prefixes...); atLeft != len(prefixes)-1 || uncapped != 0 {
		t.Errorf("queryfirst: %d exact finishes at the cap, %d only uncapped; want %d, 0", atLeft, uncapped, len(prefixes)-1)
	}
	pushdown := func() samplingtest.Rester {
		return sampling.NewQueryFirstWhere(tr, q, sampling.WithoutReplacement, stats.NewRNG(4), rtree.NewTreeFilter(where, nil), nil)
	}
	some := qualifying(live, q, where)
	if atLeft, _ := samplingtest.RestInvariant(t, "queryfirst/pushdown", pushdown, some, restPulls, restPrefixes(len(some))...); atLeft == 0 {
		t.Error("queryfirst/pushdown: never finished exactly")
	}
	reject := func() samplingtest.Rester { return sampling.NewFiltered(qf(), where) }
	if atLeft, uncapped := samplingtest.RestInvariant(t, "queryfirst/reject", reject, some, restPulls, restPrefixes(len(some))...); atLeft+uncapped == 0 {
		t.Error("queryfirst/reject: never finished exactly")
	}
}

// TestRestRefusedByUnheldSamplers: the LS-tree, RandomPath, SampleFirst
// and the distributed coordinator hold no rest; their Rest refuses at every
// prefix and leaves the stream as it was.
func TestRestRefusedByUnheldSamplers(t *testing.T) {
	ds := distrtest.Dataset(4000)
	q := distrtest.Query()
	entries := ds.Entries()
	rs, err := rstree.Build(entries, rstree.Config{Fanout: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ls, err := lstree.Build(entries, lstree.Config{Fanout: 16, TopLevelMax: 128, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	live := make(map[data.ID]data.Entry)
	for _, e := range entries {
		live[e.ID] = e
	}
	want := qualifying(live, q, nil)
	for name, mk := range map[string]func() samplingtest.Rester{
		"ls-tree": func() samplingtest.Rester { return ls.Sampler(q, stats.NewRNG(1)) },
		"randompath": func() samplingtest.Rester {
			return sampling.NewRandomPath(rs.Tree(), q, sampling.WithoutReplacement, stats.NewRNG(2))
		},
		"samplefirst": func() samplingtest.Rester {
			return sampling.NewSampleFirst(ds, q, sampling.WithoutReplacement, stats.NewRNG(3), nil, 64)
		},
		"distributed": func() samplingtest.Rester {
			return distrtest.Build(t, ds, distr.Config{Shards: 2, Seed: 5}).Sampler(q)
		},
	} {
		if atLeft, uncapped := samplingtest.RestInvariant(t, name, mk, want, restPulls, 0, 100, len(want)); atLeft+uncapped != 0 {
			t.Errorf("%s: Rest accepted %d times", name, atLeft+uncapped)
		}
	}
}

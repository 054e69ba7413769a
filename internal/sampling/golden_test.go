package sampling_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"strings"
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

// goldenSerialFile pins the seeded one-at-a-time ID stream of every
// sampler: one line per case, "<name> <samples> <sha256 of the IDs>". It
// was recorded with each sampler's own Next method at the commit BEFORE
// NextBatch became the whole Sampler contract and must never be
// regenerated to make a refactor pass — a changed line means a seeded
// stream changed. The */wr/* lines are the with-replacement adapter's over
// each sampler, recorded when it replaced the samplers' own
// with-replacement paths. Every line was re-recorded once when stats.RNG
// moved onto PCG, which changed every seeded draw. STORM_UPDATE_GOLDEN=1
// rewrites it (for a deliberate, reviewed behaviour change only).
const goldenSerialFile = "testdata/golden_serial_streams.txt"

// goldenPulls are the pull patterns every case must reproduce its golden
// line under: one sample at a time through samplingtest.Next, and a cyclic
// mix of the sizes the engine's driver issues (it grows 16 → 1024) with
// one-sample pulls in between.
var goldenPulls = [][]int{nil, {1, 7, 64, 1, 1024}}

// goldenCase is one seeded stream: mk builds a fresh sampler (and, for
// the distributed cases, a fresh cluster, so fault plans start over),
// limit caps the infinite with-replacement streams (negative drains to
// exhaustion).
type goldenCase struct {
	name  string
	limit int
	mk    func() sampling.Sampler
}

// goldenDrain pulls s with the cyclic size pattern — nil means
// samplingtest.Next — and renders the stream as "<samples> <sha256>".
func goldenDrain(s sampling.Sampler, sizes []int, limit int) string {
	var ids []data.ID
	if sizes != nil {
		ids = samplingtest.Drain(s, sizes, limit)
	} else {
		for limit < 0 || len(ids) < limit {
			e, ok := samplingtest.Next(s)
			if !ok {
				break
			}
			ids = append(ids, e.ID)
		}
	}
	h := sha256.New()
	for _, id := range ids {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(id))
		h.Write(b[:])
	}
	return fmt.Sprintf("%d %x", len(ids), h.Sum(nil))
}

func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	ds := distrtest.Dataset(30000)
	q := distrtest.Query()
	entries := ds.Entries()
	terms := []pred.Term{{Attr: "value", Lo: 110, Hi: math.Inf(1), LoOpen: true}}
	where, err := pred.Normalize(terms).Compile(ds)
	if err != nil {
		t.Fatal(err)
	}

	// A tiny per-node buffer forces part materialization constantly, a
	// small top level forces LS-tree level fall-throughs.
	rs, err := rstree.Build(entries, rstree.Config{Fanout: 16, BufferSize: 4, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	sums := rtree.NewSummaries(rs.Tree(), ds)
	sums.Precompute()
	ls, err := lstree.Build(entries, lstree.Config{Fanout: 16, TopLevelMax: 128, Seed: 53, Attrs: ds})
	if err != nil {
		t.Fatal(err)
	}
	filter := func() *rtree.TreeFilter { return rtree.NewTreeFilter(where, sums) }

	const wrLimit = 3000
	all, qualifying := rs.Count(q), rs.Tree().CountWhere(q, filter())
	var cases []goldenCase
	// add registers the three predicate shapes of one sampler: none, the
	// sampler's own pushdown, and the Filtered rejection wrapper.
	add := func(name string, limit int, plain, pushdown func() sampling.Sampler) {
		cases = append(cases,
			goldenCase{name + "/plain", limit, plain},
			goldenCase{name + "/pushdown", limit, pushdown},
			goldenCase{name + "/reject", limit, func() sampling.Sampler { return sampling.NewFiltered(plain(), where) }},
		)
	}
	// wr registers the with-replacement adapter over each of add's
	// without-replacement shapes: the plain one over all the range's
	// records, the predicate ones over the qualifying records.
	wr := func(wor []goldenCase) {
		for i, c := range wor {
			n := qualifying
			if i%3 == 0 {
				n = all
			}
			cases = append(cases, goldenCase{strings.Replace(c.name, "/wor/", "/wr/", 1), wrLimit, replaced(c.mk, n)})
		}
	}
	add("rs-tree/wor", -1,
		func() sampling.Sampler { return rs.Sampler(q, stats.NewRNG(101)) },
		func() sampling.Sampler { return rs.SamplerWhere(q, stats.NewRNG(101), filter(), nil) })
	add("queryfirst/wor", -1,
		func() sampling.Sampler { return sampling.NewQueryFirst(rs.Tree(), q, stats.NewRNG(102)) },
		func() sampling.Sampler {
			return sampling.NewQueryFirstWhere(rs.Tree(), q, stats.NewRNG(102), filter(), nil)
		})
	add("randompath/wor", -1,
		func() sampling.Sampler { return sampling.NewRandomPath(rs.Tree(), q, stats.NewRNG(103)) },
		func() sampling.Sampler {
			return sampling.NewRandomPathWhere(rs.Tree(), q, stats.NewRNG(103), filter(), nil)
		})
	// Draining SampleFirst runs it into its degraded filtered scan, so
	// that path is pinned too.
	add("samplefirst/wor", -1,
		func() sampling.Sampler { return sampling.NewSampleFirst(ds, q, stats.NewRNG(104), nil, 64) },
		func() sampling.Sampler {
			sf := sampling.NewSampleFirst(ds, q, stats.NewRNG(104), nil, 64)
			sf.Pred = where
			return sf
		})
	wr(cases)
	add("ls-tree/wor", -1,
		func() sampling.Sampler { return ls.Sampler(q, stats.NewRNG(105)) },
		func() sampling.Sampler { return ls.SamplerWhere(q, stats.NewRNG(105), where, nil) })
	wr(cases[len(cases)-3:])

	cluster := func(cfg distr.Config) *distr.Cluster {
		c, err := distr.Build(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	for _, shards := range []int{1, 4, 8} {
		cfg := distr.Config{Shards: shards, Seed: 5}
		add(fmt.Sprintf("distributed/%d-shards", shards), -1,
			func() sampling.Sampler { return cluster(cfg).Sampler(q, stats.NewRNG(goldenClusterSeed)) },
			func() sampling.Sampler { return cluster(cfg).SamplerWhere(q, stats.NewRNG(goldenClusterSeed), terms) })
	}
	// Fault plans. A stream stays chunking-invariant across a fault as long
	// as the fault lands at the same stream position under every pull
	// pattern, which these three arrange:
	//   - crash-recover: the shard crashes after two fetches and is back
	//     within the fetch's own retry budget, so the stream is untouched
	//     wherever the crash falls;
	//   - crash: the shard that owns the healthy stream's first draw dies on
	//     its first fetch, so the loss lands in a one-sample round under
	//     every pattern (a loss inside a wider round re-weights the rest of
	//     that round instead of redrawing it — uniform, but a different
	//     stream);
	//   - failover: at R=2 the primary copy of shard 1 dies on its first
	//     fetch, before the shard has emitted anything, and the stream moves
	//     to the surviving clone.
	faulted := func(name string, replicas int, plan *distr.FaultPlan) {
		cases = append(cases, goldenCase{"distributed/4-shards/" + name, -1, func() sampling.Sampler {
			return cluster(distrtest.FastConfig(4, 5, plan, replicas)).Sampler(q, stats.NewRNG(goldenClusterSeed))
		}})
	}
	faulted("crash-recover", 1, &distr.FaultPlan{Shards: map[int]distr.ShardFaultPlan{
		1: {Crash: true, CrashAfterFetches: 2, RecoverAfter: 2}}})
	faulted("crash", 1, &distr.FaultPlan{Shards: map[int]distr.ShardFaultPlan{
		firstDrawShard(t, cluster(distrtest.FastConfig(4, 5, nil)), q): {Crash: true}}})
	faulted("failover", 2, &distr.FaultPlan{Replicas: map[distr.ReplicaTarget]distr.ShardFaultPlan{
		{Shard: 1, Replica: 0}: {Crash: true}}})
	return cases
}

// goldenClusterSeed seeds every distributed case's query RNG.
const goldenClusterSeed = 106

// firstDrawShard returns the shard of c whose records hold the first draw
// of the distributed cases' stream over q.
func firstDrawShard(t *testing.T, c *distr.Cluster, q geo.Rect) int {
	t.Helper()
	e, ok := samplingtest.Next(c.Sampler(q, stats.NewRNG(goldenClusterSeed)))
	if !ok {
		t.Fatal("the healthy stream is empty")
	}
	for i, sh := range c.Shards() {
		for _, m := range sh.Index().Tree().ReportAll(q) {
			if m.ID == e.ID {
				return i
			}
		}
	}
	t.Fatalf("record %d is on no shard", e.ID)
	return -1
}

// TestGoldenSerialStreams is the safety net under the one-draw-primitive
// refactor: every sampler × mode × predicate shape × cluster layout must
// reproduce the ID stream its own serial Next method produced at the
// parent commit, both one sample at a time and under a mixed pull pattern.
func TestGoldenSerialStreams(t *testing.T) {
	cases := goldenCases(t)

	if os.Getenv("STORM_UPDATE_GOLDEN") == "1" {
		var b strings.Builder
		for _, c := range cases {
			fmt.Fprintf(&b, "%s %s\n", c.name, goldenDrain(c.mk(), nil, c.limit))
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenSerialFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d cases)", goldenSerialFile, len(cases))
		return
	}

	file, err := os.Open(goldenSerialFile)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(file)
	for sc.Scan() {
		if name, rest, ok := strings.Cut(sc.Text(), " "); ok {
			want[name] = rest
		}
	}
	if len(want) != len(cases) {
		t.Errorf("golden file has %d cases, the test ran %d", len(want), len(cases))
	}
	for _, c := range cases {
		if strings.HasPrefix(want[c.name], "0 ") {
			t.Errorf("%s: golden stream is empty", c.name)
		}
		for _, sizes := range goldenPulls {
			if got := goldenDrain(c.mk(), sizes, c.limit); got != want[c.name] {
				t.Errorf("%s pulls %v: stream changed\n  golden: %s\n  got:    %s", c.name, sizes, want[c.name], got)
			}
		}
	}
}

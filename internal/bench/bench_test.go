package bench

import (
	"math"
	"testing"
)

// Small configurations keep these tests quick; the full-size runs live in
// cmd/stormbench and the root benchmarks.

func TestQueryForHitsTarget(t *testing.T) {
	ds := osmData(100_000, 1)
	for _, frac := range []float64{0.02, 0.05, 0.2} {
		q := queryFor(ds, frac)
		got := float64(exactCount(ds, q)) / float64(ds.Len())
		if got < frac*0.5 || got > frac*2.5 {
			t.Errorf("queryFor(%v) selectivity = %v", frac, got)
		}
	}
}

func TestFig3aShape(t *testing.T) {
	pts, err := Fig3a(Fig3aConfig{
		N: 100_000, QFrac: 0.05,
		Fractions: []float64{0.002, 0.01, 0.05, 0.10},
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	byMethod := map[string][]Fig3aPoint{}
	for _, p := range pts {
		byMethod[p.Method] = append(byMethod[p.Method], p)
	}
	for _, m := range []string{"RandomPath", "RS-tree", "RangeReport", "LS-tree"} {
		if len(byMethod[m]) != 4 {
			t.Fatalf("method %s has %d points", m, len(byMethod[m]))
		}
	}
	// Shape 1: at the smallest k, both STORM indexes beat RangeReport on
	// physical reads by a wide margin.
	small := func(m string) Fig3aPoint { return byMethod[m][0] }
	if small("RS-tree").Reads*5 > small("RangeReport").Reads {
		t.Errorf("small k: RS-tree reads %d not well below RangeReport %d",
			small("RS-tree").Reads, small("RangeReport").Reads)
	}
	if small("LS-tree").Reads*5 > small("RangeReport").Reads {
		t.Errorf("small k: LS-tree reads %d not well below RangeReport %d",
			small("LS-tree").Reads, small("RangeReport").Reads)
	}
	// Shape 2: RangeReport cost is flat in k (same full query each time).
	rr := byMethod["RangeReport"]
	if rr[len(rr)-1].Reads > rr[0].Reads*2 {
		t.Errorf("RangeReport reads should be flat: %d -> %d", rr[0].Reads, rr[len(rr)-1].Reads)
	}
	// Shape 3: RandomPath physical reads grow roughly linearly with k and
	// exceed the RS-tree's everywhere.
	rp := byMethod["RandomPath"]
	if rp[len(rp)-1].Reads < rp[0].Reads*5 {
		t.Errorf("RandomPath reads should grow with k: %d -> %d", rp[0].Reads, rp[len(rp)-1].Reads)
	}
	for i := range rp {
		if rp[i].Reads < byMethod["RS-tree"][i].Reads {
			t.Errorf("k/q=%v: RandomPath reads %d below RS-tree %d",
				rp[i].KOverQ, rp[i].Reads, byMethod["RS-tree"][i].Reads)
		}
	}
}

func TestFig3bShape(t *testing.T) {
	pts, err := Fig3b(Fig3bConfig{
		N: 100_000, QFrac: 0.05,
		Checkpoints: []int{16, 64, 256, 1024},
		Trials:      3,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	byMethod := map[string][]Fig3bPoint{}
	for _, p := range pts {
		byMethod[p.Method] = append(byMethod[p.Method], p)
	}
	for _, m := range []string{"RS-tree", "LS-tree"} {
		series := byMethod[m]
		if len(series) != 4 {
			t.Fatalf("method %s has %d points", m, len(series))
		}
		// Error decreases overall and ends small.
		if series[len(series)-1].RelErr >= series[0].RelErr {
			t.Errorf("%s: error did not fall (%v -> %v)", m, series[0].RelErr, series[len(series)-1].RelErr)
		}
		if series[len(series)-1].RelErr > 0.05 {
			t.Errorf("%s: final error %v too high", m, series[len(series)-1].RelErr)
		}
	}
}

func TestFig5Shape(t *testing.T) {
	pts, err := Fig5(Fig5Config{N: 100_000, Grid: 12, Checkpoints: []int{50, 200, 1000}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	byRegion := map[string][]Fig5Point{}
	for _, p := range pts {
		byRegion[p.Region] = append(byRegion[p.Region], p)
	}
	for _, reg := range []string{"SLC", "USA"} {
		series := byRegion[reg]
		if len(series) == 0 {
			t.Fatalf("no points for %s", reg)
		}
		last := series[len(series)-1]
		if last.RelErr >= series[0].RelErr {
			t.Errorf("%s: KDE error did not fall (%v -> %v)", reg, series[0].RelErr, last.RelErr)
		}
	}
}

func TestFig6aShape(t *testing.T) {
	pts, user, err := Fig6a(Fig6aConfig{N: 50_000, Users: 10, Checkpoints: []int{10, 50, 200}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if user == "" || len(pts) < 2 {
		t.Fatalf("user=%q points=%d", user, len(pts))
	}
	if pts[len(pts)-1].PathErr >= pts[0].PathErr {
		t.Errorf("trajectory error did not fall: %v -> %v", pts[0].PathErr, pts[len(pts)-1].PathErr)
	}
}

func TestFig6bShape(t *testing.T) {
	res, err := Fig6b(Fig6bConfig{N: 100_000, Checkpoints: []int{10, 100, 500}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) < 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	last := res.Points[len(res.Points)-1]
	if last.Recall < 0.8 {
		t.Errorf("final top-term recall %v too low", last.Recall)
	}
	if last.Recall < res.Points[0].Recall-0.1 {
		t.Errorf("recall fell: %v -> %v", res.Points[0].Recall, last.Recall)
	}
	if last.Sentiment >= 0 {
		t.Errorf("snowstorm sentiment %v should be negative", last.Sentiment)
	}
	if len(res.TopTerms) == 0 {
		t.Error("no top terms")
	}
}

func TestA1Shape(t *testing.T) {
	pts, err := A1(A1Config{N: 100_000, K: 1000, PoolFracs: []float64{0, 0.05, 0.25}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	byMethod := map[string][]A1Point{}
	for _, p := range pts {
		byMethod[p.Method] = append(byMethod[p.Method], p)
	}
	rs := byMethod["RS-tree"]
	// A modest pool slashes RS-tree physical reads.
	if rs[2].Reads*2 > rs[0].Reads {
		t.Errorf("RS-tree reads should collapse with a pool: %d -> %d", rs[0].Reads, rs[2].Reads)
	}
}

func TestA2Shape(t *testing.T) {
	pts, err := A2(A2Config{N: 100_000, K: 1000, Fanout: 16, BufSizes: []int{4, 64}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	// Tiny buffers exhaust fast, forcing far more lazy explosions; big
	// buffers instead pay acceptance/rejection on unsplit boundary
	// subtrees. Both sides of the trade-off must be visible.
	if pts[0].Explosions <= pts[1].Explosions {
		t.Errorf("buffer=4 explosions %d should exceed buffer=64's %d",
			pts[0].Explosions, pts[1].Explosions)
	}
	if pts[0].Rejects >= pts[1].Rejects {
		t.Errorf("buffer=4 rejects %d should be below buffer=64's %d",
			pts[0].Rejects, pts[1].Rejects)
	}
}

func TestA3UpdatesCorrect(t *testing.T) {
	res, err := A3(A3Config{N: 50_000, Updates: 5_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("results = %d", len(res))
	}
	for _, r := range res {
		if r.InsertsPerSecond <= 0 || r.DeletesPerSecond <= 0 {
			t.Errorf("%s: nonpositive rates %+v", r.Index, r)
		}
		if !r.FreshSampled {
			t.Errorf("%s: post-update samples incorrect", r.Index)
		}
	}
}

func TestA5Shape(t *testing.T) {
	pts, err := A5(A5Config{Sizes: []int{50_000}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	byIndex := map[string]A5Point{}
	for _, p := range pts {
		byIndex[p.Index] = p
	}
	// LS-tree stores about 2N entries (geometric levels).
	if r := byIndex["LS-tree"].SizeRatio; r < 1.7 || r > 2.3 {
		t.Errorf("LS-tree size ratio = %v, want ~2", r)
	}
	if byIndex["R-tree"].SizeRatio != 1 {
		t.Errorf("R-tree size ratio = %v", byIndex["R-tree"].SizeRatio)
	}
	// Both sampling indexes cost more to build than the plain tree.
	if byIndex["LS-tree"].BuildMS <= byIndex["R-tree"].BuildMS/2 {
		t.Errorf("LS-tree build %v suspiciously below R-tree %v",
			byIndex["LS-tree"].BuildMS, byIndex["R-tree"].BuildMS)
	}
	for _, p := range pts {
		if p.Nodes <= 0 || p.BuildMS <= 0 {
			t.Errorf("degenerate point %+v", p)
		}
	}
}

func TestA6Shape(t *testing.T) {
	pts, err := A6(A6Config{N: 60_000, Queries: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]A6Point{}
	for _, p := range pts {
		byName[p.Packing] = p
	}
	// Bulk-loaded trees beat the insertion-built tree on range I/O.
	if byName["hilbert"].AvgReads >= byName["insert-built"].AvgReads {
		t.Errorf("hilbert reads %v not below insert-built %v",
			byName["hilbert"].AvgReads, byName["insert-built"].AvgReads)
	}
	if byName["str (default)"].AvgReads >= byName["insert-built"].AvgReads {
		t.Errorf("str reads %v not below insert-built %v",
			byName["str (default)"].AvgReads, byName["insert-built"].AvgReads)
	}
	for _, p := range pts {
		if p.AvgCanonical <= 0 {
			t.Errorf("degenerate canonical size for %s", p.Packing)
		}
	}
}

func TestA4Shape(t *testing.T) {
	pts, err := A4(A4Config{N: 100_000, K: 2000, Shards: []int{1, 4}, Pulls: []int{16, 0}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	one16, oneK, four16, fourK := pts[0], pts[1], pts[2], pts[3]
	if oneK.Pull != 2000 {
		t.Errorf("pull 0 should mean one pull of K: got %d", oneK.Pull)
	}
	if fourK.Messages <= oneK.Messages || four16.Messages <= one16.Messages {
		t.Errorf("more shards should cost more messages: %d -> %d (K), %d -> %d (16)",
			oneK.Messages, fourK.Messages, one16.Messages, four16.Messages)
	}
	if four16.Messages <= fourK.Messages {
		t.Errorf("smaller pulls should cost more messages: pull 16 sent %d, one pull of K %d", four16.Messages, fourK.Messages)
	}
	for _, p := range pts {
		if p.SamplesMoved != 2000 {
			t.Errorf("shards=%d pull=%d moved %d samples, want exactly the 2000 drawn", p.Shards, p.Pull, p.SamplesMoved)
		}
	}
	if math.Abs(fourK.MaxShardShare-0.25) > 0.05 {
		t.Errorf("4-shard balance: max share %v, want ~0.25", fourK.MaxShardShare)
	}
}

// TestA7Shape: every run crashes exactly the shards it reports killed, and
// a kill count past the shards holding matches kills only those.
func TestA7Shape(t *testing.T) {
	pts, err := A7(A7Config{N: 100_000, K: 2000, Shards: 8, Kill: []int{0, 2, 4}, CrashAfter: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.Crashes != uint64(p.Killed) {
			t.Errorf("killed=%d run crashed %d shards", p.Killed, p.Crashes)
		}
	}
	healthy, degraded := pts[0], pts[1]
	if healthy.Killed != 0 || healthy.Population != healthy.HealthyPop {
		t.Errorf("kill=0 run should be healthy: %+v", healthy)
	}
	if degraded.Killed != 2 {
		t.Errorf("kill=2 run killed %d shards, want 2", degraded.Killed)
	}
	if degraded.Population >= degraded.HealthyPop {
		t.Errorf("kill=2 effective population %d not shrunk from %d",
			degraded.Population, degraded.HealthyPop)
	}
	if p := pts[2]; p.Killed < degraded.Killed || p.Killed > 4 {
		t.Errorf("kill=4 run killed %d shards, want between %d and 4", p.Killed, degraded.Killed)
	}
	// Degrading must not wreck the estimate: both runs target the same
	// spatial mean, so the points stay within a few CI widths.
	if diff := math.Abs(healthy.Value - degraded.Value); diff > 10*healthy.HalfWidth+10*degraded.HalfWidth {
		t.Errorf("degraded estimate drifted: %v vs %v", degraded.Value, healthy.Value)
	}
}

func TestA8Shape(t *testing.T) {
	// A8 itself fails unless the recover mode completes its crash→readmit
	// cycle.
	pts, err := A8(A8Config{N: 100_000, K: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	healthy, degraded, recovered := pts[0], pts[1], pts[2]
	if healthy.Crashes != 0 || healthy.Population != healthy.HealthyPop {
		t.Errorf("healthy mode: %+v", healthy)
	}
	if degraded.Crashes != 1 || degraded.Population >= degraded.HealthyPop {
		t.Errorf("degraded mode should lose the hottest shard's population: %+v", degraded)
	}
	if !(degraded.LostLow < degraded.Value && degraded.Value < degraded.LostHigh) {
		t.Errorf("degraded lost-mass bounds [%v, %v] should bracket the estimate %v",
			degraded.LostLow, degraded.LostHigh, degraded.Value)
	}
	if recovered.Crashes != 1 || recovered.Readmits != 1 || recovered.Population != recovered.HealthyPop {
		t.Errorf("recover mode should end on the full population after one readmit: %+v", recovered)
	}
	if recovered.LostLow != 0 || recovered.LostHigh != 0 {
		t.Errorf("recover mode carries lost-mass bounds: %+v", recovered)
	}
}

func TestA13Shape(t *testing.T) {
	// A13 itself fails unless r1-degraded degrades and r2-failover fails
	// over onto the full population.
	pts, err := A13(A13Config{N: 100_000, K: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	healthy, r1, r2 := pts[0], pts[1], pts[2]
	if healthy.Crashes != 0 || healthy.Degraded || healthy.Population != healthy.HealthyPop {
		t.Errorf("healthy mode: %+v", healthy)
	}
	if r1.Failovers != 0 || r1.Population >= r1.HealthyPop || r1.LostLow >= r1.LostHigh {
		t.Errorf("r1-degraded should shrink the population and carry lost-mass bounds: %+v", r1)
	}
	if r2.Replicas != 2 || r2.Crashes != 1 || r2.Failovers != 1 || r2.LostLow != 0 || r2.LostHigh != 0 {
		t.Errorf("r2-failover should move one stream and lose nothing: %+v", r2)
	}
}

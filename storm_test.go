package storm

import (
	"bytes"
	"context"
	"io"
	"math"
	"strings"
	"testing"
)

// TestPublicAPIEndToEnd walks the README quick-start path: open, generate,
// register, estimate, and verify the estimate brackets the truth.
func TestPublicAPIEndToEnd(t *testing.T) {
	db := Open(Config{Seed: 1})
	ds := GenerateOSM(OSMConfig{N: 50000, Seed: 1})
	h, err := db.Register(ds, IndexOptions{LSTree: true})
	if err != nil {
		t.Fatal(err)
	}

	q := Range{MinX: -112.2, MinY: 40.3, MaxX: -111.6, MaxY: 41.0, MinT: 0, MaxT: 86400 * 365}
	cnt := h.Count(q)
	if cnt == 0 {
		t.Fatal("no records around Salt Lake City")
	}

	// Ground truth.
	col, err := ds.NumericColumn("altitude")
	if err != nil {
		t.Fatal(err)
	}
	rect := q.Rect()
	var sum float64
	n := 0
	for i := 0; i < ds.Len(); i++ {
		if rect.Contains(ds.Pos(uint64(i))) {
			sum += col[i]
			n++
		}
	}
	truth := sum / float64(n)

	snap, err := h.Estimate(context.Background(), q, Options{
		Kind: Avg, Attr: "altitude", TargetRelError: 0.005, Method: MethodRSTree,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Done {
		t.Fatal("estimate did not finish")
	}
	if math.Abs(snap.Value-truth) > 3*snap.HalfWidth+1e-9 && !snap.Exact {
		t.Errorf("estimate %v ± %v vs truth %v", snap.Value, snap.HalfWidth, truth)
	}
}

func TestQueryLanguageThroughFacade(t *testing.T) {
	db := Open(Config{Seed: 2})
	stations := GenerateStations(StationsConfig{Stations: 500, ReadingsPerStation: 48, Seed: 2})
	if _, err := db.Register(stations, IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := Exec(context.Background(), db,
		`ESTIMATE AVG(temp) FROM mesowest WHERE REGION(-125, 24, -66, 50) SAMPLES 400`, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "AVG") {
		t.Errorf("output:\n%s", buf.String())
	}
}

func TestImportThroughFacade(t *testing.T) {
	csv := "lon,lat,time,reading\n-111.9,40.7,100,5.5\n-74.0,40.7,200,6.5\n"
	res, err := ImportCSV("sensors", ',', func() (io.Reader, error) {
		return strings.NewReader(csv), nil
	}, Mapping{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 2 {
		t.Fatalf("rows = %d", res.Rows)
	}
	db := Open(Config{Seed: 3})
	h, err := db.Register(res.Dataset, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := h.Estimate(context.Background(), UniverseRange(), Options{Kind: Avg, Attr: "reading"})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Value != 6 {
		t.Errorf("avg = %v, want 6", snap.Value)
	}
}

func TestGenerateTweetsFacade(t *testing.T) {
	ds, truth := GenerateTweets(TweetsConfig{N: 1000, Users: 10, Seed: 4})
	if ds.Len() != 1000 || len(truth) == 0 {
		t.Fatalf("tweets = %d, users = %d", ds.Len(), len(truth))
	}
}

func TestSessionFacade(t *testing.T) {
	db := Open(Config{Seed: 5})
	ds := GenerateOSM(OSMConfig{N: 5000, Seed: 5})
	h, err := db.Register(ds, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(h)
	ch, err := s.EstimateOnline(context.Background(), SpatialRange(-125, 24, -66, 50), Options{
		Kind: Avg, Attr: "altitude", MaxSamples: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	var last Snapshot
	for snap := range ch {
		last = snap
	}
	if !last.Done || last.Samples != 200 {
		t.Errorf("session query: %+v", last)
	}
	s.Stop()
}

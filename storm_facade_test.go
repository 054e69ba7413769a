package storm

import (
	"bytes"
	"context"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestImportJSONLFacade(t *testing.T) {
	jsonl := `{"lng": 1.0, "lat": 2.0, "v": 10}
{"lng": 3.0, "lat": 4.0, "v": 20}
`
	res, err := ImportJSONL("j", func() (io.Reader, error) { return strings.NewReader(jsonl), nil }, Mapping{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 2 {
		t.Fatalf("rows = %d", res.Rows)
	}
	v, _ := res.Dataset.Numeric("v", 1)
	if v != 20 {
		t.Errorf("v = %v", v)
	}
}

func TestImportSQLDumpFacade(t *testing.T) {
	dump := `CREATE TABLE t (lon DOUBLE, lat DOUBLE, name VARCHAR(8));
INSERT INTO t VALUES (1, 2, 'a'), (3, 4, 'b');`
	res, err := ImportSQLDump("t", func() (io.Reader, error) { return strings.NewReader(dump), nil }, Mapping{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 2 {
		t.Fatalf("rows = %d", res.Rows)
	}
}

func TestImportKVFacade(t *testing.T) {
	kv := "k1\t{\"lon\": 1, \"lat\": 2}\n"
	res, err := ImportKV("kv", func() (io.Reader, error) { return strings.NewReader(kv), nil }, Mapping{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 1 {
		t.Fatalf("rows = %d", res.Rows)
	}
}

func TestDiscoverSchemaFacade(t *testing.T) {
	csv := "lon,lat,v\n1,2,3\n"
	src := csvSource(t, csv)
	schema, err := DiscoverSchema(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	if schema.X != "lon" || schema.Y != "lat" {
		t.Errorf("schema roles: %+v", schema)
	}
}

// csvSource adapts a string to a Source through the facade import helper's
// underlying connector type.
func csvSource(t *testing.T, content string) Source {
	t.Helper()
	res, err := ImportCSV("probe", ',', func() (io.Reader, error) { return strings.NewReader(content), nil }, Mapping{})
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	// Rebuild the raw source for discovery (import consumed nothing
	// permanent; opener re-reads).
	return csvRaw{content: content}
}

type csvRaw struct{ content string }

func (c csvRaw) Name() string { return "probe" }
func (c csvRaw) Rows(fn func(map[string]string) error) error {
	lines := strings.Split(strings.TrimSpace(c.content), "\n")
	header := strings.Split(lines[0], ",")
	for _, line := range lines[1:] {
		parts := strings.Split(line, ",")
		row := map[string]string{}
		for i, h := range header {
			if i < len(parts) {
				row[h] = parts[i]
			}
		}
		if err := fn(row); err != nil {
			return err
		}
	}
	return nil
}

// TestSnapshotFacadeRoundTrip pins that a saved and loaded dataset answers
// exactly like the original: a seeded online estimate over each yields the
// same stream, snapshot for snapshot.
func TestSnapshotFacadeRoundTrip(t *testing.T) {
	ds := GenerateOSM(OSMConfig{N: 5000, Seed: 9})
	var file bytes.Buffer
	if err := SaveDataset(&file, ds); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDataset(&file)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDataset(strings.NewReader("STORMSNP")); err == nil {
		t.Error("a truncated snapshot loaded")
	}

	stream := func(ds *Dataset) []Estimate {
		h, err := Open(Config{Seed: 9}).Register(ds, IndexOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ch, err := h.EstimateOnline(context.Background(), SpatialRange(-112.4, 40.2, -111.4, 41.2), Options{
			Kind: Avg, Attr: "altitude", MaxSamples: 600, ReportEvery: 50, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		var out []Estimate
		for snap := range ch {
			out = append(out, snap.Estimate)
		}
		return out
	}
	want, loaded := stream(ds), stream(got)
	if len(want) < 2 {
		t.Fatalf("the original's stream has %d snapshots, want several", len(want))
	}
	if !reflect.DeepEqual(loaded, want) {
		t.Errorf("the loaded dataset's stream differs:\n got  %v\n want %v", loaded, want)
	}
}

func TestFacadeUpdatePath(t *testing.T) {
	db := Open(Config{Seed: 10})
	ds := GenerateOSM(OSMConfig{N: 2000, Seed: 10})
	h, err := db.Register(ds, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	probe := Range{MinX: 500, MinY: 500, MaxX: 501, MaxY: 501, MinT: 0, MaxT: 1}
	id := h.Insert(Row{Pos: Vec{500.5, 500.5, 0.5}, Num: map[string]float64{"altitude": 42}})
	if h.Count(probe) != 1 {
		t.Fatal("insert not visible")
	}
	if !h.Delete(id) {
		t.Fatal("delete failed")
	}
	n, err := h.DeleteRange(UniverseRange())
	if err != nil {
		t.Fatal(err)
	}
	if n != 2000 {
		t.Errorf("range delete removed %d", n)
	}
	if h.Len() != 0 {
		t.Errorf("len after wipe = %d", h.Len())
	}
}

func TestFacadeQuantiles(t *testing.T) {
	db := Open(Config{Seed: 11})
	ds := GenerateOSM(OSMConfig{N: 20000, Seed: 11})
	h, err := db.Register(ds, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	med, err := h.Estimate(context.Background(), UniverseRange(), Options{
		Kind: Median, Attr: "altitude", MaxSamples: 1500,
	})
	if err != nil {
		t.Fatal(err)
	}
	p90, err := h.Estimate(context.Background(), UniverseRange(), Options{
		Kind: Quantile, QuantileP: 0.9, Attr: "altitude", MaxSamples: 1500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !(med.Value < p90.Value) {
		t.Errorf("median %v should be below p90 %v", med.Value, p90.Value)
	}
	if math.IsNaN(med.Value) || math.IsNaN(p90.Value) {
		t.Error("NaN quantiles")
	}
}

func TestFacadeGroupBy(t *testing.T) {
	db := Open(Config{Seed: 12})
	ds := GenerateStations(StationsConfig{Stations: 5, ReadingsPerStation: 100, Seed: 12})
	h, err := db.Register(ds, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := h.GroupByOnline(context.Background(), UniverseRange(), "temp", "station",
		Options{MaxSamples: 400})
	if err != nil {
		t.Fatal(err)
	}
	var last GroupsSnapshot
	for s := range ch {
		last = s
	}
	if len(last.Groups) != 5 {
		t.Errorf("groups = %d", len(last.Groups))
	}
}

func TestFacadeExplain(t *testing.T) {
	db := Open(Config{Seed: 13})
	ds := GenerateOSM(OSMConfig{N: 5000, Seed: 13})
	h, err := db.Register(ds, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := h.Explain(SpatialRange(-112.4, 40.2, -111.4, 41.2))
	if err != nil {
		t.Fatal(err)
	}
	if plan.N != 5000 || plan.Matching == 0 {
		t.Errorf("plan = %+v", plan)
	}
}

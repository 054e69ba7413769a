package data

import (
	"math"
	"testing"

	"storm/internal/geo"
)

func TestAppendAndAccess(t *testing.T) {
	ds := NewDataset("d")
	ds.AddNumericColumn("temp")
	ds.AddStringColumn("user")
	id := ds.Append(Row{
		Pos: geo.Vec{1, 2, 3},
		Num: map[string]float64{"temp": 20.5},
		Str: map[string]string{"user": "alice"},
	})
	if id != 0 || ds.Len() != 1 {
		t.Fatalf("id=%d len=%d", id, ds.Len())
	}
	if ds.Pos(id) != (geo.Vec{1, 2, 3}) {
		t.Errorf("Pos = %v", ds.Pos(id))
	}
	v, err := ds.Numeric("temp", id)
	if err != nil || v != 20.5 {
		t.Errorf("Numeric = %v, %v", v, err)
	}
	s, err := ds.String("user", id)
	if err != nil || s != "alice" {
		t.Errorf("String = %q, %v", s, err)
	}
}

func TestMissingValuesAreNaN(t *testing.T) {
	ds := NewDataset("d")
	ds.AddNumericColumn("x")
	id := ds.Append(Row{Pos: geo.Vec{0, 0, 0}})
	v, err := ds.Numeric("x", id)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(v) {
		t.Errorf("missing numeric = %v, want NaN", v)
	}
}

func TestLazyColumnCreation(t *testing.T) {
	ds := NewDataset("d")
	ds.Append(Row{Pos: geo.Vec{0, 0, 0}}) // row 0: no columns yet
	ds.Append(Row{Pos: geo.Vec{1, 1, 1}, Num: map[string]float64{"alt": 5}})
	// Row 0 must have NaN in the lazily created column.
	v0, err := ds.Numeric("alt", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(v0) {
		t.Errorf("pre-existing row = %v, want NaN", v0)
	}
	v1, _ := ds.Numeric("alt", 1)
	if v1 != 5 {
		t.Errorf("row 1 = %v", v1)
	}
}

func TestUnknownColumnErrors(t *testing.T) {
	ds := NewDataset("d")
	ds.AppendFast(geo.Vec{0, 0, 0})
	if _, err := ds.Numeric("nope", 0); err == nil {
		t.Error("unknown numeric column should error")
	}
	if _, err := ds.String("nope", 0); err == nil {
		t.Error("unknown string column should error")
	}
	if _, err := ds.NumericColumn("nope"); err == nil {
		t.Error("unknown numeric column slice should error")
	}
	if _, err := ds.StringColumn("nope"); err == nil {
		t.Error("unknown string column slice should error")
	}
	if err := ds.SetNumeric("nope", 0, 1); err == nil {
		t.Error("SetNumeric on unknown column should error")
	}
	if err := ds.SetString("nope", 0, "x"); err == nil {
		t.Error("SetString on unknown column should error")
	}
}

func TestEntriesAndBounds(t *testing.T) {
	ds := NewDataset("d")
	ds.AppendFast(geo.Vec{0, 5, 1})
	ds.AppendFast(geo.Vec{10, -5, 2})
	entries := ds.Entries()
	if len(entries) != 2 || entries[1].ID != 1 {
		t.Fatalf("entries = %v", entries)
	}
	b := ds.Bounds()
	if b.Min != (geo.Vec{0, -5, 1}) || b.Max != (geo.Vec{10, 5, 2}) {
		t.Errorf("bounds = %v", b)
	}
	if !NewDataset("e").Bounds().IsEmpty() {
		t.Error("empty dataset bounds should be empty")
	}
}

func TestAppendFastAndSet(t *testing.T) {
	ds := NewDataset("d")
	ds.AddNumericColumn("v")
	ds.AddStringColumn("s")
	id := ds.AppendFast(geo.Vec{1, 1, 1})
	if err := ds.SetNumeric("v", id, 3.5); err != nil {
		t.Fatal(err)
	}
	if err := ds.SetString("s", id, "hi"); err != nil {
		t.Fatal(err)
	}
	v, _ := ds.Numeric("v", id)
	s, _ := ds.String("s", id)
	if v != 3.5 || s != "hi" {
		t.Errorf("got %v, %q", v, s)
	}
}

func TestFromColumns(t *testing.T) {
	pos := []geo.Vec{{1, 1, 1}, {2, 2, 2}}
	v := []float64{3.5, math.NaN()}
	s := []string{"a", ""}
	ds, err := FromColumns("d", pos, map[string][]float64{"v": v}, map[string][]string{"s": s})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Name() != "d" || ds.Len() != 2 || ds.Pos(1) != pos[1] {
		t.Fatalf("name=%q len=%d pos[1]=%v", ds.Name(), ds.Len(), ds.Pos(1))
	}
	// Adopted, not copied.
	if col, _ := ds.NumericColumn("v"); &col[0] != &v[0] {
		t.Error("numeric column was copied")
	}
	if col, _ := ds.StringColumn("s"); &col[0] != &s[0] {
		t.Error("string column was copied")
	}
	// An adopted dataset appends like any other.
	id := ds.Append(Row{Pos: geo.Vec{3, 3, 3}, Str: map[string]string{"s": "c"}})
	if got, _ := ds.Numeric("v", id); !math.IsNaN(got) {
		t.Errorf("appended missing numeric = %v, want NaN", got)
	}
	if got, _ := ds.String("s", id); got != "c" {
		t.Errorf("appended string = %q", got)
	}

	if _, err := FromColumns("d", pos, map[string][]float64{"v": v[:1]}, nil); err == nil {
		t.Error("short numeric column should be rejected")
	}
	if _, err := FromColumns("d", pos, nil, map[string][]string{"s": {"a", "b", "c"}}); err == nil {
		t.Error("long string column should be rejected")
	}
	empty, err := FromColumns("e", nil, nil, nil)
	if err != nil || empty.Len() != 0 {
		t.Fatalf("empty: %v, %v", empty, err)
	}
	empty.AddNumericColumn("x")
	empty.Append(Row{Pos: geo.Vec{0, 0, 0}})
	if empty.Len() != 1 || !empty.HasNumeric("x") {
		t.Error("nil maps must leave a usable dataset")
	}
}

func TestColumnListings(t *testing.T) {
	ds := NewDataset("d")
	ds.AddNumericColumn("a")
	ds.AddNumericColumn("b")
	ds.AddStringColumn("c")
	if len(ds.NumericColumns()) != 2 || len(ds.StringColumns()) != 1 {
		t.Errorf("columns = %v / %v", ds.NumericColumns(), ds.StringColumns())
	}
	if !ds.HasNumeric("a") || ds.HasNumeric("c") {
		t.Error("HasNumeric wrong")
	}
	if !ds.HasString("c") || ds.HasString("a") {
		t.Error("HasString wrong")
	}
	// Re-declaring is a no-op, not a reset.
	ds.AppendFast(geo.Vec{0, 0, 0})
	ds.SetNumeric("a", 0, 9)
	ds.AddNumericColumn("a")
	v, _ := ds.Numeric("a", 0)
	if v != 9 {
		t.Error("re-declare should not clear data")
	}
}

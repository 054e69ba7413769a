// Package data defines the record and dataset representations shared by
// STORM's indexes, samplers and estimators.
//
// Indexes store only (ID, position) pairs; the attribute payload lives in a
// columnar Dataset addressed by record ID. This keeps index nodes small
// (they model disk pages) and lets an estimator fetch just the one column a
// query aggregates.
package data

import (
	"fmt"
	"math"

	"storm/internal/geo"
)

// ID identifies a record within a dataset. IDs are dense indices into the
// dataset's columns.
type ID = uint64

// Entry is the unit stored in spatial indexes: a record ID plus its
// position in (x, y, t) space.
type Entry struct {
	ID  ID
	Pos geo.Vec
}

// Dataset is a columnar in-memory table of spatio-temporal records. Row i
// has position Pos(i), numeric attributes in float64 columns and string
// attributes in string columns. Datasets are append-only through Append*;
// deletion is handled at the index layer (a deleted ID simply stops being
// returned by samplers).
type Dataset struct {
	name string
	pos  []geo.Vec
	num  map[string][]float64
	str  map[string][]string
}

// NewDataset returns an empty dataset with the given name.
func NewDataset(name string) *Dataset {
	return &Dataset{
		name: name,
		num:  make(map[string][]float64),
		str:  make(map[string][]string),
	}
}

// FromColumns returns a dataset over columns a bulk writer (a generator, a
// loader) filled itself: row i is pos[i] with attribute values num[c][i] and
// str[c][i]. It adopts the slices — the caller hands them over and must not
// touch them again — and rejects a column whose length differs from pos.
// Either map may be nil.
func FromColumns(name string, pos []geo.Vec, num map[string][]float64, str map[string][]string) (*Dataset, error) {
	d := NewDataset(name)
	d.pos = pos
	for c, col := range num {
		if len(col) != len(pos) {
			return nil, fmt.Errorf("data: numeric column %q has %d values for %d records", c, len(col), len(pos))
		}
		d.num[c] = col
	}
	for c, col := range str {
		if len(col) != len(pos) {
			return nil, fmt.Errorf("data: string column %q has %d values for %d records", c, len(col), len(pos))
		}
		d.str[c] = col
	}
	return d, nil
}

// Name returns the dataset's name.
func (d *Dataset) Name() string { return d.name }

// Len returns the number of records.
func (d *Dataset) Len() int { return len(d.pos) }

// Pos returns the position of record id.
func (d *Dataset) Pos(id ID) geo.Vec { return d.pos[id] }

// Positions returns the position column, record id at index id. It is the
// dataset's own slice, for bulk readers that must not copy it: read only,
// and valid until the next append.
func (d *Dataset) Positions() []geo.Vec { return d.pos }

// Entry returns the index entry for record id.
func (d *Dataset) Entry(id ID) Entry { return Entry{ID: id, Pos: d.pos[id]} }

// Entries materializes index entries for every record. Used for bulk
// loading; samplers never need the full list.
func (d *Dataset) Entries() []Entry {
	out := make([]Entry, len(d.pos))
	for i := range d.pos {
		out[i] = Entry{ID: ID(i), Pos: d.pos[i]}
	}
	return out
}

// Bounds returns the MBR of all record positions, or an empty rect for an
// empty dataset.
func (d *Dataset) Bounds() geo.Rect {
	return geo.Bounds(d.pos, func(p *geo.Vec) *geo.Vec { return p })
}

// AddNumericColumn declares a numeric column. Existing rows get NaN.
func (d *Dataset) AddNumericColumn(name string) {
	if _, ok := d.num[name]; ok {
		return
	}
	col := make([]float64, len(d.pos))
	for i := range col {
		col[i] = math.NaN()
	}
	d.num[name] = col
}

// AddStringColumn declares a string column. Existing rows get "".
func (d *Dataset) AddStringColumn(name string) {
	if _, ok := d.str[name]; ok {
		return
	}
	d.str[name] = make([]string, len(d.pos))
}

// NumericColumns returns the names of all numeric columns.
func (d *Dataset) NumericColumns() []string {
	out := make([]string, 0, len(d.num))
	for k := range d.num {
		out = append(out, k)
	}
	return out
}

// StringColumns returns the names of all string columns.
func (d *Dataset) StringColumns() []string {
	out := make([]string, 0, len(d.str))
	for k := range d.str {
		out = append(out, k)
	}
	return out
}

// HasNumeric reports whether the dataset has a numeric column of that name.
func (d *Dataset) HasNumeric(name string) bool {
	_, ok := d.num[name]
	return ok
}

// HasString reports whether the dataset has a string column of that name.
func (d *Dataset) HasString(name string) bool {
	_, ok := d.str[name]
	return ok
}

// Numeric returns the value of a numeric column for record id. It returns
// an error for unknown columns so query evaluation can surface a clean
// message instead of panicking deep inside an estimator loop.
func (d *Dataset) Numeric(name string, id ID) (float64, error) {
	col, ok := d.num[name]
	if !ok {
		return 0, fmt.Errorf("data: dataset %q has no numeric column %q", d.name, name)
	}
	return col[id], nil
}

// NumericColumn returns the backing slice of a numeric column (read-only by
// convention) for tight estimator loops.
func (d *Dataset) NumericColumn(name string) ([]float64, error) {
	col, ok := d.num[name]
	if !ok {
		return nil, fmt.Errorf("data: dataset %q has no numeric column %q", d.name, name)
	}
	return col, nil
}

// String returns the value of a string column for record id.
func (d *Dataset) String(name string, id ID) (string, error) {
	col, ok := d.str[name]
	if !ok {
		return "", fmt.Errorf("data: dataset %q has no string column %q", d.name, name)
	}
	return col[id], nil
}

// StringColumn returns the backing slice of a string column.
func (d *Dataset) StringColumn(name string) ([]string, error) {
	col, ok := d.str[name]
	if !ok {
		return nil, fmt.Errorf("data: dataset %q has no string column %q", d.name, name)
	}
	return col, nil
}

// Row carries one record's attributes during appends and imports.
type Row struct {
	Pos geo.Vec
	Num map[string]float64
	Str map[string]string
}

// Grow ensures capacity for n more records in the position store and
// every declared column, growing by at least a doubling. Batch writers
// (engine.Handle.InsertBatch) call it once per batch so the per-record
// appends never pay a mid-batch reallocation — with Go's 1.25x growth
// policy for large slices, per-record growth was the dominant memory
// traffic of the streaming drain path.
func (d *Dataset) Grow(n int) {
	need := len(d.pos) + n
	if need <= cap(d.pos) {
		return
	}
	if min := 2 * cap(d.pos); need < min {
		need = min
	}
	pos := make([]geo.Vec, len(d.pos), need)
	copy(pos, d.pos)
	d.pos = pos
	for name, col := range d.num {
		nc := make([]float64, len(col), need)
		copy(nc, col)
		d.num[name] = nc
	}
	for name, col := range d.str {
		sc := make([]string, len(col), need)
		copy(sc, col)
		d.str[name] = sc
	}
}

// Append adds a row and returns its assigned ID. Columns absent from the
// row receive NaN / "".
func (d *Dataset) Append(row Row) ID {
	id := ID(len(d.pos))
	d.pos = append(d.pos, row.Pos)
	for name, col := range d.num {
		v, ok := row.Num[name]
		if !ok {
			v = math.NaN()
		}
		d.num[name] = append(col, v)
	}
	for name, col := range d.str {
		d.str[name] = append(col, row.Str[name])
	}
	// Columns mentioned by the row but not yet declared are created lazily.
	for name, v := range row.Num {
		if _, ok := d.num[name]; !ok {
			d.AddNumericColumn(name)
			col := d.num[name]
			col[id] = v
			d.num[name] = col
		}
	}
	for name, v := range row.Str {
		if _, ok := d.str[name]; !ok {
			d.AddStringColumn(name)
			col := d.str[name]
			col[id] = v
			d.str[name] = col
		}
	}
	return id
}

// AppendFast adds a record position only, for writers that set its
// attributes right afterwards with SetNumeric / SetString (a bulk writer
// that fills whole columns hands them to FromColumns instead). It returns
// the new ID. All declared columns are extended with zero values (not NaN)
// because the caller overwrites them immediately.
func (d *Dataset) AppendFast(pos geo.Vec) ID {
	id := ID(len(d.pos))
	d.pos = append(d.pos, pos)
	for name, col := range d.num {
		d.num[name] = append(col, 0)
	}
	for name, col := range d.str {
		d.str[name] = append(col, "")
	}
	return id
}

// SetNumeric sets a numeric attribute of an existing record.
func (d *Dataset) SetNumeric(name string, id ID, v float64) error {
	col, ok := d.num[name]
	if !ok {
		return fmt.Errorf("data: dataset %q has no numeric column %q", d.name, name)
	}
	col[id] = v
	return nil
}

// SetString sets a string attribute of an existing record.
func (d *Dataset) SetString(name string, id ID, v string) error {
	col, ok := d.str[name]
	if !ok {
		return fmt.Errorf("data: dataset %q has no string column %q", d.name, name)
	}
	col[id] = v
	return nil
}

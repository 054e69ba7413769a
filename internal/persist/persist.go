// Package persist stores datasets in STORM's storage engine — JSON
// documents in the DFS-backed document store — and loads them back,
// implementing the paper's "import the data into the STORM storage engine"
// option (as opposed to indexing a source in place).
//
// Each dataset becomes one docstore collection. The first document is a
// schema record naming the columns (so empty columns survive the round
// trip); every subsequent document is one record with its position and
// non-missing attributes. NaN numeric values (missing attributes) are
// omitted from documents and restored as NaN on load, since JSON cannot
// represent them.
package persist

import (
	"fmt"
	"math"

	"storm/internal/data"
	"storm/internal/docstore"
	"storm/internal/geo"
)

// schemaDoc is the collection's first document.
const schemaKey = "_storm_schema"

// Save writes the dataset into the store as collection ds.Name(),
// replacing nothing (saving an already-saved name is an error to avoid
// silently mixing two datasets in one collection).
func Save(store *docstore.Store, ds *data.Dataset) error {
	for _, existing := range store.Collections() {
		if existing == ds.Name() {
			return fmt.Errorf("persist: collection %q already exists", ds.Name())
		}
	}
	numCols := ds.NumericColumns()
	strCols := ds.StringColumns()
	schema := docstore.Document{
		schemaKey: true,
		"name":    ds.Name(),
		"numeric": toAnySlice(numCols),
		"string":  toAnySlice(strCols),
		"records": float64(ds.Len()),
	}
	if _, err := store.Insert(ds.Name(), schema); err != nil {
		return fmt.Errorf("persist: writing schema: %w", err)
	}
	for i := 0; i < ds.Len(); i++ {
		id := data.ID(i)
		p := ds.Pos(id)
		num := map[string]any{}
		for _, c := range numCols {
			v, err := ds.Numeric(c, id)
			if err != nil {
				return err
			}
			if !math.IsNaN(v) {
				num[c] = v
			}
		}
		str := map[string]any{}
		for _, c := range strCols {
			v, err := ds.String(c, id)
			if err != nil {
				return err
			}
			if v != "" {
				str[c] = v
			}
		}
		doc := docstore.Document{
			"x": p.X(), "y": p.Y(), "t": p.T(),
			"n": num, "s": str,
		}
		if _, err := store.Insert(ds.Name(), doc); err != nil {
			return fmt.Errorf("persist: writing record %d: %w", i, err)
		}
	}
	if err := store.Flush(ds.Name()); err != nil {
		return fmt.Errorf("persist: flushing: %w", err)
	}
	return nil
}

func toAnySlice(ss []string) []any {
	out := make([]any, len(ss))
	for i, s := range ss {
		out[i] = s
	}
	return out
}

// Load reads a dataset previously written by Save in one scan of the
// collection: every record appends NaN / "" to each schema column and then
// overwrites the attributes its document stores, so missing values come back
// as they were saved.
func Load(store *docstore.Store, name string) (*data.Dataset, error) {
	sawSchema := false
	var pos []geo.Vec
	num := map[string][]float64{}
	str := map[string][]string{}
	var loadErr error
	err := store.Scan(name, func(id int64, doc docstore.Document) bool {
		if !sawSchema {
			if doc[schemaKey] != true {
				loadErr = fmt.Errorf("persist: collection %q is not a STORM dataset (no schema record)", name)
				return false
			}
			sawSchema = true
			for _, c := range fromAnySlice(doc["numeric"]) {
				num[c] = []float64{}
			}
			for _, c := range fromAnySlice(doc["string"]) {
				str[c] = []string{}
			}
			return true
		}
		x, okX := doc["x"].(float64)
		y, okY := doc["y"].(float64)
		t, okT := doc["t"].(float64)
		if !okX || !okY || !okT {
			loadErr = fmt.Errorf("persist: document %d of %q has malformed coordinates", id, name)
			return false
		}
		row := len(pos)
		pos = append(pos, geo.Vec{x, y, t})
		for c, col := range num {
			num[c] = append(col, math.NaN())
		}
		for c, col := range str {
			str[c] = append(col, "")
		}
		if n, ok := doc["n"].(map[string]any); ok {
			for c, v := range n {
				if fv, ok := v.(float64); ok {
					col, known := num[c]
					if !known {
						loadErr = fmt.Errorf("persist: document %d of %q: no numeric column %q in the schema", id, name, c)
						return false
					}
					col[row] = fv
				}
			}
		}
		if s, ok := doc["s"].(map[string]any); ok {
			for c, v := range s {
				if sv, ok := v.(string); ok {
					col, known := str[c]
					if !known {
						loadErr = fmt.Errorf("persist: document %d of %q: no string column %q in the schema", id, name, c)
						return false
					}
					col[row] = sv
				}
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if loadErr != nil {
		return nil, loadErr
	}
	if !sawSchema {
		return nil, fmt.Errorf("persist: collection %q is empty", name)
	}
	return data.FromColumns(name, pos, num, str)
}

func fromAnySlice(v any) []string {
	raw, ok := v.([]any)
	if !ok {
		return nil
	}
	out := make([]string, 0, len(raw))
	for _, e := range raw {
		if s, ok := e.(string); ok {
			out = append(out, s)
		}
	}
	return out
}

// Command stormimport runs a file through STORM's data connector — schema
// discovery, parsing, coordinate mapping — then indexes it and answers one
// optional query, demonstrating the paper's "data import" demo component.
// With -out it also saves the imported dataset as a snapshot file (the
// format storm.SaveDataset writes and storm.LoadDataset reads).
//
//	stormimport -in weather.csv -out weather.snap
//	stormimport -in tweets.jsonl -format jsonl -x lng -y lat -t ts
//	stormimport -in dump.sql -format sql -q "COUNT FROM dump WHERE REGION(-125,24,-66,50)"
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"storm/internal/connector"
	"storm/internal/data"
	"storm/internal/engine"
	"storm/internal/query"
)

func main() {
	in := flag.String("in", "", "input file (required)")
	format := flag.String("format", "", "csv, tsv, jsonl, sql, kv (default: by extension)")
	x := flag.String("x", "", "longitude column override")
	y := flag.String("y", "", "latitude column override")
	tcol := flag.String("t", "", "time column override")
	skip := flag.Bool("skip-invalid", true, "skip rows with unparsable coordinates")
	stmt := flag.String("q", "", "query to run after import")
	out := flag.String("out", "", "write the imported dataset to this snapshot file")
	flag.Parse()

	if *in == "" {
		fmt.Fprintln(os.Stderr, "stormimport: -in is required")
		os.Exit(2)
	}
	name := strings.TrimSuffix(filepath.Base(*in), filepath.Ext(*in))
	open := func() (io.Reader, error) { return os.Open(*in) }

	f := *format
	if f == "" {
		switch strings.ToLower(filepath.Ext(*in)) {
		case ".csv":
			f = "csv"
		case ".tsv":
			f = "tsv"
		case ".jsonl", ".ndjson":
			f = "jsonl"
		case ".sql":
			f = "sql"
		case ".kv":
			f = "kv"
		default:
			fmt.Fprintf(os.Stderr, "stormimport: cannot infer format of %q; use -format\n", *in)
			os.Exit(2)
		}
	}
	var src connector.Source
	switch f {
	case "csv":
		src = connector.NewCSVSource(name, ',', open)
	case "tsv":
		src = connector.NewCSVSource(name, '\t', open)
	case "jsonl":
		src = connector.NewJSONLSource(name, open)
	case "sql":
		src = connector.NewSQLDumpSource(name, open)
	case "kv":
		src = connector.NewKVSource(name, open)
	default:
		fmt.Fprintf(os.Stderr, "stormimport: unknown format %q\n", f)
		os.Exit(2)
	}

	schema, err := connector.DiscoverSchema(src, 0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stormimport: schema discovery: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("discovered schema for %s:\n", name)
	for _, fl := range schema.Fields {
		role := ""
		switch fl.Name {
		case schema.X:
			role = " (longitude)"
		case schema.Y:
			role = " (latitude)"
		case schema.T:
			role = " (time)"
		}
		fmt.Printf("  %-20s %s%s\n", fl.Name, fl.Type, role)
	}

	res, err := connector.Import(src, connector.Mapping{X: *x, Y: *y, T: *tcol, SkipInvalid: *skip})
	if err != nil {
		fmt.Fprintf(os.Stderr, "stormimport: import: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("imported %d rows (%d skipped)\n", res.Rows, res.Skipped)

	ds := res.Dataset
	if *out != "" {
		if err := writeSnapshot(*out, ds); err != nil {
			fmt.Fprintf(os.Stderr, "stormimport: writing %s: %v\n", *out, err)
			os.Exit(1)
		}
		fmt.Printf("wrote snapshot %s\n", *out)
	}

	eng := engine.New(engine.Config{Seed: 1})
	if _, err := eng.Register(ds, engine.IndexOptions{}); err != nil {
		fmt.Fprintf(os.Stderr, "stormimport: indexing: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("indexed %d records as dataset %q\n", ds.Len(), name)

	if *stmt != "" {
		if err := query.Execute(context.Background(), eng, *stmt, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "stormimport: query: %v\n", err)
			os.Exit(1)
		}
	}
}

// writeSnapshot writes ds to path through a temporary file in the same
// directory and a rename, so a failed import never leaves a truncated
// snapshot at path.
func writeSnapshot(path string, ds *data.Dataset) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name()) // a no-op once the rename has happened
	err = ds.WriteSnapshot(f)
	if err == nil {
		err = f.Chmod(0o644)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	return err
}

package data_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"storm/internal/connector"
	"storm/internal/data"
	"storm/internal/gen"
	"storm/internal/geo"
)

// encode writes ds as a snapshot.
func encode(t testing.TB, ds *data.Dataset) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := ds.WriteSnapshot(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// sameDataset fails unless got equals want bit for bit: name, positions
// and numeric values by math.Float64bits, strings, and both column sets,
// empty columns included.
func sameDataset(t *testing.T, got, want *data.Dataset) {
	t.Helper()
	if got.Name() != want.Name() || got.Len() != want.Len() {
		t.Fatalf("got %q with %d records, want %q with %d", got.Name(), got.Len(), want.Name(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		g, w := got.Pos(data.ID(i)), want.Pos(data.ID(i))
		for k := range w {
			if math.Float64bits(g[k]) != math.Float64bits(w[k]) {
				t.Fatalf("record %d position %v, want %v", i, g, w)
			}
		}
	}
	sorted := func(cols []string) []string { slices.Sort(cols); return cols }
	if g, w := sorted(got.NumericColumns()), sorted(want.NumericColumns()); !slices.Equal(g, w) {
		t.Fatalf("numeric columns %v, want %v", g, w)
	}
	if g, w := sorted(got.StringColumns()), sorted(want.StringColumns()); !slices.Equal(g, w) {
		t.Fatalf("string columns %v, want %v", g, w)
	}
	for _, c := range want.NumericColumns() {
		g, _ := got.NumericColumn(c)
		w, _ := want.NumericColumn(c)
		if !slices.EqualFunc(g, w, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Fatalf("numeric column %q differs", c)
		}
	}
	for _, c := range want.StringColumns() {
		g, _ := got.StringColumn(c)
		w, _ := want.StringColumn(c)
		if !slices.Equal(g, w) {
			t.Fatalf("string column %q differs", c)
		}
	}
}

// small is the 3-record dataset the hostile-input tests corrupt: a NaN with
// a payload, a negative zero, an empty and a non-UTF-8 string.
func small() *data.Dataset {
	pos := []geo.Vec{{1, 2, 3}, {-4.5, math.Inf(1), 0}, {math.Copysign(0, -1), 7, 8}}
	v := []float64{math.Float64frombits(0x7ff8_0000_dead_beef), 2.5, math.NaN()}
	s := []string{"a", "", "h\xe9llo"}
	ds, err := data.FromColumns("small", pos, map[string][]float64{"v": v}, map[string][]string{"s": s})
	if err != nil {
		panic(err)
	}
	return ds
}

func TestSnapshotRoundTrip(t *testing.T) {
	span := geo.Range{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100, MinT: 0, MaxT: 100}
	csv := "lon,lat,time,temp,city\n1,2,10,5.5,oslo\n3,4,20,,\n5,6,30,-1,\n"
	imported, err := connector.Import(connector.NewCSVSource("weather", ',',
		func() (io.Reader, error) { return strings.NewReader(csv), nil }), connector.Mapping{})
	if err != nil {
		t.Fatal(err)
	}
	tweets, _ := gen.Tweets(gen.TweetsConfig{N: 2000, Users: 50, Seed: 3})
	empty := data.NewDataset("empty")
	empty.AddNumericColumn("v")
	empty.AddStringColumn("s")

	for _, ds := range []*data.Dataset{
		gen.OSM(gen.OSMConfig{N: 3000, Seed: 1}),
		tweets,
		gen.Stations(gen.StationsConfig{Stations: 40, ReadingsPerStation: 20, Seed: 2}),
		gen.Uniform(2000, 4, span),
		imported.Dataset,
		empty,
		data.NewDataset(""),
		small(),
	} {
		label := ds.Name()
		if label == "" {
			label = "unnamed"
		}
		t.Run(label, func(t *testing.T) {
			b := encode(t, ds)
			if again := encode(t, ds); !bytes.Equal(again, b) {
				t.Fatal("writing the same dataset twice gave different bytes")
			}
			got, err := data.ReadSnapshot(bytes.NewReader(b))
			if err != nil {
				t.Fatal(err)
			}
			sameDataset(t, got, ds)
			if re := encode(t, got); !bytes.Equal(re, b) {
				t.Fatal("the loaded dataset re-encodes to different bytes")
			}
		})
	}
}

func TestSnapshotEveryTruncationFails(t *testing.T) {
	b := encode(t, small())
	for n := range b {
		if _, err := data.ReadSnapshot(bytes.NewReader(b[:n])); err == nil {
			t.Errorf("a %d-byte prefix of a %d-byte snapshot decoded", n, len(b))
		}
	}
}

func TestSnapshotEveryBitFlipFails(t *testing.T) {
	b := encode(t, small())
	for i := range 8 * len(b) {
		c := slices.Clone(b)
		c[i/8] ^= 1 << (i % 8)
		if _, err := data.ReadSnapshot(bytes.NewReader(c)); err == nil {
			t.Errorf("flipping bit %d of byte %d decoded", i%8, i/8)
		}
	}
}

// header builds a version-1 snapshot head: name, record count and column
// name lists, with no body and no checksum.
func header(version uint32, name string, n uint64, num, str []string) []byte {
	b := binary.LittleEndian.AppendUint32([]byte("STORMSNP"), version)
	b = appendString(b, name)
	b = binary.AppendUvarint(b, n)
	for _, cols := range [][]string{num, str} {
		b = binary.AppendUvarint(b, uint64(len(cols)))
		for _, c := range cols {
			b = appendString(b, c)
		}
	}
	return b
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// seal appends b's CRC-32C, making it pass the checksum.
func seal(b []byte) []byte {
	return binary.LittleEndian.AppendUint32(slices.Clip(b), crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)))
}

func TestSnapshotRejects(t *testing.T) {
	valid := encode(t, small())
	body := valid[:len(valid)-4]
	cases := map[string][]byte{
		"empty input":          nil,
		"bad magic":            seal(append([]byte("STORMSNQ"), body[8:]...)),
		"unknown version":      seal(header(2, "d", 0, nil, nil)),
		"version zero":         seal(header(0, "d", 0, nil, nil)),
		"duplicate numeric":    seal(header(1, "d", 0, []string{"a", "a"}, nil)),
		"numeric and string":   seal(header(1, "d", 0, []string{"a"}, []string{"a"})),
		"empty column name":    seal(header(1, "d", 0, nil, []string{""})),
		"unsorted columns":     seal(header(1, "d", 0, []string{"b", "a"}, nil)),
		"bad checksum":         append(slices.Clone(body), 0, 0, 0, 0),
		"trailing byte":        append(slices.Clone(valid), 0),
		"trailing snapshot":    append(slices.Clone(valid), valid...),
		"short record body":    seal(append(header(1, "d", 2, nil, nil), make([]byte, 24)...)),
		"string past the end":  seal(append(header(1, "d", 1, nil, []string{"s"}), append(make([]byte, 24), 5, 'a')...)),
		"non-minimal count":    seal(append(append([]byte("STORMSNP\x01\x00\x00\x00"), 0), 0x80, 0x00, 0, 0)),
		"overflowing uvarint":  seal(append([]byte("STORMSNP\x01\x00\x00\x00"), bytes.Repeat([]byte{0xff}, 11)...)),
		"huge column count":    seal(append(header(1, "d", 0, nil, nil)[:15], 0xff, 0xff, 0xff, 0xff, 0x0f)),
		"huge name length":     seal(append([]byte("STORMSNP\x01\x00\x00\x00"), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f)),
		"checksum only":        seal(nil),
		"header without body":  seal(header(1, "d", 1, []string{"v"}, nil)),
		"checksum of the body": seal(body)[:len(body)+3],
	}
	for name, b := range cases {
		if _, err := data.ReadSnapshot(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
	// The controls: the canonical encoding of the same shapes decodes.
	for _, b := range [][]byte{valid, seal(header(1, "d", 0, []string{"a"}, []string{"b"}))} {
		if _, err := data.ReadSnapshot(bytes.NewReader(b)); err != nil {
			t.Errorf("control: %v", err)
		}
	}
}

func TestWriteSnapshotRejectsEmptyColumnName(t *testing.T) {
	ds := data.NewDataset("d")
	ds.AddNumericColumn("")
	if err := ds.WriteSnapshot(io.Discard); err == nil {
		t.Error("a dataset with an empty column name was written")
	}
}

// TestSnapshotHugeCountAllocatesLittle is the hostile-header case: a record
// count of 2⁴⁰ over a 10-byte body must fail before the decoder allocates
// for the count.
func TestSnapshotHugeCountAllocatesLittle(t *testing.T) {
	b := seal(append(header(1, "d", 1<<40, []string{"v"}, nil), make([]byte, 10)...))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := data.ReadSnapshot(bytes.NewReader(b))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a 2⁴⁰-record header over a 10-byte body decoded")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("rejecting it allocated %d bytes, want < 1 MB", got)
	}
}

// FuzzReadSnapshot checks that decoding never panics and that any input
// that decodes re-encodes to the same bytes. Each input is also tried with
// its last four bytes replaced by a valid checksum, so mutations reach the
// decoder's every check rather than only the checksum.
func FuzzReadSnapshot(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		inputs := [][]byte{b}
		if len(b) >= 4 {
			inputs = append(inputs, seal(b[:len(b)-4]))
		}
		for _, in := range inputs {
			ds, err := data.ReadSnapshot(bytes.NewReader(in))
			if err != nil {
				continue
			}
			if out := encode(t, ds); !bytes.Equal(out, in) {
				t.Fatalf("decoded %d bytes re-encode to %d different bytes", len(in), len(out))
			}
		}
	})
}

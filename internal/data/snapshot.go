package data

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"slices"
	"strconv"

	"storm/internal/geo"
)

// A snapshot is one dataset as a single checksummed columnar file. All
// integers are little-endian; a uvarint is encoding/binary's, in its
// minimal form; a string is a uvarint byte length followed by the bytes.
//
//	magic      "STORMSNP"
//	version    uint32, 1
//	name       string
//	n          uvarint record count
//	numeric    uvarint column count, then each column name, sorted
//	string     uvarint column count, then each column name, sorted
//	positions  3·n float64 bit patterns, record by record (x, y, t)
//	numeric    per numeric column in header order, n float64 bit patterns
//	string     per string column in header order, n strings
//	checksum   uint32 CRC-32C (Castagnoli) of every byte before it
//
// Values are stored as bit patterns, so a round trip is bit-exact, NaN
// payloads included. Column names are non-empty and unique across both
// lists. Every dataset has exactly one encoding, so writing the same dataset
// twice gives identical bytes, and any input ReadSnapshot accepts re-encodes
// to itself.
const (
	snapshotMagic   = "STORMSNP"
	snapshotVersion = 1
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// WriteSnapshot writes the dataset to w in the snapshot format.
func (d *Dataset) WriteSnapshot(w io.Writer) error {
	numCols, strCols := d.NumericColumns(), d.StringColumns()
	slices.Sort(numCols)
	slices.Sort(strCols)
	if err := checkColumns(numCols, strCols); err != nil {
		return errors.New("data: writing snapshot: " + err.Error())
	}
	crc := crc32.New(castagnoli)
	bw := bufio.NewWriter(io.MultiWriter(w, crc))
	var scratch [binary.MaxVarintLen64]byte
	uvarint := func(v uint64) { bw.Write(binary.AppendUvarint(scratch[:0], v)) }
	str := func(s string) { uvarint(uint64(len(s))); bw.WriteString(s) }
	f64 := func(v float64) { bw.Write(binary.LittleEndian.AppendUint64(scratch[:0], math.Float64bits(v))) }

	bw.WriteString(snapshotMagic)
	bw.Write(binary.LittleEndian.AppendUint32(scratch[:0], snapshotVersion))
	str(d.name)
	uvarint(uint64(len(d.pos)))
	for _, cols := range [][]string{numCols, strCols} {
		uvarint(uint64(len(cols)))
		for _, c := range cols {
			str(c)
		}
	}
	for _, p := range d.pos {
		f64(p[0])
		f64(p[1])
		f64(p[2])
	}
	for _, c := range numCols {
		for _, v := range d.num[c] {
			f64(v)
		}
	}
	for _, c := range strCols {
		for _, s := range d.str[c] {
			str(s)
		}
	}
	err := bw.Flush() // bufio keeps the first write error
	if err == nil {
		_, err = w.Write(binary.LittleEndian.AppendUint32(nil, crc.Sum32()))
	}
	if err != nil {
		return fmt.Errorf("data: writing snapshot: %w", err)
	}
	return nil
}

// ReadSnapshot decodes one snapshot written by WriteSnapshot. It treats r as
// hostile: a truncated, corrupt, non-canonical or over-long input is an
// error. It reads the whole input first, its buffer growing only as bytes
// arrive, and checks every count and length against those bytes before
// decoding what they claim, so a forged header cannot make it allocate more
// than a small multiple of the input's size.
func ReadSnapshot(r io.Reader) (*Dataset, error) {
	in, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("data: reading snapshot: %w", err)
	}
	if len(in) < 4 {
		return nil, errTruncated
	}
	body, sum := in[:len(in)-4], in[len(in)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(sum) {
		return nil, errors.New("data: reading snapshot: checksum mismatch (corrupt, truncated or trailing bytes)")
	}
	d := decoder{b: body}
	head := d.take(uint64(len(snapshotMagic)) + 4)
	if d.err != nil {
		return nil, d.err
	}
	if string(head[:len(snapshotMagic)]) != snapshotMagic {
		return nil, errors.New("data: reading snapshot: not a snapshot (bad magic)")
	}
	if v := binary.LittleEndian.Uint32(head[len(snapshotMagic):]); v != snapshotVersion {
		return nil, errors.New("data: reading snapshot: unsupported format version " + strconv.FormatUint(uint64(v), 10))
	}
	name := d.str()
	n := d.uvarint()
	var names [2][]string
	for k := range names {
		for i := d.uvarint(); i > 0 && d.err == nil; i-- {
			names[k] = append(names[k], d.str())
		}
	}
	if d.err == nil {
		if err := checkColumns(names[0], names[1]); err != nil {
			d.err = errors.New("data: reading snapshot: " + err.Error())
		}
	}
	var pos []geo.Vec
	for b := d.fixed(n, 24); len(b) > 0; b = b[24:] {
		pos = append(pos, geo.Vec{f64(b), f64(b[8:]), f64(b[16:])})
	}
	num := make(map[string][]float64, len(names[0]))
	for _, c := range names[0] {
		col := []float64{}
		for b := d.fixed(n, 8); len(b) > 0; b = b[8:] {
			col = append(col, f64(b))
		}
		num[c] = col
	}
	str := make(map[string][]string, len(names[1]))
	for _, c := range names[1] {
		col := []string{}
		for i := uint64(0); i < n && d.err == nil; i++ {
			col = append(col, d.str())
		}
		str[c] = col
	}
	if d.err == nil && len(d.b) > 0 {
		d.err = errors.New("data: reading snapshot: trailing bytes before the checksum")
	}
	if d.err != nil {
		return nil, d.err
	}
	return FromColumns(name, pos, num, str)
}

// checkColumns enforces the snapshot's schema rules on sorted column name
// lists: names are non-empty and none repeats, within a list or across both.
func checkColumns(num, str []string) error {
	seen := make(map[string]bool, len(num)+len(str))
	for _, cols := range [][]string{num, str} {
		for i, c := range cols {
			switch {
			case c == "":
				return errors.New("empty column name")
			case seen[c]:
				return errors.New("column name " + strconv.Quote(c) + " repeats")
			case i > 0 && c < cols[i-1]:
				return errors.New("column names out of order at " + strconv.Quote(c))
			}
			seen[c] = true
		}
	}
	return nil
}

func f64(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

var errTruncated = errors.New("data: reading snapshot: truncated")

// decoder walks a checksummed snapshot body. Its first error sticks, and
// later reads return nothing.
type decoder struct {
	b   []byte // the unread rest of the body
	err error
}

// take returns the next n bytes, or nil once they run out.
func (d *decoder) take(n uint64) []byte {
	if d.err == nil && n > uint64(len(d.b)) {
		d.err = errTruncated
	}
	if d.err != nil {
		return nil
	}
	p := d.b[:n:n]
	d.b = d.b[n:]
	return p
}

// fixed returns the bytes of n values of size bytes each, checking n
// against the input before multiplying.
func (d *decoder) fixed(n, size uint64) []byte {
	if n > uint64(len(d.b))/size {
		return d.take(math.MaxUint64)
	}
	return d.take(n * size)
}

// uvarint reads a uvarint and rejects any but its minimal encoding.
func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, k := binary.Uvarint(d.b)
	if k == 0 {
		d.err = errTruncated
		return 0
	}
	if k < 0 || k != (bits.Len64(v|1)+6)/7 {
		d.err = errors.New("data: reading snapshot: malformed uvarint")
		return 0
	}
	d.b = d.b[k:]
	return v
}

func (d *decoder) str() string { return string(d.take(d.uvarint())) }

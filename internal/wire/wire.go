// Package wire defines the coordinator↔shard RPC protocol of the
// distributed STORM deployment: a compact length-prefixed binary codec for
// the shard round shapes (count rounds, which can also return one
// attribute's moments, the batched simulate→fetch sample
// protocol, insert/delete mirroring, the bounding box and value envelope
// a Build returns for insert routing and lost-mass bounds) plus the
// transports that carry it — TCP with per-request deadlines (tcp.go), and
// an in-memory transport for in-process shard hosts that hands the same
// messages over without encoding them (transport.go).
//
// # Frame format
//
// Every message travels as one frame:
//
//	u32  payload length (little endian, kind byte included)
//	u8   message kind (see Kind)
//	...  payload, fixed little-endian fields in struct order
//
// Scalars are fixed-width little endian; float64 travels as its IEEE-754
// bits, so positions and envelope bounds round-trip bit-exactly. Strings
// and slices are u32 length-prefixed. A frame never exceeds MaxFrame;
// decoding is fully bounds-checked and returns an error — never panics —
// on malformed input (FuzzWireCodec enforces this).
//
// The package deliberately has no opinion about retries, fault injection
// or shard placement: those live in package distr, above the transport.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"storm/internal/data"
	"storm/internal/geo"
	"storm/internal/pred"
)

// Kind identifies a wire message type (the byte after the length prefix).
type Kind uint8

// The wire message kinds. Requests and responses are distinct kinds so a
// response can never be misread as a request.
const (
	// KindError is the generic failure response to any request.
	KindError Kind = 1 + iota
	// KindPing probes shard liveness; KindPong answers it.
	KindPing
	KindPong
	// KindBuild asks a shard host to build one shard of a dataset;
	// KindBuildOK acknowledges with the shard's bounding box and value
	// envelope.
	KindBuild
	KindBuildOK
	// KindCount is the coordinator's count round for one shard;
	// KindCountOK answers with the shard's matching count and, when asked
	// and within the asked limit, the moments of one attribute over it.
	KindCount
	KindCountOK
	// KindOpen opens a per-query without-replacement sample stream;
	// KindOpenOK answers with the stream's matching count.
	KindOpen
	KindOpenOK
	// KindFetch pulls a demand-sized sample batch from an open stream;
	// KindEntries carries the samples back.
	KindFetch
	KindEntries
	// KindClose releases an open stream; KindCloseOK acknowledges.
	KindClose
	KindCloseOK
	// KindInsert mirrors one inserted record to the owning shard;
	// KindInsertOK acknowledges.
	KindInsert
	KindInsertOK
	// KindDelete removes one record from a shard; KindDeleteOK reports
	// whether the shard held it.
	KindDelete
	KindDeleteOK
	// Kinds 18–23 are retired (per-attribute summary, tree bounds and
	// record-count requests and their answers): a number is never reused,
	// the decoder refuses it, and a new kind is appended after them.
	_
	_
	_
	_
	_
	_
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	names := map[Kind]string{
		KindError: "error", KindPing: "ping", KindPong: "pong",
		KindBuild: "build", KindBuildOK: "build-ok",
		KindCount: "count", KindCountOK: "count-ok",
		KindOpen: "open", KindOpenOK: "open-ok",
		KindFetch: "fetch", KindEntries: "entries",
		KindClose: "close", KindCloseOK: "close-ok",
		KindInsert: "insert", KindInsertOK: "insert-ok",
		KindDelete: "delete", KindDeleteOK: "delete-ok",
	}
	if n, ok := names[k]; ok {
		return n
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// MaxFrame bounds one frame's payload (kind byte included): large enough
// for a 1M-entry sample batch or exclude list, small enough that a
// corrupted length prefix cannot OOM the reader.
const MaxFrame = 64 << 20

// Error codes carried by the Error message, so clients can distinguish
// retryable states from protocol misuse.
const (
	// ErrCodeGeneric is an unclassified server-side failure.
	ErrCodeGeneric uint8 = iota
	// ErrCodeUnknownDataset means the host has no such dataset.
	ErrCodeUnknownDataset
	// ErrCodeUnknownShard means the host has not built that shard of the
	// dataset (e.g. the shard process restarted and lost it); the client
	// re-issues Build.
	ErrCodeUnknownShard
	// ErrCodeUnknownStream means the stream id is not open on the shard
	// (e.g. lost in a restart); the coordinator reopens with an exclude
	// list of already-emitted records.
	ErrCodeUnknownStream
	// ErrCodeBadRequest means the request was malformed or out of order.
	ErrCodeBadRequest
)

// Msg is implemented by every wire message.
type Msg interface {
	// WireKind returns the message's frame kind byte.
	WireKind() Kind
	// encode appends the payload (kind byte excluded) to the encoder.
	encode(e *encoder)
	// decode parses the payload (kind byte excluded) from the decoder.
	decode(d *decoder)
}

// Error is the failure response to any request.
type Error struct {
	// Code classifies the failure (ErrCode* constants).
	Code uint8
	// Msg is the human-readable cause.
	Msg string
}

// WireKind implements Msg.
func (*Error) WireKind() Kind { return KindError }

// Error implements the error interface, so an *Error response can travel
// up a client call stack directly.
func (m *Error) Error() string { return fmt.Sprintf("wire: remote error (code %d): %s", m.Code, m.Msg) }

func (m *Error) encode(e *encoder) { e.u8(m.Code); e.str(m.Msg) }
func (m *Error) decode(d *decoder) { m.Code = d.u8(); m.Msg = d.str() }

// Ping probes a shard host's liveness.
type Ping struct{}

// WireKind implements Msg.
func (*Ping) WireKind() Kind      { return KindPing }
func (m *Ping) encode(e *encoder) {}
func (m *Ping) decode(d *decoder) {}

// Pong answers a Ping.
type Pong struct{}

// WireKind implements Msg.
func (*Pong) WireKind() Kind      { return KindPong }
func (m *Pong) encode(e *encoder) {}
func (m *Pong) decode(d *decoder) {}

// Target addresses one shard of one dataset on a host; it prefixes every
// shard-scoped request. Replication (DESIGN.md §4.8) needs no replica
// field here: a replica is the same (DS, Shard) served by a different
// host, so replica identity is purely coordinator-side routing — which
// transport the request goes out on — and the wire protocol is unchanged
// at any replication factor.
type Target struct {
	// DS names the dataset.
	DS string
	// Shard is the shard index within the dataset's cluster.
	Shard uint32
}

func (t *Target) encode(e *encoder) { e.str(t.DS); e.u32(t.Shard) }
func (t *Target) decode(d *decoder) { t.DS = d.str(); t.Shard = d.u32() }

// Build asks a shard host to materialize one shard of a dataset it holds
// locally: pack the records IDs names, in the order given, into an RS-tree
// (plus node attribute summaries) at Fanout, keyed over Bounds. The
// coordinator sends the shard's run of leaves of its own STR order, so the
// host sorts nothing.
type Build struct {
	// Target names the (dataset, shard) to build.
	Target
	// Of is the total shard count of the dataset's cluster.
	Of uint32
	// Seed is the cluster seed; the shard's tree seed derives from it
	// exactly as the in-process cluster derives it.
	Seed int64
	// Fanout is the shard RS-tree fanout (0 = default).
	Fanout uint32
	// Bounds is the dataset's box, which the coordinator's order is keyed
	// over; the shard keys its leaves over it too.
	Bounds geo.Rect
	// IDs are the shard's records in leaf order: IDs of the host's copy
	// of the dataset, each below its length and none repeated.
	IDs []data.ID
}

// WireKind implements Msg.
func (*Build) WireKind() Kind { return KindBuild }
func (m *Build) encode(e *encoder) {
	m.Target.encode(e)
	e.u32(m.Of)
	e.i64(m.Seed)
	e.u32(m.Fanout)
	e.rect(m.Bounds)
	e.ids(m.IDs)
}
func (m *Build) decode(d *decoder) {
	m.Target.decode(d)
	m.Of = d.u32()
	m.Seed = d.i64()
	m.Fanout = d.u32()
	m.Bounds = d.rect()
	m.IDs = d.ids()
}

// BuildOK acknowledges a Build with the shard as it now stands.
type BuildOK struct {
	// Box is the shard tree's root bounding box (the ±Inf empty rectangle
	// for an empty shard), which the coordinator routes inserts by.
	Box geo.Rect
	// Attrs is the shard's value envelope: one digest per numeric
	// column, sorted by name so the encoding is canonical.
	Attrs []AttrDigest
}

// AttrDigest is one numeric column's envelope over a shard's records.
type AttrDigest struct {
	// Name is the column name.
	Name string
	pred.AttrStats
}

// WireKind implements Msg.
func (*BuildOK) WireKind() Kind { return KindBuildOK }
func (m *BuildOK) encode(e *encoder) {
	e.rect(m.Box)
	e.u32(uint32(len(m.Attrs)))
	for _, a := range m.Attrs {
		e.str(a.Name)
		e.f64(a.Min)
		e.f64(a.Max)
		e.b(a.HasNaN)
	}
}

// decode reads the digest list; a digest's minimum encoded size is 21
// bytes (name length prefix, two bounds, the NaN flag), bounding
// allocation before the count is trusted. nil is returned for an empty
// list so that decode∘encode is the identity.
func (m *BuildOK) decode(d *decoder) {
	m.Box = d.rect()
	n := int(d.u32())
	if n == 0 || !d.need(n*21) {
		return
	}
	m.Attrs = make([]AttrDigest, n)
	for i := range m.Attrs {
		m.Attrs[i].Name = d.str()
		m.Attrs[i].Min = d.f64()
		m.Attrs[i].Max = d.f64()
		m.Attrs[i].HasNaN = d.b()
	}
}

// Count is the coordinator's count-round request for one shard.
type Count struct {
	// Target names the shard.
	Target
	// Query is the query rectangle, its time axis already narrowed to any
	// `LAST` window: the coordinator resolves the window against its
	// watermark, so every shard counts the one rectangle.
	Query geo.Rect
	// Where is the query's attribute predicate in normal form (empty =
	// none). Shards compile it against their local dataset and prune with
	// their local summaries, so the predicate travels instead of the
	// rejected records.
	Where []pred.Term
	// Attr, when non-empty, asks for the moments of this numeric
	// attribute's present values over the qualifying records, read only if
	// at most Limit records qualify on the shard. A plain count leaves both
	// unset and travels with one flag byte for them.
	Attr  string
	Limit uint64
}

// WireKind implements Msg.
func (*Count) WireKind() Kind { return KindCount }
func (m *Count) encode(e *encoder) {
	m.Target.encode(e)
	e.rect(m.Query)
	e.terms(m.Where)
	e.b(m.Attr != "")
	if m.Attr != "" {
		e.str(m.Attr)
		e.u64(m.Limit)
	}
}
func (m *Count) decode(d *decoder) {
	m.Target.decode(d)
	m.Query = d.rect()
	m.Where = d.terms()
	if d.b() {
		m.Attr = d.str()
		m.Limit = d.u64()
		if m.Attr == "" && d.err == nil {
			// Would re-encode without the flag (the fuzz invariant).
			d.err = fmt.Errorf("wire: count asks for the moments of no attribute")
		}
	}
}

// Moments are the count, mean and sum of squared deviations from the mean
// (M2) of a set of values: what one shard contributes to a mean-family
// answer the coordinator merges by Chan–Golub–LeVeque.
type Moments struct {
	N        uint64
	Mean, M2 float64
}

// CountOK answers a Count.
type CountOK struct {
	// N is the shard's matching count |P_s ∩ q|.
	N uint64
	// Summed reports that Values holds the moments of the requested
	// attribute's present values over all N records: the Count named an
	// attribute the shard summarizes and N fit its limit.
	Summed bool
	Values Moments
}

// WireKind implements Msg.
func (*CountOK) WireKind() Kind { return KindCountOK }
func (m *CountOK) encode(e *encoder) {
	e.u64(m.N)
	e.b(m.Summed)
	if m.Summed {
		e.u64(m.Values.N)
		e.f64(m.Values.Mean)
		e.f64(m.Values.M2)
	}
}
func (m *CountOK) decode(d *decoder) {
	m.N = d.u64()
	if m.Summed = d.b(); m.Summed {
		m.Values = Moments{N: d.u64(), Mean: d.f64(), M2: d.f64()}
	}
}

// Open opens a per-query without-replacement sample stream on a shard —
// the shard half of the coordinator's initialization round.
type Open struct {
	// Target names the shard.
	Target
	// Stream is the coordinator-assigned stream id (unique per cluster).
	Stream uint64
	// Query is the query rectangle, narrowed to any `LAST` window as
	// Count's is, so a windowed stream draws from the same records on
	// every transport.
	Query geo.Rect
	// Seed drives the shard-local sampler RNG, exactly as the in-process
	// cluster seeds it.
	Seed int64
	// Exclude lists record IDs the stream must never emit — the
	// coordinator's already-received samples when it reopens a stream
	// after a shard restart. Empty on first open.
	Exclude []data.ID
	// Where is the query's attribute predicate in normal form (empty =
	// none); the shard prunes and filters locally so only qualifying
	// samples cross the wire.
	Where []pred.Term
}

// WireKind implements Msg.
func (*Open) WireKind() Kind { return KindOpen }
func (m *Open) encode(e *encoder) {
	m.Target.encode(e)
	e.u64(m.Stream)
	e.rect(m.Query)
	e.i64(m.Seed)
	e.ids(m.Exclude)
	e.terms(m.Where)
}
func (m *Open) decode(d *decoder) {
	m.Target.decode(d)
	m.Stream = d.u64()
	m.Query = d.rect()
	m.Seed = d.i64()
	m.Exclude = d.ids()
	m.Where = d.terms()
}

// OpenOK answers an Open.
type OpenOK struct {
	// N is the stream's matching count (exclude-filtered).
	N uint64
}

// WireKind implements Msg.
func (*OpenOK) WireKind() Kind      { return KindOpenOK }
func (m *OpenOK) encode(e *encoder) { e.u64(m.N) }
func (m *OpenOK) decode(d *decoder) { m.N = d.u64() }

// Fetch pulls up to N samples from an open stream — one demand-sized
// request of the batched simulate→fetch→assemble protocol.
type Fetch struct {
	// Target names the shard.
	Target
	// Stream is the stream to pull from.
	Stream uint64
	// N is the maximum number of samples wanted.
	N uint32
}

// WireKind implements Msg.
func (*Fetch) WireKind() Kind { return KindFetch }
func (m *Fetch) encode(e *encoder) {
	m.Target.encode(e)
	e.u64(m.Stream)
	e.u32(m.N)
}
func (m *Fetch) decode(d *decoder) {
	m.Target.decode(d)
	m.Stream = d.u64()
	m.N = d.u32()
}

// Entries answers a Fetch with the drawn samples, in draw order.
type Entries struct {
	// Entries are the samples; fewer than requested means the stream ran
	// short (exhaustion).
	Entries []data.Entry
}

// WireKind implements Msg.
func (*Entries) WireKind() Kind { return KindEntries }
func (m *Entries) encode(e *encoder) {
	e.u32(uint32(len(m.Entries)))
	for _, ent := range m.Entries {
		e.u64(ent.ID)
		e.vec(ent.Pos)
	}
}
func (m *Entries) decode(d *decoder) {
	n := int(d.u32())
	if !d.need(n * (8 + 8*geo.Dims)) {
		return
	}
	m.Entries = make([]data.Entry, n)
	for i := range m.Entries {
		m.Entries[i].ID = d.u64()
		m.Entries[i].Pos = d.vec()
	}
}

// Close releases an open stream.
type Close struct {
	// Target names the shard.
	Target
	// Stream is the stream to release.
	Stream uint64
}

// WireKind implements Msg.
func (*Close) WireKind() Kind      { return KindClose }
func (m *Close) encode(e *encoder) { m.Target.encode(e); e.u64(m.Stream) }
func (m *Close) decode(d *decoder) { m.Target.decode(d); m.Stream = d.u64() }

// CloseOK acknowledges a Close.
type CloseOK struct{}

// WireKind implements Msg.
func (*CloseOK) WireKind() Kind      { return KindCloseOK }
func (m *CloseOK) encode(e *encoder) {}
func (m *CloseOK) decode(d *decoder) {}

// NumAttr is one numeric attribute value of a mirrored insert.
type NumAttr struct {
	// Name is the column name; Val its value for the record.
	Name string
	Val  float64
}

// StrAttr is one string attribute value of a mirrored insert.
type StrAttr struct {
	// Name is the column name; Val its value for the record.
	Name string
	Val  string
}

// Insert mirrors one inserted record to the shard that owns its
// neighborhood. The attribute payload lets a remote shard append the row
// to its local dataset copy (IDs stay aligned because every insert is
// mirrored in order).
type Insert struct {
	// Target names the shard.
	Target
	// ID is the record's dataset-assigned id.
	ID data.ID
	// Pos is the record's (x, y, t) position.
	Pos geo.Vec
	// Num and Str carry the record's attribute values, sorted by name so
	// encoding is canonical.
	Num []NumAttr
	Str []StrAttr
}

// WireKind implements Msg.
func (*Insert) WireKind() Kind { return KindInsert }
func (m *Insert) encode(e *encoder) {
	m.Target.encode(e)
	e.u64(m.ID)
	e.vec(m.Pos)
	e.u32(uint32(len(m.Num)))
	for _, a := range m.Num {
		e.str(a.Name)
		e.f64(a.Val)
	}
	e.u32(uint32(len(m.Str)))
	for _, a := range m.Str {
		e.str(a.Name)
		e.str(a.Val)
	}
}
func (m *Insert) decode(d *decoder) {
	m.Target.decode(d)
	m.ID = d.u64()
	m.Pos = d.vec()
	n := int(d.u32())
	if !d.need(n * 12) {
		return
	}
	m.Num = make([]NumAttr, n)
	for i := range m.Num {
		m.Num[i].Name = d.str()
		m.Num[i].Val = d.f64()
	}
	n = int(d.u32())
	if !d.need(n * 8) {
		return
	}
	m.Str = make([]StrAttr, n)
	for i := range m.Str {
		m.Str[i].Name = d.str()
		m.Str[i].Val = d.str()
	}
}

// InsertOK acknowledges an Insert.
type InsertOK struct{}

// WireKind implements Msg.
func (*InsertOK) WireKind() Kind      { return KindInsertOK }
func (m *InsertOK) encode(e *encoder) {}
func (m *InsertOK) decode(d *decoder) {}

// Delete removes one record from a shard's index.
type Delete struct {
	// Target names the shard.
	Target
	// ID and Pos identify the record.
	ID  data.ID
	Pos geo.Vec
}

// WireKind implements Msg.
func (*Delete) WireKind() Kind { return KindDelete }
func (m *Delete) encode(e *encoder) {
	m.Target.encode(e)
	e.u64(m.ID)
	e.vec(m.Pos)
}
func (m *Delete) decode(d *decoder) {
	m.Target.decode(d)
	m.ID = d.u64()
	m.Pos = d.vec()
}

// DeleteOK answers a Delete.
type DeleteOK struct {
	// Found reports whether the shard held (and removed) the record.
	Found bool
}

// WireKind implements Msg.
func (*DeleteOK) WireKind() Kind      { return KindDeleteOK }
func (m *DeleteOK) encode(e *encoder) { e.b(m.Found) }
func (m *DeleteOK) decode(d *decoder) { m.Found = d.b() }

// newMsg returns a zero message of the given kind, or nil for an unknown
// or retired kind byte.
func newMsg(k Kind) Msg {
	switch k {
	case KindError:
		return &Error{}
	case KindPing:
		return &Ping{}
	case KindPong:
		return &Pong{}
	case KindBuild:
		return &Build{}
	case KindBuildOK:
		return &BuildOK{}
	case KindCount:
		return &Count{}
	case KindCountOK:
		return &CountOK{}
	case KindOpen:
		return &Open{}
	case KindOpenOK:
		return &OpenOK{}
	case KindFetch:
		return &Fetch{}
	case KindEntries:
		return &Entries{}
	case KindClose:
		return &Close{}
	case KindCloseOK:
		return &CloseOK{}
	case KindInsert:
		return &Insert{}
	case KindInsertOK:
		return &InsertOK{}
	case KindDelete:
		return &Delete{}
	case KindDeleteOK:
		return &DeleteOK{}
	default:
		return nil
	}
}

// encoder appends fixed little-endian fields to a byte buffer.
type encoder struct{ buf []byte }

func (e *encoder) u8(v uint8) { e.buf = append(e.buf, v) }
func (e *encoder) b(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *encoder) u32(v uint32) {
	e.buf = append(e.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}
func (e *encoder) u64(v uint64) {
	e.buf = append(e.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}
func (e *encoder) i64(v int64)   { e.u64(uint64(v)) }
func (e *encoder) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}
func (e *encoder) vec(v geo.Vec) {
	for i := 0; i < geo.Dims; i++ {
		e.f64(v[i])
	}
}
func (e *encoder) rect(r geo.Rect) { e.vec(r.Min); e.vec(r.Max) }

// ids encodes a record ID list: count, then the IDs.
func (e *encoder) ids(ids []data.ID) {
	e.u32(uint32(len(ids)))
	for _, id := range ids {
		e.u64(id)
	}
}

// terms encodes a predicate term list: count, then per term the attribute
// name, both bounds and both openness flags.
func (e *encoder) terms(ts []pred.Term) {
	e.u32(uint32(len(ts)))
	for _, t := range ts {
		e.str(t.Attr)
		e.f64(t.Lo)
		e.f64(t.Hi)
		e.b(t.LoOpen)
		e.b(t.HiOpen)
	}
}

// decoder reads fixed little-endian fields from a byte slice; the first
// malformed read sets err and every later read returns zero values, so
// message decode methods never bounds-panic.
type decoder struct {
	buf []byte
	off int
	err error
}

// need reports whether at least n more bytes remain, setting the error
// state otherwise. Slice decoders call it with the minimum encoded size of
// the announced element count before allocating.
func (d *decoder) need(n int) bool {
	if d.err != nil {
		return false
	}
	if n < 0 || d.off+n > len(d.buf) {
		d.err = fmt.Errorf("wire: truncated frame (want %d bytes at offset %d of %d)", n, d.off, len(d.buf))
		return false
	}
	return true
}

func (d *decoder) u8() uint8 {
	if !d.need(1) {
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

// b decodes a bool, rejecting bytes other than 0/1 so that decode∘encode
// is the identity on accepted frames (the fuzz invariant).
func (d *decoder) b() bool {
	v := d.u8()
	if v > 1 && d.err == nil {
		d.err = fmt.Errorf("wire: non-canonical bool byte %d", v)
	}
	return v != 0
}
func (d *decoder) u32() uint32 {
	if !d.need(4) {
		return 0
	}
	b := d.buf[d.off:]
	d.off += 4
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
func (d *decoder) u64() uint64 {
	if !d.need(8) {
		return 0
	}
	b := d.buf[d.off:]
	d.off += 8
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}
func (d *decoder) i64() int64   { return int64(d.u64()) }
func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }
func (d *decoder) str() string {
	n := int(d.u32())
	if !d.need(n) {
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}
func (d *decoder) vec() geo.Vec {
	var v geo.Vec
	for i := 0; i < geo.Dims; i++ {
		v[i] = d.f64()
	}
	return v
}
func (d *decoder) rect() geo.Rect {
	var r geo.Rect
	r.Min = d.vec()
	r.Max = d.vec()
	return r
}

// ids decodes a record ID list (see encoder.ids), bounding the count by
// the bytes left before allocating. nil is returned for an empty list so
// that decode∘encode is the identity.
func (d *decoder) ids() []data.ID {
	n := int(d.u32())
	if n == 0 || !d.need(n*8) {
		return nil
	}
	ids := make([]data.ID, n)
	b := d.buf[d.off : d.off+8*n]
	for i := range ids {
		ids[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	d.off += 8 * n
	return ids
}

// terms decodes a predicate term list. A term's minimum encoded size is 22
// bytes (name length prefix, two bounds, two flags), bounding allocation
// before the count is trusted. nil is returned for an empty list so that
// decode∘encode is the identity.
func (d *decoder) terms() []pred.Term {
	n := int(d.u32())
	if n == 0 || !d.need(n*22) {
		return nil
	}
	ts := make([]pred.Term, n)
	for i := range ts {
		ts[i].Attr = d.str()
		ts[i].Lo = d.f64()
		ts[i].Hi = d.f64()
		ts[i].LoOpen = d.b()
		ts[i].HiOpen = d.b()
	}
	return ts
}

// AppendFrame appends m's frame (length prefix, kind, payload) to dst and
// returns the extended slice.
func AppendFrame(dst []byte, m Msg) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length back-patched below
	e := encoder{buf: dst}
	e.u8(uint8(m.WireKind()))
	m.encode(&e)
	dst = e.buf
	n := len(dst) - start - 4
	dst[start] = byte(n)
	dst[start+1] = byte(n >> 8)
	dst[start+2] = byte(n >> 16)
	dst[start+3] = byte(n >> 24)
	return dst
}

// DecodeFrame parses one frame from the front of b, returning the message
// and the total bytes consumed. It returns an error — never panics — on
// truncated or malformed input, and rejects unknown kinds, oversized
// frames, and payloads with trailing garbage.
func DecodeFrame(b []byte) (Msg, int, error) {
	if len(b) < 5 {
		return nil, 0, fmt.Errorf("wire: frame shorter than header (%d bytes)", len(b))
	}
	n := int(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24)
	if n < 1 || n > MaxFrame {
		return nil, 0, fmt.Errorf("wire: frame length %d out of range", n)
	}
	if len(b) < 4+n {
		return nil, 0, fmt.Errorf("wire: truncated frame: header says %d bytes, have %d", n, len(b)-4)
	}
	k := Kind(b[4])
	m := newMsg(k)
	if m == nil {
		return nil, 0, fmt.Errorf("wire: unknown message kind %d", uint8(k))
	}
	d := decoder{buf: b[5 : 4+n]}
	m.decode(&d)
	if d.err != nil {
		return nil, 0, d.err
	}
	if d.off != len(d.buf) {
		return nil, 0, fmt.Errorf("wire: %v frame has %d trailing payload bytes", k, len(d.buf)-d.off)
	}
	return m, 4 + n, nil
}

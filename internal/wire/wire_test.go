package wire

import (
	"encoding/binary"
	"math"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"storm/internal/data"
	"storm/internal/geo"
	"storm/internal/pred"
)

// sampleMsgs returns one populated instance of every message type,
// exercising empty strings, NaN/Inf floats, empty and non-empty slices.
func sampleMsgs() []Msg {
	inf := math.Inf(1)
	return []Msg{
		&Error{Code: ErrCodeUnknownStream, Msg: "stream 7 not open"},
		&Error{},
		&Ping{},
		&Pong{},
		&Build{Target: Target{DS: "osm", Shard: 3}, Of: 8, Seed: -42, Fanout: 16,
			Bounds: geo.Rect{Min: geo.Vec{-112.5, 40.25, 0}, Max: geo.Vec{-111, 41, inf}}, IDs: []data.ID{9, 0, math.MaxUint64, 4}},
		&BuildOK{Box: geo.Rect{Min: geo.Vec{-112.5, 40.25, 0}, Max: geo.Vec{-111, 41, 86400}}, Attrs: []AttrDigest{
			{Name: "altitude", AttrStats: pred.AttrStats{Min: -12.5, Max: 4400}},
			{Name: "speed", AttrStats: pred.AttrStats{Min: inf, Max: -inf, HasNaN: true}}}},
		&BuildOK{Box: geo.EmptyRect()},
		&Count{Target: Target{DS: "tweets", Shard: 0}, Query: geo.Rect{Min: geo.Vec{20, 20, -inf}, Max: geo.Vec{60, 60, inf}}},
		&CountOK{N: 9999},
		&Count{Target: Target{DS: "osm", Shard: 2}, Query: geo.Rect{Min: geo.Vec{-88, 41.5, 0}, Max: geo.Vec{-87, 42.5, inf}},
			Where: []pred.Term{{Attr: "altitude", Lo: 100, Hi: inf, LoOpen: true}}, Attr: "altitude", Limit: math.MaxUint64},
		&CountOK{N: 35400, Summed: true, Values: Moments{N: 35398, Mean: 181.25, M2: math.NaN()}},
		&CountOK{Summed: true},
		&Open{Target: Target{DS: "osm", Shard: 1}, Stream: 77, Query: geo.Rect{Min: geo.Vec{0, 0, 0}, Max: geo.Vec{1, 1, 1}}, Seed: 12345, Exclude: []data.ID{1, 5, 9}},
		&Open{Target: Target{DS: "osm", Shard: 1}, Stream: 78, Seed: 1},
		&OpenOK{N: 4242},
		&Fetch{Target: Target{DS: "osm", Shard: 2}, Stream: 77, N: 32},
		&Entries{Entries: []data.Entry{{ID: 3, Pos: geo.Vec{1.5, -2.5, 3.25}}, {ID: 9, Pos: geo.Vec{0, 0, 0}}}},
		&Entries{},
		&Close{Target: Target{DS: "osm", Shard: 2}, Stream: 77},
		&CloseOK{},
		&Insert{Target: Target{DS: "stations", Shard: 0}, ID: 2001, Pos: geo.Vec{10, 20, 30},
			Num: []NumAttr{{Name: "speed", Val: 88.5}, {Name: "temp", Val: math.NaN()}},
			Str: []StrAttr{{Name: "tag", Val: "snow"}, {Name: "user", Val: ""}}},
		&InsertOK{},
		&Delete{Target: Target{DS: "osm", Shard: 5}, ID: 17, Pos: geo.Vec{-1, -2, -3}},
		&DeleteOK{Found: true},
		&Build{Target: Target{DS: "empty"}, Of: 2, Bounds: geo.EmptyRect()},
	}
}

// msgEqual compares messages treating NaN as equal to itself, which
// reflect.DeepEqual already does for float64 fields via bit patterns only
// when identical; we compare re-encoded bytes instead for robustness.
func msgEqual(t *testing.T, a, b Msg) bool {
	t.Helper()
	if a.WireKind() != b.WireKind() {
		return false
	}
	return string(AppendFrame(nil, a)) == string(AppendFrame(nil, b))
}

func TestRoundTripAllMessages(t *testing.T) {
	for _, m := range sampleMsgs() {
		frame := AppendFrame(nil, m)
		got, n, err := DecodeFrame(frame)
		if err != nil {
			t.Fatalf("%v: decode: %v", m.WireKind(), err)
		}
		if n != len(frame) {
			t.Fatalf("%v: consumed %d of %d bytes", m.WireKind(), n, len(frame))
		}
		if !msgEqual(t, m, got) {
			t.Fatalf("%v: round-trip mismatch:\n in: %#v\nout: %#v", m.WireKind(), m, got)
		}
	}
}

// TestPlainCountFrameSize: a count round that asks for no moments costs
// one flag byte per frame over the format without them — 98 and 13 bytes
// for this request and its answer. A `LAST` window travels inside the
// query rectangle and adds no bytes; a plain stream open (no exclude list,
// no predicate) is 88 bytes.
func TestPlainCountFrameSize(t *testing.T) {
	inf := math.Inf(1)
	q := geo.Rect{Min: geo.Vec{-88, 41.5, 0}, Max: geo.Vec{-87, 42.5, inf}}
	req := &Count{Target: Target{DS: "osm", Shard: 1}, Query: q,
		Where: []pred.Term{{Attr: "altitude", Lo: 100, Hi: inf, LoOpen: true}}}
	if n := len(AppendFrame(nil, req)); n > 98+1 {
		t.Errorf("plain Count frame is %d bytes, want at most %d", n, 98+1)
	}
	if n := len(AppendFrame(nil, &CountOK{N: 5})); n > 13+1 {
		t.Errorf("plain CountOK frame is %d bytes, want at most %d", n, 13+1)
	}
	open := &Open{Target: Target{DS: "osm", Shard: 1}, Stream: 77, Query: q, Seed: 12345}
	if n := len(AppendFrame(nil, open)); n > 88 {
		t.Errorf("plain Open frame is %d bytes, want at most %d", n, 88)
	}
}

// TestCountRefusesMomentsOfNoAttribute: a Count whose flag asks for the
// moments of an empty attribute name would re-encode without the flag, so
// the decoder refuses it.
func TestCountRefusesMomentsOfNoAttribute(t *testing.T) {
	f := AppendFrame(nil, &Count{Target: Target{DS: "d"}, Attr: "a", Limit: 7})
	// The tail is flag, name length (u32), "a", limit (u64): zero the
	// length and drop the name byte.
	tail := len(f) - 8 - 1 - 4
	bad := append(append([]byte(nil), f[:tail]...), 0, 0, 0, 0)
	bad = append(bad, f[len(f)-8:]...)
	bad[0]-- // one payload byte fewer
	if _, _, err := DecodeFrame(bad); err == nil || !strings.Contains(err.Error(), "no attribute") {
		t.Errorf("moments of no attribute: err %v", err)
	}
}

func TestRoundTripPreservesFloatBits(t *testing.T) {
	in := &Entries{Entries: []data.Entry{{ID: 1, Pos: geo.Vec{math.NaN(), math.Inf(-1), -0.0}}}}
	got, _, err := DecodeFrame(AppendFrame(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	out := got.(*Entries).Entries[0].Pos
	for i := 0; i < geo.Dims; i++ {
		if math.Float64bits(out[i]) != math.Float64bits(in.Entries[0].Pos[i]) {
			t.Fatalf("dim %d: bits %x != %x", i, math.Float64bits(out[i]), math.Float64bits(in.Entries[0].Pos[i]))
		}
	}
}

func TestDecodeFrameRejectsMalformed(t *testing.T) {
	cases := map[string][]byte{
		"empty":          {},
		"short header":   {1, 0, 0},
		"zero length":    {0, 0, 0, 0, byte(KindPing)},
		"oversized":      {0xff, 0xff, 0xff, 0xff, byte(KindPing)},
		"unknown kind":   {1, 0, 0, 0, 0xee},
		"truncated body": AppendFrame(nil, &CountOK{N: 7})[:8],
		"trailing bytes": func() []byte {
			f := AppendFrame(nil, &Ping{})
			f[0] += 2 // claim two extra payload bytes
			return append(f, 0xab, 0xcd)
		}(),
		"huge exclude count": func() []byte {
			f := AppendFrame(nil, &Open{Target: Target{DS: "d"}})
			// Overwrite the exclude-count u32 with an absurd value. It sits
			// 8 bytes from the end: before the terms count (4 bytes).
			i := len(f) - 8
			f[i], f[i+1], f[i+2], f[i+3] = 0xff, 0xff, 0xff, 0x7f
			return f
		}(),
	}
	for name, b := range cases {
		if _, _, err := DecodeFrame(b); err == nil {
			t.Errorf("%s: expected error, got none", name)
		}
	}
}

func TestAppendFrameChains(t *testing.T) {
	var buf []byte
	msgs := sampleMsgs()
	for _, m := range msgs {
		buf = AppendFrame(buf, m)
	}
	for i := 0; len(buf) > 0; i++ {
		m, n, err := DecodeFrame(buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !msgEqual(t, msgs[i], m) {
			t.Fatalf("frame %d: mismatch", i)
		}
		buf = buf[n:]
	}
}

// echoHandler answers Count with its query volume and everything else
// with Pong, for transport plumbing tests.
type echoHandler struct {
	mu     sync.Mutex
	served int
}

func (h *echoHandler) Handle(req Msg) Msg {
	h.mu.Lock()
	h.served++
	h.mu.Unlock()
	switch m := req.(type) {
	case *Count:
		return &CountOK{N: uint64(m.Query.Volume())}
	case *Fetch:
		ents := make([]data.Entry, m.N)
		for i := range ents {
			ents[i] = data.Entry{ID: data.ID(i), Pos: geo.Vec{float64(i), 0, 0}}
		}
		return &Entries{Entries: ents}
	case *Ping:
		return &Pong{}
	default:
		return &Error{Code: ErrCodeBadRequest, Msg: "unexpected"}
	}
}

func TestTCPTransport(t *testing.T) {
	h := &echoHandler{}
	srv, err := NewServer("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl := NewTCPClient(srv.Addr())
	defer cl.Close()

	// Sequential requests reuse the pooled connection.
	for i := 1; i <= 3; i++ {
		resp, err := cl.RoundTrip(&Fetch{N: uint32(i)}, time.Second)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if got := len(resp.(*Entries).Entries); got != i {
			t.Fatalf("round %d: %d entries", i, got)
		}
	}

	// Concurrent requests each get their own connection.
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := cl.RoundTrip(&Ping{}, time.Second); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	c := cl.Counts()
	if c.MsgsSent != 11 || c.MsgsRecv != 11 {
		t.Fatalf("client counts = %+v, want 11 msgs each way", c)
	}
	if c.BytesSent == 0 || c.BytesRecv == 0 {
		t.Fatalf("client byte counts empty: %+v", c)
	}
	// The server accounts a send after its Write returns, and the client's
	// read of that response can beat it: wait for the last send to land.
	sc := srv.Counts()
	for deadline := time.Now().Add(2 * time.Second); sc.MsgsSent < 11 && time.Now().Before(deadline); sc = srv.Counts() {
		time.Sleep(time.Millisecond)
	}
	if sc.MsgsRecv != 11 || sc.MsgsSent != 11 {
		t.Fatalf("server counts = %+v", sc)
	}
}

// TestServeAnswersRequestsQueuedBeforeIt writes a request to a bound
// listener nobody accepts on yet, then starts Serve on it: the request
// must be answered on the connection it came in on, as a coordinator's
// Build is by a shard host that binds before it generates its datasets.
func TestServeAnswersRequestsQueuedBeforeIt(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := NewTCPClient(ln.Addr().String())
	defer cl.Close()
	type result struct {
		resp Msg
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := cl.RoundTrip(&Fetch{N: 3}, 10*time.Second)
		done <- result{resp, err}
	}()
	// The client counts a request once its Write has returned: from then
	// on it sits in the queued connection.
	for cl.Counts().MsgsSent == 0 {
		time.Sleep(time.Millisecond)
	}
	select {
	case r := <-done:
		t.Fatalf("answered before Serve started: %#v, %v", r.resp, r.err)
	case <-time.After(20 * time.Millisecond):
	}

	srv := Serve(ln, &echoHandler{})
	defer srv.Close()
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if got := len(r.resp.(*Entries).Entries); got != 3 {
		t.Fatalf("queued Fetch answered with %d entries, want 3", got)
	}
	if c := cl.Counts(); c.MsgsSent != 1 || c.MsgsRecv != 1 {
		t.Fatalf("client counts = %+v, want one request answered on one connection", c)
	}
	if srv.Addr() != ln.Addr().String() {
		t.Fatalf("Addr() = %s, want the listener's %s", srv.Addr(), ln.Addr())
	}
}

func TestTCPDeadline(t *testing.T) {
	block := make(chan struct{})
	h := handlerFunc(func(req Msg) Msg {
		if _, ok := req.(*Fetch); ok {
			<-block
		}
		return &Pong{}
	})
	srv, err := NewServer("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer close(block)

	cl := NewTCPClient(srv.Addr())
	defer cl.Close()

	start := time.Now()
	_, err = cl.RoundTrip(&Fetch{N: 1}, 30*time.Millisecond)
	if err == nil {
		t.Fatal("expected deadline error")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("deadline took %v", d)
	}
	// The client must recover: the dead connection was dropped, a fresh
	// one serves the next request.
	if _, err := cl.RoundTrip(&Ping{}, time.Second); err != nil {
		t.Fatalf("post-timeout request: %v", err)
	}
}

func TestTCPDialFailure(t *testing.T) {
	cl := NewTCPClient("127.0.0.1:1") // nothing listens here
	defer cl.Close()
	if _, err := cl.RoundTrip(&Ping{}, 100*time.Millisecond); err == nil {
		t.Fatal("expected dial error")
	}
}

func TestServerPanicGuard(t *testing.T) {
	h := handlerFunc(func(req Msg) Msg {
		if _, ok := req.(*Fetch); ok {
			panic("boom")
		}
		return &Pong{}
	})
	srv, err := NewServer("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := NewTCPClient(srv.Addr())
	defer cl.Close()
	resp, err := cl.RoundTrip(&Fetch{N: 1}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := resp.(*Error); !ok || e.Code != ErrCodeGeneric {
		t.Fatalf("resp = %#v, want generic Error", resp)
	}
	// Connection survives the panic.
	if _, err := cl.RoundTrip(&Ping{}, time.Second); err != nil {
		t.Fatal(err)
	}
}

type handlerFunc func(Msg) Msg

func (f handlerFunc) Handle(req Msg) Msg { return f(req) }

func TestKindStringTotal(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range sampleMsgs() {
		s := m.WireKind().String()
		if s == "" || s[0] == 'K' {
			t.Fatalf("kind %d has no name", m.WireKind())
		}
		seen[s] = true
	}
	if !seen["fetch"] || !seen["entries"] {
		t.Fatal("expected canonical kind names")
	}
	if got := Kind(200).String(); got != "Kind(200)" {
		t.Fatalf("unknown kind string = %q", got)
	}
}

// TestMsgTypesCoverAllKinds: every live kind appears in sampleMsgs, so
// the round-trip test is total over the protocol, and the retired kinds —
// their numbers kept so the checked-in corpus keeps its meaning — are
// refused by the decoder.
func TestMsgTypesCoverAllKinds(t *testing.T) {
	covered := map[Kind]bool{}
	for _, m := range sampleMsgs() {
		covered[m.WireKind()] = true
	}
	retired := map[Kind]bool{18: true, 19: true, 20: true, 21: true, 22: true, 23: true}
	for k := Kind(1); k != 0; k++ {
		m := newMsg(k)
		if retired[k] {
			if m != nil {
				t.Fatalf("retired kind %d decodes as %T", k, m)
			}
			if _, _, err := DecodeFrame([]byte{1, 0, 0, 0, byte(k)}); err == nil {
				t.Fatalf("DecodeFrame accepts retired kind %d", k)
			}
			continue
		}
		if m == nil {
			if k <= KindDeleteOK {
				t.Fatalf("newMsg(%d) = nil inside kind range", k)
			}
			continue
		}
		if reflect.TypeOf(m).Kind() != reflect.Ptr {
			t.Fatalf("newMsg(%d) not a pointer", k)
		}
		if !covered[k] {
			t.Fatalf("kind %v not covered by sampleMsgs", k)
		}
	}
}

// TestBuildIDCountBoundedByFrame: a Build's ID count comes off the wire.
// One past what the frame's remaining bytes can hold is refused before the
// ID slice is allocated, so a corrupt count costs no memory.
func TestBuildIDCountBoundedByFrame(t *testing.T) {
	frame := AppendFrame(nil, &Build{Target: Target{DS: "osm"}, Of: 2, IDs: []data.ID{1, 2}})
	// The frame ends with the ID count and the two IDs.
	binary.LittleEndian.PutUint32(frame[len(frame)-20:], math.MaxInt32)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := DecodeFrame(frame)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("a Build announcing %d IDs in %d bytes decoded: %v", math.MaxInt32, len(frame), err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
		t.Errorf("decoding the refused Build allocated %d bytes", grew)
	}
}

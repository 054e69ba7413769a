package wire

import (
	"testing"
)

// FuzzWireCodec feeds arbitrary bytes to the frame decoder. Invariants:
// the decoder never panics, and any frame it accepts re-encodes to the
// exact same bytes (decode∘encode is the identity on valid frames), so a
// hostile or corrupted peer can neither crash a host nor smuggle a frame
// that means different things to different endpoints.
//
// The seed corpus in testdata/fuzz/FuzzWireCodec holds one encoded frame
// per message kind, retired kinds included (the decoder refuses those),
// plus malformed prefixes; `make fuzz-smoke` runs this alongside
// FuzzParseFaultPlan.
func FuzzWireCodec(f *testing.F) {
	for _, m := range sampleMsgs() {
		f.Add(AppendFrame(nil, m))
	}
	// Malformed seeds: truncations, bad kinds, absurd lengths.
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 1})
	f.Add([]byte{1, 0, 0, 0, 0xee})
	f.Add(AppendFrame(nil, &Ping{})[:4])
	// Retired kinds: summary, bounds and length requests and answers.
	for _, k := range []byte{18, 19, 20, 21, 22, 23} {
		f.Add([]byte{1, 0, 0, 0, k})
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		m, n, err := DecodeFrame(b)
		if err != nil {
			return
		}
		if n < 5 || n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		re := AppendFrame(nil, m)
		if string(re) != string(b[:n]) {
			t.Fatalf("decode/encode not identity:\n in: %x\nout: %x", b[:n], re)
		}
		// A re-decoded frame must succeed and consume everything.
		m2, n2, err := DecodeFrame(re)
		if err != nil || n2 != len(re) || m2.WireKind() != m.WireKind() {
			t.Fatalf("re-decode failed: n=%d err=%v", n2, err)
		}
	})
}

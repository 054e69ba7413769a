package wire

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
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
// FuzzParseFaultPlan. TestCorpusSeedsDecode keeps the live kinds' seeds in
// the current layout.
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

// TestCorpusSeedsDecode: every live kind has a corpus seed named after it
// (the kind's name without its dash: "countok" for count-ok), and that seed
// is one whole frame of the kind in the current layout, so the corpus seeds
// the decoder's accepting path and not only its error path. A frame layout
// change must re-encode these seeds; malformed seeds carry other names.
func TestCorpusSeedsDecode(t *testing.T) {
	for k := KindError; k <= KindDeleteOK; k++ {
		if newMsg(k) == nil {
			continue
		}
		name := strings.ReplaceAll(k.String(), "-", "")
		raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzWireCodec", name))
		if err != nil {
			t.Errorf("kind %v has no corpus seed: %v", k, err)
			continue
		}
		lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
		if !ok || !strings.HasSuffix(lit, ")") {
			t.Errorf("seed %s is not one []byte corpus value", name)
			continue
		}
		b, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if err != nil {
			t.Errorf("seed %s: %v", name, err)
			continue
		}
		m, n, err := DecodeFrame([]byte(b))
		switch {
		case err != nil:
			t.Errorf("seed %s does not decode: %v", name, err)
		case n != len(b) || m.WireKind() != k:
			t.Errorf("seed %s decodes as %v over %d of %d bytes, want one %v frame", name, m.WireKind(), n, len(b), k)
		}
	}
}

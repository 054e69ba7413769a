package hilbert

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(4, 8); err == nil {
		t.Error("dims=4 should be rejected")
	}
	if _, err := New(2, 0); err == nil {
		t.Error("order=0 should be rejected")
	}
	if _, err := New(3, 22); err == nil {
		t.Error("order=22 should be rejected (3*22 > 63)")
	}
	if _, err := New(2, 16); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
}

// TestEncodeBijective2D checks that every cell of a small 2-D curve maps to
// a distinct index and decodes back.
func TestEncodeBijective2D(t *testing.T) {
	c := MustNew(2, 4) // 16x16 grid
	seen := make(map[uint64]bool)
	for x := uint64(0); x < 16; x++ {
		for y := uint64(0); y < 16; y++ {
			h := c.Encode(x, y)
			if h >= 256 {
				t.Fatalf("index %d out of range", h)
			}
			if seen[h] {
				t.Fatalf("duplicate index %d at (%d,%d)", h, x, y)
			}
			seen[h] = true
			d := c.Decode(h)
			if d[0] != x || d[1] != y {
				t.Fatalf("Decode(Encode(%d,%d)) = %v", x, y, d)
			}
		}
	}
}

// TestEncodeBijective3D does the same over a small 3-D curve.
func TestEncodeBijective3D(t *testing.T) {
	c := MustNew(3, 3) // 8x8x8
	seen := make(map[uint64]bool)
	for x := uint64(0); x < 8; x++ {
		for y := uint64(0); y < 8; y++ {
			for z := uint64(0); z < 8; z++ {
				h := c.Encode(x, y, z)
				if h >= 512 {
					t.Fatalf("index %d out of range", h)
				}
				if seen[h] {
					t.Fatalf("duplicate index %d", h)
				}
				seen[h] = true
				d := c.Decode(h)
				if d[0] != x || d[1] != y || d[2] != z {
					t.Fatalf("roundtrip failed at (%d,%d,%d): %v", x, y, z, d)
				}
			}
		}
	}
}

// TestCurveContinuity verifies the defining Hilbert property: consecutive
// indices map to cells at L1 distance exactly 1.
func TestCurveContinuity(t *testing.T) {
	for _, dims := range []int{2, 3} {
		c := MustNew(dims, 3)
		total := uint64(1) << (3 * uint(dims))
		prev := c.Decode(0)
		for h := uint64(1); h < total; h++ {
			cur := c.Decode(h)
			dist := uint64(0)
			for i := range cur {
				if cur[i] > prev[i] {
					dist += cur[i] - prev[i]
				} else {
					dist += prev[i] - cur[i]
				}
			}
			if dist != 1 {
				t.Fatalf("dims=%d: cells for h=%d and h=%d are at distance %d", dims, h-1, h, dist)
			}
			prev = cur
		}
	}
}

// Property: round trip holds for random coordinates at full order.
func TestRoundTripProperty(t *testing.T) {
	c2 := MustNew(2, 21)
	c3 := MustNew(3, 21)
	f := func(x, y, z uint64) bool {
		m := c2.Max()
		x, y, z = x%m, y%m, z%m
		d2 := c2.Decode(c2.Encode(x, y))
		if d2[0] != x || d2[1] != y {
			return false
		}
		d3 := c3.Decode(c3.Encode(x, y, z))
		return d3[0] == x && d3[1] == y && d3[2] == z
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestEncodeClampsOutOfRange(t *testing.T) {
	c := MustNew(2, 4)
	h := c.Encode(1000, 1000) // clamped to 15,15
	want := c.Encode(15, 15)
	if h != want {
		t.Errorf("clamped encode = %d, want %d", h, want)
	}
}

func TestEncodePanicsOnDimsMismatch(t *testing.T) {
	c := MustNew(2, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("Encode with wrong arity should panic")
		}
	}()
	c.Encode(1, 2, 3)
}

func TestQuantizer(t *testing.T) {
	c := MustNew(2, 8)
	q, err := NewQuantizer(c, []float64{0, 0}, []float64{100, 100})
	if err != nil {
		t.Fatal(err)
	}
	// Same cell for nearby points, different for far ones.
	a := q.Value(10, 10)
	b := q.Value(10.01, 10.01)
	far := q.Value(90, 90)
	if a != b {
		t.Errorf("nearby points should share a cell at order 8: %d vs %d", a, b)
	}
	if a == far {
		t.Error("distant points should differ")
	}
	// Out-of-box values clamp instead of wrapping.
	lo := q.Value(-50, -50)
	hi := q.Value(500, 500)
	if lo != q.Value(0, 0) || hi != q.Value(100, 100) {
		t.Error("clamping broken")
	}
}

func TestQuantizerDegenerateDimension(t *testing.T) {
	c := MustNew(3, 8)
	q, err := NewQuantizer(c, []float64{0, 0, 5}, []float64{10, 10, 5})
	if err != nil {
		t.Fatal(err)
	}
	// All t values map to the same lattice plane without panicking.
	if q.Value(1, 1, 5) != q.Value(1, 1, 99) {
		t.Error("degenerate dimension should collapse")
	}
}

func TestQuantizerErrors(t *testing.T) {
	c := MustNew(2, 8)
	if _, err := NewQuantizer(c, []float64{0}, []float64{1, 2}); err == nil {
		t.Error("dimension mismatch should error")
	}
	if _, err := NewQuantizer(c, []float64{5, 0}, []float64{1, 1}); err == nil {
		t.Error("inverted bounds should error")
	}
}

// TestLocality spot-checks that Hilbert ordering keeps close points close:
// the average index distance of adjacent cells must be far below that of a
// row-major ordering.
func TestLocality(t *testing.T) {
	c := MustNew(2, 6) // 64x64
	var hilbertSum, rowSum float64
	n := 0
	for x := uint64(0); x < 63; x++ {
		for y := uint64(0); y < 64; y++ {
			h1 := c.Encode(x, y)
			h2 := c.Encode(x+1, y)
			d := int64(h1) - int64(h2)
			if d < 0 {
				d = -d
			}
			hilbertSum += float64(d)
			r1 := x*64 + y
			r2 := (x+1)*64 + y
			rowSum += float64(r2 - r1)
			n++
		}
	}
	if hilbertSum/float64(n) >= rowSum/float64(n) {
		t.Errorf("hilbert locality (%.1f) not better than row-major (%.1f)",
			hilbertSum/float64(n), rowSum/float64(n))
	}
}

// TestValue3MatchesValue compares Value3 with the generic Value at every
// order over points drawn from twice the box (so half the draws on each
// axis clamp) and at the far corners, with and without a degenerate axis.
func TestValue3MatchesValue(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for order := uint(1); order <= 21; order++ {
		c := MustNew(3, order)
		for _, hi := range [][]float64{{10, 100, 7}, {10, 100, 3}} {
			lo := []float64{-10, 0, 3}
			q, err := NewQuantizer(c, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20_000; i++ {
				var p [3]float64
				for d := range p {
					w := hi[d] - lo[d]
					p[d] = lo[d] - w/2 + 2*w*rng.Float64()
				}
				if got, want := q.Value3(p[0], p[1], p[2]), q.Value(p[0], p[1], p[2]); got != want {
					t.Fatalf("order %d hi %v point %v: Value3 %d != Value %d", order, hi, p, got, want)
				}
			}
			for _, v := range [][3]float64{{-1e9, -1e9, -1e9}, {1e9, 1e9, 1e9}, {-10, 100, 5}} {
				if got, want := q.Value3(v[0], v[1], v[2]), q.Value(v[0], v[1], v[2]); got != want {
					t.Errorf("order %d hi %v corner %v: Value3 %d != Value %d", order, hi, v, got, want)
				}
			}
		}
	}
}

func TestValue3PanicsOnNon3D(t *testing.T) {
	c := MustNew(2, 8)
	q, _ := NewQuantizer(c, []float64{0, 0}, []float64{1, 1})
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	q.Value3(0, 0, 0)
}

// TestValue3ExhaustiveSmallOrders checks every lattice cell of the orders
// small enough to enumerate: Value3 at the cell's centre is Curve.Encode
// of the cell.
func TestValue3ExhaustiveSmallOrders(t *testing.T) {
	for order := uint(1); order <= 5; order++ {
		c := MustNew(3, order)
		n := c.Max()
		q, err := NewQuantizer(c, []float64{0, 0, 0}, []float64{float64(n), float64(n), float64(n)})
		if err != nil {
			t.Fatal(err)
		}
		for x := uint64(0); x < n; x++ {
			for y := uint64(0); y < n; y++ {
				for z := uint64(0); z < n; z++ {
					got := q.Value3(float64(x)+0.5, float64(y)+0.5, float64(z)+0.5)
					if want := c.Encode(x, y, z); got != want {
						t.Fatalf("order %d cell (%d,%d,%d): Value3 %d != Encode %d", order, x, y, z, got, want)
					}
				}
			}
		}
	}
}

func TestValue3NoAllocs(t *testing.T) {
	q, err := NewQuantizer(MustNew(3, 16), []float64{0, 0, 0}, []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { sink = q.Value3(0.3, 0.6, 0.9) }); n != 0 {
		t.Errorf("Value3 allocates %v times per call", n)
	}
}

// FuzzValue3 holds Value3 to Value on arbitrary floats (NaN, infinities
// and denormals included) at an arbitrary order.
func FuzzValue3(f *testing.F) {
	f.Add(uint8(16), 0.5, 0.5, 0.5)
	f.Add(uint8(1), -1.0, 2.0, 0.0)
	f.Add(uint8(21), 1.0, 1.0, 1.0)
	f.Add(uint8(7), math.NaN(), math.Inf(1), math.Inf(-1))
	f.Fuzz(func(t *testing.T, o uint8, x, y, z float64) {
		order := uint(o)%21 + 1
		q, err := NewQuantizer(MustNew(3, order), []float64{0, -1, 0}, []float64{1, 1, 0})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := q.Value3(x, y, z), q.Value(x, y, z); got != want {
			t.Fatalf("order %d (%v,%v,%v): Value3 %d != Value %d", order, x, y, z, got, want)
		}
	})
}

var sink uint64

// BenchmarkValue3 keys random in-box points at the order partitioning and
// the R-tree use (16): the per-record cost of every Hilbert sort.
func BenchmarkValue3(b *testing.B) {
	q, err := NewQuantizer(MustNew(3, 16), []float64{0, 0, 0}, []float64{1, 1, 1})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	pts := make([][3]float64, 1<<14)
	for i := range pts {
		pts[i] = [3]float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := &pts[i&(len(pts)-1)]
		sink = q.Value3(p[0], p[1], p[2])
	}
}

package geo

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestRectContains(t *testing.T) {
	r := NewRect(Vec{0, 0, 0}, Vec{10, 10, 10})
	cases := []struct {
		p    Vec
		want bool
	}{
		{Vec{5, 5, 5}, true},
		{Vec{0, 0, 0}, true},    // min boundary inclusive
		{Vec{10, 10, 10}, true}, // max boundary inclusive
		{Vec{-0.001, 5, 5}, false},
		{Vec{5, 10.001, 5}, false},
		{Vec{5, 5, -1}, false},
	}
	for _, c := range cases {
		if got := r.Contains(c.p); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestRectIntersects(t *testing.T) {
	a := NewRect(Vec{0, 0, 0}, Vec{5, 5, 5})
	cases := []struct {
		b    Rect
		want bool
	}{
		{NewRect(Vec{4, 4, 4}, Vec{8, 8, 8}), true},
		{NewRect(Vec{5, 5, 5}, Vec{9, 9, 9}), true}, // touching corner counts
		{NewRect(Vec{6, 0, 0}, Vec{9, 5, 5}), false},
		{NewRect(Vec{0, 0, 5.1}, Vec{5, 5, 9}), false},
		{NewRect(Vec{1, 1, 1}, Vec{2, 2, 2}), true}, // contained
	}
	for _, c := range cases {
		if got := a.Intersects(c.b); got != c.want {
			t.Errorf("Intersects(%v) = %v, want %v", c.b, got, c.want)
		}
		if got := c.b.Intersects(a); got != c.want {
			t.Errorf("Intersects not symmetric for %v", c.b)
		}
	}
}

func TestEmptyRect(t *testing.T) {
	e := EmptyRect()
	if !e.IsEmpty() {
		t.Fatal("EmptyRect should be empty")
	}
	if e.Contains(Vec{0, 0, 0}) {
		t.Error("empty rect should contain nothing")
	}
	if e.Volume() != 0 || e.Margin() != 0 {
		t.Error("empty rect should have zero volume and margin")
	}
	r := NewRect(Vec{1, 2, 3}, Vec{4, 5, 6})
	if got := e.Extend(r); got != r {
		t.Errorf("Extend from empty = %v, want %v", got, r)
	}
	if got := r.Extend(e); got != r {
		t.Errorf("Extend with empty = %v, want %v", got, r)
	}
}

func TestExtendAndVolume(t *testing.T) {
	a := NewRect(Vec{0, 0, 0}, Vec{1, 1, 1})
	b := NewRect(Vec{2, 2, 2}, Vec{3, 4, 5})
	u := a.Extend(b)
	want := NewRect(Vec{0, 0, 0}, Vec{3, 4, 5})
	if u != want {
		t.Fatalf("Extend = %v, want %v", u, want)
	}
	if got := u.Volume(); got != 3*4*5 {
		t.Errorf("Volume = %v, want 60", got)
	}
	if got := u.Margin(); got != 3+4+5 {
		t.Errorf("Margin = %v, want 12", got)
	}
}

func TestIntersect(t *testing.T) {
	a := NewRect(Vec{0, 0, 0}, Vec{5, 5, 5})
	b := NewRect(Vec{3, 3, 3}, Vec{8, 8, 8})
	got := a.Intersect(b)
	want := NewRect(Vec{3, 3, 3}, Vec{5, 5, 5})
	if got != want {
		t.Fatalf("Intersect = %v, want %v", got, want)
	}
	c := NewRect(Vec{9, 9, 9}, Vec{10, 10, 10})
	if !a.Intersect(c).IsEmpty() {
		t.Error("disjoint intersection should be empty")
	}
}

func TestEnlargement(t *testing.T) {
	a := NewRect(Vec{0, 0, 0}, Vec{2, 2, 2})
	if got := a.Enlargement(a); got != 0 {
		t.Errorf("self-enlargement = %v, want 0", got)
	}
	b := NewRect(Vec{0, 0, 0}, Vec{4, 2, 2})
	if got := a.Enlargement(b); got != 8 {
		t.Errorf("Enlargement = %v, want 8", got)
	}
}

func TestNewRectPanicsOnInverted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRect with min > max should panic")
		}
	}()
	NewRect(Vec{1, 0, 0}, Vec{0, 1, 1})
}

func TestVecOps(t *testing.T) {
	v := Vec{1, 2, 3}
	if v.X() != 1 || v.Y() != 2 || v.T() != 3 {
		t.Error("accessors wrong")
	}
	if got := v.Add(Vec{1, 1, 1}); got != (Vec{2, 3, 4}) {
		t.Errorf("Add = %v", got)
	}
	if got := v.Sub(Vec{1, 1, 1}); got != (Vec{0, 1, 2}) {
		t.Errorf("Sub = %v", got)
	}
	if got := v.Scale(2); got != (Vec{2, 4, 6}) {
		t.Errorf("Scale = %v", got)
	}
	if got := (Vec{0, 0, 0}).Dist2D(Vec{3, 4, 100}); got != 5 {
		t.Errorf("Dist2D = %v, want 5 (time ignored)", got)
	}
	if got := (Vec{0, 0, 0}).Dist(Vec{2, 3, 6}); got != 7 {
		t.Errorf("Dist = %v, want 7", got)
	}
}

func TestRange(t *testing.T) {
	q := Range{MinX: 0, MinY: 1, MaxX: 2, MaxY: 3, MinT: 4, MaxT: 5}
	r := q.Rect()
	if r.Min != (Vec{0, 1, 4}) || r.Max != (Vec{2, 3, 5}) {
		t.Errorf("Rect = %v", r)
	}
	if !q.Valid() {
		t.Error("range should be valid")
	}
	bad := Range{MinX: 2, MaxX: 1}
	if bad.Valid() {
		t.Error("inverted range should be invalid")
	}
	nan := Range{MinX: math.NaN()}
	if nan.Valid() {
		t.Error("NaN range should be invalid")
	}
	if !UniverseRange().Rect().Contains(Vec{1e300, -1e300, 0}) {
		t.Error("universe should contain everything")
	}
	sp := SpatialRange(0, 0, 1, 1)
	if !sp.Rect().Contains(Vec{0.5, 0.5, 1e18}) {
		t.Error("spatial range should span all time")
	}
}

// Property: Extend is commutative, associative-compatible and monotone.
func TestExtendProperties(t *testing.T) {
	f := func(a1, a2, b1, b2 [3]float64) bool {
		ra := rectFromCorners(Vec(a1), Vec(a2))
		rb := rectFromCorners(Vec(b1), Vec(b2))
		u := ra.Extend(rb)
		return u == rb.Extend(ra) &&
			u.ContainsRect(ra) && u.ContainsRect(rb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// A NaN bound on either rectangle proves nothing, so ContainsRect is false
// there: a node box is NaN on an axis when an entry under it has a NaN
// coordinate, and that box must not pass for contained.
func TestContainsRectNaN(t *testing.T) {
	outer := Rect{Min: Vec{0, 0, 0}, Max: Vec{10, 10, 10}}
	inner := Rect{Min: Vec{1, 1, 1}, Max: Vec{2, 2, 2}}
	if !outer.ContainsRect(inner) {
		t.Fatalf("%v does not contain %v", outer, inner)
	}
	for d := 0; d < Dims; d++ {
		for _, c := range []struct {
			bound string
			set   func(r, o *Rect)
		}{
			{"inner Min", func(_, o *Rect) { o.Min[d] = math.NaN() }},
			{"inner Max", func(_, o *Rect) { o.Max[d] = math.NaN() }},
			{"outer Min", func(r, _ *Rect) { r.Min[d] = math.NaN() }},
			{"outer Max", func(r, _ *Rect) { r.Max[d] = math.NaN() }},
		} {
			r, o := outer, inner
			c.set(&r, &o)
			if r.ContainsRect(o) {
				t.Errorf("axis %d, NaN %s: %v contains %v", d, c.bound, r, o)
			}
		}
	}
}

// Property: a rect contains a point iff intersecting its degenerate rect.
func TestContainsIntersectConsistency(t *testing.T) {
	f := func(a1, a2, p [3]float64) bool {
		r := rectFromCorners(Vec(a1), Vec(a2))
		pt := Vec(p)
		return r.Contains(pt) == r.Intersects(RectFromPoint(pt))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// extendOracle is Extend as defined before its ordered case was inlined:
// math.Min and math.Max on every axis.
func extendOracle(r, o Rect) Rect {
	if r.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return r
	}
	var out Rect
	for i := 0; i < Dims; i++ {
		out.Min[i] = math.Min(r.Min[i], o.Min[i])
		out.Max[i] = math.Max(r.Max[i], o.Max[i])
	}
	return out
}

// sameBits reports whether a and b hold the same bit pattern on every
// coordinate (so -0 differs from +0 and NaN equals itself).
func sameBits(a, b Rect) bool {
	for i := 0; i < Dims; i++ {
		if math.Float64bits(a.Min[i]) != math.Float64bits(b.Min[i]) ||
			math.Float64bits(a.Max[i]) != math.Float64bits(b.Max[i]) {
			return false
		}
	}
	return true
}

// FuzzExtendPoint checks ExtendPoint, and Extend, bit for bit against the
// math.Min/math.Max definition for any rectangles a and b — empty,
// inverted, NaN, ±0 and ±Inf coordinates included: a.ExtendPoint(p) must be
// the old a.Extend(RectFromPoint(p)) for both corners p of b, and
// a.Extend(b) the old a.Extend(b). Every MBR in every tree is built from
// these two calls.
func FuzzExtendPoint(f *testing.F) {
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	empty := EmptyRect()
	for _, seed := range [][2]Rect{
		{NewRect(Vec{0, 0, 0}, Vec{1, 1, 1}), NewRect(Vec{2, -1, 0.5}, Vec{3, 0, 0.5})},
		{empty, NewRect(Vec{1, 2, 3}, Vec{1, 2, 3})},
		{NewRect(Vec{1, 2, 3}, Vec{4, 5, 6}), empty},
		{NewRect(Vec{0, negZero, 0}, Vec{0, 0, negZero}), NewRect(Vec{negZero, 0, negZero}, Vec{negZero, negZero, 0})},
		{NewRect(Vec{-inf, 0, nan}, Vec{nan, inf, 1}), {Vec{nan, -inf, -inf}, Vec{inf, nan, nan}}},
		{{Vec{-inf, nan, 0}, Vec{nan, inf, 0}}, {Vec{nan, nan, nan}, Vec{-inf, -inf, inf}}},
		{{Vec{5, 0, 0}, Vec{1, 1, 1}}, NewRect(Vec{2, 2, 2}, Vec{3, 3, 3})},
	} {
		a, b := seed[0], seed[1]
		f.Add(a.Min[0], a.Min[1], a.Min[2], a.Max[0], a.Max[1], a.Max[2],
			b.Min[0], b.Min[1], b.Min[2], b.Max[0], b.Max[1], b.Max[2])
	}
	f.Fuzz(func(t *testing.T, a0, a1, a2, a3, a4, a5, b0, b1, b2, b3, b4, b5 float64) {
		a := Rect{Min: Vec{a0, a1, a2}, Max: Vec{a3, a4, a5}}
		b := Rect{Min: Vec{b0, b1, b2}, Max: Vec{b3, b4, b5}}
		for _, p := range []Vec{b.Min, b.Max} {
			if got, want := a.ExtendPoint(p), extendOracle(a, RectFromPoint(p)); !sameBits(got, want) {
				t.Fatalf("%v.ExtendPoint(%v) = %v, want %v", a, p, got, want)
			}
		}
		if got, want := a.Extend(b), extendOracle(a, b); !sameBits(got, want) {
			t.Fatalf("%v.Extend(%v) = %v, want %v", a, b, got, want)
		}
	})
}

// rectFromCorners builds a valid rect from two arbitrary corners.
func rectFromCorners(a, b Vec) Rect {
	var lo, hi Vec
	for i := 0; i < Dims; i++ {
		lo[i] = math.Min(a[i], b[i])
		hi[i] = math.Max(a[i], b[i])
	}
	return NewRect(lo, hi)
}

// TestBoundsMatchesExtendPointFold holds the bounding kernel to the fold it
// replaces, bit for bit, on runs drawn from ties, ±0, NaN and ±Inf (NaN
// first and last, a lone NaN, -Inf after NaN): Bounds must equal the
// ExtendPoint fold and the math.Min/math.Max definition, and, because trees
// bound their records in whatever order a sort left them, the same run
// reversed and rotated.
func TestBoundsMatchesExtendPointFold(t *testing.T) {
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	pool := []float64{0, negZero, 1, -1, 1, nan, inf, -inf, 1e308, -5e-324, 42}
	rng := rand.New(rand.NewSource(1))
	pos := func(p *Vec) *Vec { return p }
	for run := 0; run < 5000; run++ {
		pts := make([]Vec, rng.Intn(12))
		for i := range pts {
			for d := range pts[i] {
				pts[i][d] = pool[rng.Intn(len(pool))]
			}
		}
		fold, oracle := EmptyRect(), EmptyRect()
		for _, p := range pts {
			fold = fold.ExtendPoint(p)
			oracle = extendOracle(oracle, RectFromPoint(p))
		}
		got := Bounds(pts, pos)
		if !sameBits(got, fold) || !sameBits(got, oracle) {
			t.Fatalf("Bounds(%v) = %v, ExtendPoint fold %v, oracle %v", pts, got, fold, oracle)
		}
		reversed := slices.Clone(pts)
		slices.Reverse(reversed)
		rotated := append(slices.Clone(pts[len(pts)/2:]), pts[:len(pts)/2]...)
		for _, perm := range [][]Vec{reversed, rotated} {
			if other := Bounds(perm, pos); !sameBits(other, got) {
				t.Fatalf("Bounds(%v) = %v, in another order %v", pts, got, other)
			}
		}
	}
}

// Package geo provides the geometric primitives used throughout STORM:
// spatio-temporal points, minimum bounding rectangles (MBRs) and range
// predicates in up to three dimensions (x, y, t).
//
// STORM treats time as a third coordinate so that a single index structure
// can answer spatio-temporal range queries. Pure-spatial data sets simply
// leave the temporal coordinate at zero and issue queries whose temporal
// extent covers everything.
package geo

import (
	"fmt"
	"math"
)

// Dims is the number of coordinate dimensions STORM indexes: x, y and t.
const Dims = 3

// Vec is a point in the (x, y, t) coordinate space. The temporal axis is
// stored as a float64 (seconds since an arbitrary epoch) so that a single
// arithmetic path covers all three dimensions.
type Vec [Dims]float64

// X returns the first spatial coordinate.
func (v Vec) X() float64 { return v[0] }

// Y returns the second spatial coordinate.
func (v Vec) Y() float64 { return v[1] }

// T returns the temporal coordinate.
func (v Vec) T() float64 { return v[2] }

// Add returns v + o component-wise.
func (v Vec) Add(o Vec) Vec {
	for i := range v {
		v[i] += o[i]
	}
	return v
}

// Sub returns v - o component-wise.
func (v Vec) Sub(o Vec) Vec {
	for i := range v {
		v[i] -= o[i]
	}
	return v
}

// Scale returns v scaled by s in every dimension.
func (v Vec) Scale(s float64) Vec {
	for i := range v {
		v[i] *= s
	}
	return v
}

// Dist2D returns the Euclidean distance between the spatial (x, y)
// projections of v and o, ignoring time. Spatial analytics such as KDE and
// clustering use spatial distance only.
func (v Vec) Dist2D(o Vec) float64 {
	dx := v[0] - o[0]
	dy := v[1] - o[1]
	return math.Sqrt(dx*dx + dy*dy)
}

// Dist returns the full Euclidean distance in all three dimensions.
func (v Vec) Dist(o Vec) float64 {
	var s float64
	for i := range v {
		d := v[i] - o[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// String implements fmt.Stringer.
func (v Vec) String() string {
	return fmt.Sprintf("(%.6g, %.6g, %.6g)", v[0], v[1], v[2])
}

// Rect is a closed axis-aligned box [Min, Max] in (x, y, t) space. It is the
// MBR type used by every index structure. The zero value is the empty
// rectangle (see EmptyRect); use NewRect or RectFromPoint to build one.
type Rect struct {
	Min, Max Vec
}

// EmptyRect returns the identity element for Extend: a rectangle that
// contains nothing and extends to whatever it is merged with.
func EmptyRect() Rect {
	inf := math.Inf(1)
	return Rect{
		Min: Vec{inf, inf, inf},
		Max: Vec{-inf, -inf, -inf},
	}
}

// NewRect returns the rectangle spanning min and max. It panics if any
// min coordinate exceeds the corresponding max coordinate, because a
// malformed MBR silently corrupts every index built over it.
func NewRect(min, max Vec) Rect {
	for i := 0; i < Dims; i++ {
		if min[i] > max[i] {
			panic(fmt.Sprintf("geo: invalid rect: min[%d]=%v > max[%d]=%v", i, min[i], i, max[i]))
		}
	}
	return Rect{Min: min, Max: max}
}

// RectFromPoint returns the degenerate rectangle covering exactly p.
func RectFromPoint(p Vec) Rect {
	return Rect{Min: p, Max: p}
}

// IsEmpty reports whether r contains no points (Min > Max on any axis).
func (r Rect) IsEmpty() bool {
	for i := 0; i < Dims; i++ {
		if r.Min[i] > r.Max[i] {
			return true
		}
	}
	return false
}

// Contains reports whether p lies inside r (boundaries inclusive).
func (r Rect) Contains(p Vec) bool {
	for i := 0; i < Dims; i++ {
		if p[i] < r.Min[i] || p[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// ContainsRect reports whether o is provably entirely inside r. A NaN bound
// on either side proves nothing, so it is false there: a node box is NaN
// when an entry under it has a NaN coordinate, and such an entry may pass
// r's other bounds while its siblings fail them.
func (r Rect) ContainsRect(o Rect) bool {
	for i := 0; i < Dims; i++ {
		if !(r.Min[i] <= o.Min[i] && o.Max[i] <= r.Max[i]) {
			return false
		}
	}
	return true
}

// Intersects reports whether r and o share at least one point.
func (r Rect) Intersects(o Rect) bool {
	for i := 0; i < Dims; i++ {
		if r.Min[i] > o.Max[i] || r.Max[i] < o.Min[i] {
			return false
		}
	}
	return true
}

// Intersect returns the overlap of r and o; the result is empty when the
// rectangles do not intersect.
func (r Rect) Intersect(o Rect) Rect {
	var out Rect
	for i := 0; i < Dims; i++ {
		out.Min[i] = math.Max(r.Min[i], o.Min[i])
		out.Max[i] = math.Min(r.Max[i], o.Max[i])
	}
	return out
}

// Extend returns the smallest rectangle covering both r and o.
func (r Rect) Extend(o Rect) Rect {
	if r.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return r
	}
	var out Rect
	for i := 0; i < Dims; i++ {
		out.Min[i] = lower(r.Min[i], o.Min[i])
		out.Max[i] = upper(r.Max[i], o.Max[i])
	}
	return out
}

// ExtendPoint returns the smallest rectangle covering r and p: bit for bit
// r.Extend(RectFromPoint(p)), without building the point's rectangle.
func (r Rect) ExtendPoint(p Vec) Rect {
	if r.IsEmpty() {
		return RectFromPoint(p)
	}
	r.Cover(&p)
	return r
}

// Cover extends r, which must not be empty, to cover p in place: ExtendPoint
// without the rectangle's copy in and out. Once a fold from EmptyRect has
// taken one point its rectangle is never empty again (a NaN face compares
// false), so a loop that starts from RectFromPoint of the first point and
// covers the rest is that fold bit for bit.
func (r *Rect) Cover(p *Vec) {
	r.Min[0], r.Max[0] = lower(r.Min[0], p[0]), upper(r.Max[0], p[0])
	r.Min[1], r.Max[1] = lower(r.Min[1], p[1]), upper(r.Max[1], p[1])
	r.Min[2], r.Max[2] = lower(r.Min[2], p[2]), upper(r.Max[2], p[2])
}

// Bounds returns the MBR of the positions pos gives for the items of s, bit
// for bit the fold of ExtendPoint from EmptyRect over them: EmptyRect for no
// items. It is the one bounding kernel — a dataset's bounds, a list of
// entries', every packed leaf's — and takes about half that fold's time.
func Bounds[E any](s []E, pos func(*E) *Vec) Rect {
	if len(s) == 0 {
		return EmptyRect()
	}
	r := RectFromPoint(*pos(&s[0]))
	for i := 1; i < len(s); i++ {
		r.Cover(pos(&s[i]))
	}
	return r
}

// LatestT folds a t coordinate x into t, the latest time seen so far: x
// replaces t when it is later or when t is NaN (nothing seen yet). From NaN
// over a run, it gives the run's latest time that is not NaN (of equal
// ones, such as -0 and +0, the first), or NaN; runs folded apart combine
// in order through the same call.
func LatestT(t, x float64) float64 {
	if x > t || t != t {
		return x
	}
	return t
}

// lower is math.Min(x, y), with the ordered case — what nearly every call
// sees — decided inline. Equal values (where math.Min picks -0 over +0) and
// NaNs (where -Inf still wins) take math.Min itself.
func lower(x, y float64) float64 {
	if x < y {
		return x
	}
	if y < x {
		return y
	}
	return math.Min(x, y)
}

// upper is math.Max(x, y) the same way: ordered values inline, ties, ±0 and
// NaNs (where +Inf still wins) through math.Max.
func upper(x, y float64) float64 {
	if x > y {
		return x
	}
	if y > x {
		return y
	}
	return math.Max(x, y)
}

// Volume returns the d-dimensional volume of r, or zero if r is empty.
// Degenerate axes (Min == Max) contribute a factor of zero, so callers that
// need a tie-breaking measure should prefer Margin.
func (r Rect) Volume() float64 {
	if r.IsEmpty() {
		return 0
	}
	v := 1.0
	for i := 0; i < Dims; i++ {
		v *= r.Max[i] - r.Min[i]
	}
	return v
}

// Margin returns the sum of edge lengths of r (the R*-tree "margin"
// heuristic), or zero for an empty rectangle.
func (r Rect) Margin() float64 {
	if r.IsEmpty() {
		return 0
	}
	var m float64
	for i := 0; i < Dims; i++ {
		m += r.Max[i] - r.Min[i]
	}
	return m
}

// Center returns the midpoint of r.
func (r Rect) Center() Vec {
	var c Vec
	for i := 0; i < Dims; i++ {
		c[i] = (r.Min[i] + r.Max[i]) / 2
	}
	return c
}

// Enlargement returns how much r's volume grows when extended to cover o.
func (r Rect) Enlargement(o Rect) float64 {
	return r.Extend(o).Volume() - r.Volume()
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%v - %v]", r.Min, r.Max)
}

// Range is a user-facing spatio-temporal query range: a spatial rectangle
// combined with a temporal interval. Convert to the internal Rect
// representation with Rect().
type Range struct {
	MinX, MinY float64
	MaxX, MaxY float64
	MinT, MaxT float64
}

// UniverseRange returns a range covering all representable points.
func UniverseRange() Range {
	inf := math.Inf(1)
	return Range{MinX: -inf, MinY: -inf, MaxX: inf, MaxY: inf, MinT: -inf, MaxT: inf}
}

// SpatialRange returns a range over the given spatial box and all of time.
func SpatialRange(minX, minY, maxX, maxY float64) Range {
	inf := math.Inf(1)
	return Range{MinX: minX, MinY: minY, MaxX: maxX, MaxY: maxY, MinT: -inf, MaxT: inf}
}

// Rect converts the range to the internal 3-D rectangle.
func (q Range) Rect() Rect {
	return Rect{
		Min: Vec{q.MinX, q.MinY, q.MinT},
		Max: Vec{q.MaxX, q.MaxY, q.MaxT},
	}
}

// Valid reports whether the range is well-formed (min <= max on all axes,
// no NaNs).
func (q Range) Valid() bool {
	if q.MinX > q.MaxX || q.MinY > q.MaxY || q.MinT > q.MaxT {
		return false
	}
	for _, v := range []float64{q.MinX, q.MinY, q.MaxX, q.MaxY, q.MinT, q.MaxT} {
		if math.IsNaN(v) {
			return false
		}
	}
	return true
}

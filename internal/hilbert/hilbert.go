// Package hilbert implements Hilbert space-filling curve encoding and
// decoding in two and three dimensions. STORM's RS-tree is built over a
// Hilbert R-tree: points are sorted by the Hilbert value of their quantized
// coordinates, which gives leaves with compact, low-overlap MBRs and a
// total order that makes insertion placement deterministic.
//
// The implementation follows the compact algorithm of Skilling ("Programming
// the Hilbert curve", AIP 2004): transpose-form conversion between Hilbert
// index and axis coordinates, generalized to any dimension and order.
package hilbert

import "fmt"

// Curve maps between d-dimensional integer coordinates in [0, 2^order) and
// positions along a Hilbert curve of the given order.
type Curve struct {
	dims  int
	order uint
}

// New returns a Hilbert curve over dims dimensions (2 or 3) with the given
// order (bits per dimension, 1..21 so 3*order fits into 63 bits).
func New(dims int, order uint) (*Curve, error) {
	if dims != 2 && dims != 3 {
		return nil, fmt.Errorf("hilbert: unsupported dimension %d (want 2 or 3)", dims)
	}
	if order < 1 || order > 21 {
		return nil, fmt.Errorf("hilbert: order %d out of range [1, 21]", order)
	}
	return &Curve{dims: dims, order: order}, nil
}

// MustNew is New for parameters known to be valid at compile time.
func MustNew(dims int, order uint) *Curve {
	c, err := New(dims, order)
	if err != nil {
		panic(err)
	}
	return c
}

// Dims returns the dimensionality of the curve.
func (c *Curve) Dims() int { return c.dims }

// Order returns the number of bits per dimension.
func (c *Curve) Order() uint { return c.order }

// Max returns the exclusive upper bound for each coordinate, 2^order.
func (c *Curve) Max() uint64 { return 1 << c.order }

// Encode returns the Hilbert index of the given coordinates. Each
// coordinate must lie in [0, 2^order); out-of-range coordinates are clamped
// rather than rejected because quantization at the callers can produce the
// boundary value.
func (c *Curve) Encode(coords ...uint64) uint64 {
	if len(coords) != c.dims {
		panic(fmt.Sprintf("hilbert: got %d coords, curve has %d dims", len(coords), c.dims))
	}
	x := make([]uint64, c.dims)
	maxv := c.Max() - 1
	for i, v := range coords {
		if v > maxv {
			v = maxv
		}
		x[i] = v
	}
	c.axesToTranspose(x)
	return c.transposeToIndex(x)
}

// Decode returns the coordinates of the given Hilbert index.
func (c *Curve) Decode(h uint64) []uint64 {
	x := c.indexToTranspose(h)
	c.transposeToAxes(x)
	return x
}

// axesToTranspose converts coordinates in place into the "transpose" form
// of the Hilbert index (Skilling's algorithm).
func (c *Curve) axesToTranspose(x []uint64) {
	n := len(x)
	m := uint64(1) << (c.order - 1)

	// Inverse undo excess work.
	for q := m; q > 1; q >>= 1 {
		p := q - 1
		for i := 0; i < n; i++ {
			if x[i]&q != 0 {
				x[0] ^= p // invert
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
	// Gray encode.
	for i := 1; i < n; i++ {
		x[i] ^= x[i-1]
	}
	var t uint64
	for q := m; q > 1; q >>= 1 {
		if x[n-1]&q != 0 {
			t ^= q - 1
		}
	}
	for i := 0; i < n; i++ {
		x[i] ^= t
	}
}

// transposeToAxes converts transpose form in place back into coordinates.
func (c *Curve) transposeToAxes(x []uint64) {
	n := len(x)
	m := uint64(2) << (c.order - 1)

	// Gray decode by H ^ (H/2).
	t := x[n-1] >> 1
	for i := n - 1; i > 0; i-- {
		x[i] ^= x[i-1]
	}
	x[0] ^= t
	// Undo excess work.
	for q := uint64(2); q != m; q <<= 1 {
		p := q - 1
		for i := n - 1; i >= 0; i-- {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
}

// transposeToIndex interleaves the transpose-form words into a single
// Hilbert index: bit b of word i becomes bit (b*n + (n-1-i)) of the index.
func (c *Curve) transposeToIndex(x []uint64) uint64 {
	n := len(x)
	var h uint64
	for b := int(c.order) - 1; b >= 0; b-- {
		for i := 0; i < n; i++ {
			h = (h << 1) | ((x[i] >> uint(b)) & 1)
		}
	}
	return h
}

// indexToTranspose splits a Hilbert index into transpose-form words,
// inverting transposeToIndex.
func (c *Curve) indexToTranspose(h uint64) []uint64 {
	n := c.dims
	x := make([]uint64, n)
	bits := int(c.order) * n
	for b := 0; b < bits; b++ {
		// Bit (bits-1-b) of h is the next most significant interleaved bit.
		bit := (h >> uint(bits-1-b)) & 1
		i := b % n
		x[i] = (x[i] << 1) | bit
	}
	return x
}

// Quantizer maps floating-point coordinates in a bounding box onto the
// integer lattice of a Hilbert curve.
type Quantizer struct {
	curve      *Curve
	min, scale []float64
}

// NewQuantizer returns a quantizer for the given per-dimension bounds.
// Degenerate dimensions (lo == hi) map every value to lattice cell zero.
func NewQuantizer(curve *Curve, lo, hi []float64) (*Quantizer, error) {
	if len(lo) != curve.dims || len(hi) != curve.dims {
		return nil, fmt.Errorf("hilbert: bounds dimension mismatch")
	}
	q := &Quantizer{
		curve: curve,
		min:   make([]float64, curve.dims),
		scale: make([]float64, curve.dims),
	}
	cells := float64(curve.Max())
	for i := range lo {
		if hi[i] < lo[i] {
			return nil, fmt.Errorf("hilbert: bound %d inverted (%v > %v)", i, lo[i], hi[i])
		}
		q.min[i] = lo[i]
		if hi[i] > lo[i] {
			q.scale[i] = cells / (hi[i] - lo[i])
		}
	}
	return q, nil
}

// Value3 is Value specialized for three dimensions — the per-record hot
// path of leaf packing and streaming inserts. It performs no
// allocation and, past the clamp, no data-dependent branch: the three cell
// numbers are bit-interleaved (three shift-and-mask spreads) and the
// interleaved word is walked two curve levels per table lookup (see
// step3). The result is bit-identical to Value(x, y, z). Panics if the
// curve is not three-dimensional.
func (q *Quantizer) Value3(xf, yf, zf float64) uint64 {
	if q.curve.dims != 3 {
		panic("hilbert: Value3 on a non-3D curve")
	}
	cells := q.curve.Max() - 1
	quant := func(v float64, i int) uint64 {
		c := (v - q.min[i]) * q.scale[i]
		switch {
		case c <= 0:
			return 0
		case uint64(c) >= cells:
			return cells
		default:
			return uint64(c)
		}
	}
	// Bit b of x, y, z on bit 3b+2, 3b+1, 3b: level by level, the cell
	// octant the curve passes through.
	m := spread3(quant(xf, 0))<<2 | spread3(quant(yf, 1))<<1 | spread3(quant(zf, 2))

	shift := 3 * q.curve.order
	var h uint64
	var state uint16
	for shift >= 6 {
		shift -= 6
		e := step3[state|uint16(m>>shift&63)]
		h, state = h<<6|uint64(e&63), e&^63
	}
	if shift == 3 {
		// Odd order: the last level alone, as the upper half of a step
		// (whose index bits do not depend on the lower half).
		h = h<<3 | uint64(step3[state|uint16(m&7)<<3]>>3&7)
	}
	return h
}

// spread3 moves bit b of v (b < 21) to bit 3b, zeros between: the five
// shift-and-mask doublings of a Morton encode.
func spread3(v uint64) uint64 {
	v = (v | v<<32) & 0x001f00000000ffff
	v = (v | v<<16) & 0x001f0000ff0000ff
	v = (v | v<<8) & 0x100f00f00f00f00f
	v = (v | v<<4) & 0x10c30c30c30c30c3
	v = (v | v<<2) & 0x1249249249249249
	return v
}

// step3 is the 3-D curve as a state machine over octants, most significant
// level first. Skilling's transform at one level rewrites lower bits only,
// so the top 3k bits of an index depend on the top k bits of each
// coordinate alone, and all the levels above leave behind for the levels
// below is an orientation of the unit curve (an axis permutation with
// inversions; 24 occur). step3[state<<6|o] takes the octants of two levels
// (o, six bits) to their six index bits and the orientation below them,
// packed as next<<6|bits so the masked entry is the next lookup's base.
var step3 = buildStep3()

// buildStep3 derives the table from Curve.Encode, so Value3 cannot drift
// from the generic transform. An orientation is named by a coordinate
// prefix that reaches it and recognised by how it maps the next level's
// eight octants (a signed axis permutation is determined by that), both
// read off Encode at the order of prefix plus one level. The single-level
// machine is discovered breadth-first from the empty prefix; the two-level
// table is that machine composed with itself.
func buildStep3() []uint16 {
	type prefix struct {
		x, y, z uint64
		levels  uint
	}
	type level struct{ out, next [8]uint8 }
	extend := func(p prefix, o uint64) prefix {
		return prefix{p.x<<1 | o>>2, p.y<<1 | o>>1&1, p.z<<1 | o&1, p.levels + 1}
	}
	ids := make(map[[8]uint8]uint8)
	var reached []prefix
	var machine []level
	intern := func(p prefix) uint8 {
		c := MustNew(3, p.levels+1)
		var out [8]uint8
		for o := range out {
			e := extend(p, uint64(o))
			out[o] = uint8(c.Encode(e.x, e.y, e.z) & 7)
		}
		id, seen := ids[out]
		if !seen {
			id = uint8(len(machine))
			ids[out] = id
			reached = append(reached, p)
			machine = append(machine, level{out: out})
		}
		return id
	}
	intern(prefix{})
	for s := 0; s < len(machine); s++ {
		for o := range machine[s].next {
			machine[s].next[o] = intern(extend(reached[s], uint64(o)))
		}
	}

	step := make([]uint16, len(machine)<<6)
	for s, top := range machine {
		for o := 0; o < 64; o++ {
			hi, lo := o>>3, o&7
			low := machine[top.next[hi]]
			step[s<<6|o] = uint16(low.next[lo])<<6 | uint16(top.out[hi])<<3 | uint16(low.out[lo])
		}
	}
	return step
}

// Value returns the Hilbert index of the given floating-point coordinates,
// clamped into the quantizer's bounding box.
func (q *Quantizer) Value(coords ...float64) uint64 {
	if len(coords) != q.curve.dims {
		panic("hilbert: coordinate dimension mismatch")
	}
	cells := q.curve.Max() - 1
	ints := make([]uint64, len(coords))
	for i, v := range coords {
		c := (v - q.min[i]) * q.scale[i]
		switch {
		case c <= 0:
			ints[i] = 0
		case uint64(c) >= cells:
			ints[i] = cells
		default:
			ints[i] = uint64(c)
		}
	}
	return q.curve.Encode(ints...)
}

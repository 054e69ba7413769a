// Package analytics implements STORM's built-in online analytical
// estimators beyond plain aggregates: kernel density estimation, k-means
// clustering over samples, trajectory reconstruction and short-text term
// analysis — the "customized analytics" the paper demonstrates in
// Figures 5 and 6.
//
// Every estimator here follows the same online pattern: it is fed sampled
// records one at a time and can produce a snapshot at any moment whose
// quality improves with the number of samples consumed.
package analytics

import (
	"fmt"
	"math"

	"storm/internal/estimator"
	"storm/internal/geo"
)

// Kernel is a smoothing kernel for density estimation: a non-negative
// function of the distance-to-bandwidth ratio u = d/h with κ(u) = 0 for
// u >= 1 (compact support) or negligible tails (Gaussian).
type Kernel int

// Supported kernels.
const (
	Gaussian Kernel = iota
	Epanechnikov
	Triangular
)

// Eval evaluates the kernel at distance d with bandwidth h.
func (k Kernel) Eval(d, h float64) float64 {
	u := d / h
	switch k {
	case Gaussian:
		return math.Exp(-0.5*u*u) / (h * math.Sqrt(2*math.Pi))
	case Epanechnikov:
		if u >= 1 {
			return 0
		}
		return 0.75 * (1 - u*u) / h
	case Triangular:
		if u >= 1 {
			return 0
		}
		return (1 - u) / h
	default:
		panic(fmt.Sprintf("analytics: unknown kernel %d", int(k)))
	}
}

// String implements fmt.Stringer.
func (k Kernel) String() string {
	switch k {
	case Gaussian:
		return "gaussian"
	case Epanechnikov:
		return "epanechnikov"
	case Triangular:
		return "triangular"
	default:
		return fmt.Sprintf("Kernel(%d)", int(k))
	}
}

// KDE estimates the spatial density surface f(p) = (1/q) Σ_e κ(d(e, p))
// over a regular grid from an online sample. Each grid cell's density is
// itself an average over P ∩ Q, so the same sample-mean machinery used for
// aggregates yields an unbiased per-cell estimate with a confidence
// interval (the paper's Section 3.2 observation).
type KDE struct {
	kernel     Kernel
	bandwidth  float64
	region     geo.Rect
	nx, ny     int
	cells      []estimator.Welford
	confidence float64
	samples    int
}

// NewKDE returns an online KDE over the spatial projection of region with
// an nx-by-ny grid. Bandwidth must be positive.
func NewKDE(region geo.Rect, nx, ny int, kernel Kernel, bandwidth, confidence float64) (*KDE, error) {
	if nx < 1 || ny < 1 {
		return nil, fmt.Errorf("analytics: grid %dx%d invalid", nx, ny)
	}
	if bandwidth <= 0 {
		return nil, fmt.Errorf("analytics: bandwidth %v must be positive", bandwidth)
	}
	if confidence <= 0 || confidence >= 1 {
		return nil, fmt.Errorf("analytics: confidence %v outside (0, 1)", confidence)
	}
	return &KDE{
		kernel:     kernel,
		bandwidth:  bandwidth,
		region:     region,
		nx:         nx,
		ny:         ny,
		cells:      make([]estimator.Welford, nx*ny),
		confidence: confidence,
	}, nil
}

// CellCenter returns the spatial center of grid cell (i, j).
func (k *KDE) CellCenter(i, j int) (x, y float64) {
	dx := (k.region.Max[0] - k.region.Min[0]) / float64(k.nx)
	dy := (k.region.Max[1] - k.region.Min[1]) / float64(k.ny)
	return k.region.Min[0] + (float64(i)+0.5)*dx, k.region.Min[1] + (float64(j)+0.5)*dy
}

// Add feeds one sampled point: every cell accumulates the kernel-weighted
// contribution, so after k samples each cell holds a size-k sample mean of
// its true density.
func (k *KDE) Add(p geo.Vec) {
	k.samples++
	for j := 0; j < k.ny; j++ {
		for i := 0; i < k.nx; i++ {
			cx, cy := k.CellCenter(i, j)
			d := p.Dist2D(geo.Vec{cx, cy, 0})
			k.cells[j*k.nx+i].Add(k.kernel.Eval(d, k.bandwidth))
		}
	}
}

// Samples returns the number of points consumed.
func (k *KDE) Samples() int { return k.samples }

// DensityMap is a snapshot of an online KDE.
type DensityMap struct {
	Nx, Ny  int
	Density []float64 // row-major, ny rows of nx
	// HalfWidth is the per-cell confidence half-width at the KDE's
	// confidence level.
	HalfWidth []float64
	Samples   int
	// Region is the spatial extent the grid covers.
	Region geo.Rect
}

// At returns the density of cell (i, j).
func (m *DensityMap) At(i, j int) float64 { return m.Density[j*m.Nx+i] }

// MaxDensity returns the largest cell density (useful for rendering).
func (m *DensityMap) MaxDensity() float64 {
	max := 0.0
	for _, v := range m.Density {
		if v > max {
			max = v
		}
	}
	return max
}

// Snapshot returns the current density estimate.
func (k *KDE) Snapshot() *DensityMap {
	m := &DensityMap{
		Nx:        k.nx,
		Ny:        k.ny,
		Density:   make([]float64, len(k.cells)),
		HalfWidth: make([]float64, len(k.cells)),
		Samples:   k.samples,
		Region:    k.region,
	}
	for i := range k.cells {
		c := &k.cells[i]
		m.Density[i] = c.Mean()
		n := c.N()
		if n >= 2 {
			se := math.Sqrt(c.SampleVariance() / float64(n))
			m.HalfWidth[i] = zFor(k.confidence) * se
		} else {
			m.HalfWidth[i] = math.Inf(1)
		}
	}
	return m
}

// MeanAbsError returns the mean absolute difference between two density
// maps of the same shape, the convergence metric the Figure 5 benchmark
// reports. It panics on shape mismatch.
func (m *DensityMap) MeanAbsError(o *DensityMap) float64 {
	if m.Nx != o.Nx || m.Ny != o.Ny {
		panic("analytics: density map shape mismatch")
	}
	var sum float64
	for i := range m.Density {
		sum += math.Abs(m.Density[i] - o.Density[i])
	}
	return sum / float64(len(m.Density))
}

// RelError returns the mean relative error against a reference map,
// normalized by the reference's mean density (cells where the reference is
// zero are skipped).
func (m *DensityMap) RelError(ref *DensityMap) float64 {
	if m.Nx != ref.Nx || m.Ny != ref.Ny {
		panic("analytics: density map shape mismatch")
	}
	var refMean float64
	for _, v := range ref.Density {
		refMean += v
	}
	refMean /= float64(len(ref.Density))
	if refMean == 0 {
		return 0
	}
	var sum float64
	for i := range m.Density {
		sum += math.Abs(m.Density[i] - ref.Density[i])
	}
	return sum / float64(len(m.Density)) / refMean
}

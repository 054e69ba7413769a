package engine

import (
	"context"

	"storm/internal/analytics"
	"storm/internal/data"
	"storm/internal/geo"
	"storm/internal/stats"
)

// analyticDefaults applies the analytics' report cadence — a snapshot
// every 128 accepted samples rather than the estimates' 64, since each one
// renders a whole surface, term table, path or clustering — and then the
// shared defaults. The analytics take the same Options as estimates
// (Kind, Attr and the accuracy targets do not apply) and share their
// termination model: time budget, sample cap, exhaustion or cancellation.
func analyticDefaults(o Options) Options {
	if o.ReportEvery == 0 {
		o.ReportEvery = 128
	}
	return o.withDefaults()
}

// KDEOptions configures an online kernel density estimation task.
type KDEOptions struct {
	// Nx, Ny are the grid dimensions; 0 means 32.
	Nx, Ny int
	// Kernel is the smoothing kernel (default Gaussian).
	Kernel analytics.Kernel
	// Bandwidth is the kernel bandwidth; 0 derives one tenth of the
	// query's larger spatial extent.
	Bandwidth float64
	// Confidence for per-cell intervals; 0 means 0.95.
	Confidence float64
}

// KDESnapshot is one progress report of an online KDE.
type KDESnapshot struct {
	Progress
	Map *analytics.DensityMap
}

// KDEOnline estimates the density surface of q from online samples,
// streaming density maps of improving quality — the paper's Figure 5
// population-density demo.
func (h *Handle) KDEOnline(ctx context.Context, q geo.Range, kopts KDEOptions, opts Options) (<-chan KDESnapshot, error) {
	opts = analyticDefaults(opts)
	if kopts.Nx == 0 {
		kopts.Nx = 32
	}
	if kopts.Ny == 0 {
		kopts.Ny = 32
	}
	if kopts.Confidence == 0 {
		kopts.Confidence = 0.95
	}
	if kopts.Bandwidth == 0 {
		w := q.MaxX - q.MinX
		if hgt := q.MaxY - q.MinY; hgt > w {
			w = hgt
		}
		kopts.Bandwidth = w / 10
	}
	kde, err := analytics.NewKDE(q.Rect(), kopts.Nx, kopts.Ny, kopts.Kernel, kopts.Bandwidth, kopts.Confidence)
	if err != nil {
		return nil, err
	}

	return stream(ctx, h, q, opts, func(send func(KDESnapshot) bool) consumer {
		return consumer{
			fold: positions(kde.Add),
			report: func(r report) bool {
				return send(KDESnapshot{Progress: r.Progress, Map: kde.Snapshot()})
			},
		}
	})
}

// TermsSnapshot is one progress report of online short-text understanding.
type TermsSnapshot struct {
	Progress
	Terms *analytics.TermSnapshot
}

// TermsOnline estimates the term-frequency distribution of a text column
// over q from online samples — the paper's Figure 6(b) short-text demo.
// topN bounds the reported term list.
func (h *Handle) TermsOnline(ctx context.Context, q geo.Range, textCol string, topN int, opts Options) (<-chan TermsSnapshot, error) {
	opts = analyticDefaults(opts)
	h.mu.RLock()
	_, errCol := h.ds.StringColumn(textCol)
	h.mu.RUnlock()
	if errCol != nil {
		return nil, errCol
	}
	if topN <= 0 {
		topN = 10
	}
	ts := analytics.NewTermStats()
	return stream(ctx, h, q, opts, func(send func(TermsSnapshot) bool) consumer {
		col, _ := h.ds.StringColumn(textCol)
		return consumer{
			fold: func(batch []data.Entry) {
				for _, e := range batch {
					ts.Add(col[e.ID])
				}
			},
			report: func(r report) bool {
				return send(TermsSnapshot{Progress: r.Progress, Terms: ts.Snapshot(topN)})
			},
		}
	})
}

// TrajectorySnapshot is one progress report of online trajectory
// reconstruction.
type TrajectorySnapshot struct {
	Progress
	Path *analytics.Path
}

// TrajectoryOnline reconstructs the approximate movement path of records
// matching userCol == user within q — the paper's Figure 6(a) demo.
// epsilon > 0 enables Douglas–Peucker simplification.
func (h *Handle) TrajectoryOnline(ctx context.Context, q geo.Range, userCol, user string, epsilon float64, opts Options) (<-chan TrajectorySnapshot, error) {
	opts = analyticDefaults(opts)
	h.mu.RLock()
	_, errCol := h.ds.StringColumn(userCol)
	h.mu.RUnlock()
	if errCol != nil {
		return nil, errCol
	}
	tr := analytics.NewTrajectory()
	return stream(ctx, h, q, opts, func(send func(TrajectorySnapshot) bool) consumer {
		col, _ := h.ds.StringColumn(userCol)
		return consumer{
			accept: func(id data.ID) bool { return col[id] == user },
			fold:   positions(tr.Add),
			report: func(r report) bool {
				return send(TrajectorySnapshot{Progress: r.Progress, Path: tr.Snapshot(epsilon)})
			},
		}
	})
}

// ClusterSnapshot is one progress report of online spatial clustering.
type ClusterSnapshot struct {
	Progress
	Clustering *analytics.Clustering
}

// ClusterOnline runs online k-means over samples from q: the clustering is
// recomputed at every report point and its quality improves with sample
// size (paper §3.2's clustering remark).
func (h *Handle) ClusterOnline(ctx context.Context, q geo.Range, k int, opts Options) (<-chan ClusterSnapshot, error) {
	opts = analyticDefaults(opts)
	if opts.Seed == 0 {
		opts.Seed = h.eng.nextSeed()
	}
	km, err := analytics.NewKMeans(k, stats.NewRNG(opts.Seed+1))
	if err != nil {
		return nil, err
	}
	return stream(ctx, h, q, opts, func(send func(ClusterSnapshot) bool) consumer {
		return consumer{
			fold: positions(km.Add),
			report: func(r report) bool {
				return send(ClusterSnapshot{Progress: r.Progress, Clustering: km.Snapshot()})
			},
		}
	})
}

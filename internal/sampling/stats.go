package sampling

// SamplerStats is a point-in-time snapshot of a sampler's cumulative
// per-query instrumentation counters. The counters are plain (non-atomic)
// fields owned by the sampler's single goroutine — keeping the per-draw
// hot path free of atomic traffic — and consumers that need live metrics
// (package engine) diff successive snapshots at batch boundaries and
// flush the deltas into an obs.Registry.
type SamplerStats struct {
	// Draws is how many samples the sampler has returned to its consumer.
	Draws uint64
	// Rejects is how many consumed draws or attempts were discarded
	// before acceptance: out-of-range buffer draws for the RS-tree,
	// failed whole-dataset attempts for SampleFirst, failed root-to-leaf
	// walks for RandomPath, duplicate suppressions for the LS-tree.
	Rejects uint64
	// Explosions is how many frontier subtrees were materialized
	// (RS-tree) or degraded scans were taken (SampleFirst); zero elsewhere.
	Explosions uint64
	// Scans is how many full range-report scans were performed: level
	// scans for the LS-tree, the up-front report for QueryFirst, the
	// degraded filtered scan for SampleFirst.
	Scans uint64
	// Pruned is how many subtrees predicate pushdown excluded from the
	// descent (node-summary None verdicts); zero without a predicate.
	Pruned uint64
}

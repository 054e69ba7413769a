package engine

import (
	"sync"

	"storm/internal/data"
)

// Adaptive batch-growth policy for the query driver (driver.go): the first pull is
// small so the first confidence interval reaches the user as fast as a
// per-sample loop would, then the pull size doubles per round up to a cap,
// amortizing sampler and device overheads once the query is clearly going
// to run long. The cap bounds both wasted draws on early termination and
// snapshot latency (a snapshot can lag the newest sample by at most one
// batch).
const (
	minPullBatch = 16
	maxPullBatch = 1024
)

// nextPullSize doubles the batch size up to the cap.
func nextPullSize(size int) int {
	if size >= maxPullBatch {
		return maxPullBatch
	}
	size *= 2
	if size > maxPullBatch {
		size = maxPullBatch
	}
	return size
}

// needPull caps a targeted stream's next pull at the first report point at
// or past need, the samples its target is predicted to need in all, and
// floors it at minPullBatch: a stream that meets its target at a report
// point then stops within one pull of it, not one doubled batch.
func needPull(need, samples, every int) int {
	if need-samples > maxPullBatch {
		return maxPullBatch
	}
	end := (max(need, samples+1) + every - 1) / every * every
	return max(end-samples, minPullBatch)
}

// entryBufPool recycles the per-query pull buffers (maxPullBatch entries,
// ~32 KiB) across queries.
var entryBufPool = sync.Pool{
	New: func() any {
		buf := make([]data.Entry, maxPullBatch)
		return &buf
	},
}

func getEntryBuf() *[]data.Entry    { return entryBufPool.Get().(*[]data.Entry) }
func putEntryBuf(buf *[]data.Entry) { entryBufPool.Put(buf) }

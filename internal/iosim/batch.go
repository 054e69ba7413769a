package iosim

// This file adds the batched charging path used by the samplers' NextBatch
// fast loops. The contract everywhere is *stats equivalence*: charging a
// page sequence through a batch must leave every counter and the LRU pool
// in exactly the state that charging the same sequence one access at a time
// would have — batching buys fewer lock acquisitions and map operations,
// never different numbers.

// AccessBatch implements Accountant: it replays the run-length access
// sequence under a single lock acquisition. Consecutive accesses of a
// cached page after the first are hits by definition (the page cannot be
// evicted between them), so each run costs one map lookup instead of
// counts[i].
func (d *Device) AccessBatch(pages []PageID, counts []int) (hits uint64) {
	if len(pages) == 0 {
		return 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, p := range pages {
		n := counts[i]
		if n <= 0 {
			continue
		}
		d.stats.Logical += uint64(n)
		if el, ok := d.entries[p]; ok {
			d.moveToFront(el)
			d.stats.Hits += uint64(n)
			d.addCost(d.cost.HitCost, n)
			hits += uint64(n)
			continue
		}
		d.stats.Reads++
		d.stats.CostUnits += d.cost.ReadCost
		d.admit(p)
		if n > 1 {
			// The remaining n-1 accesses of the run hit the page just
			// admitted (capacity 0 pools admit nothing, so they stay
			// misses there).
			if d.capacity == 0 {
				d.stats.Reads += uint64(n - 1)
				d.addCost(d.cost.ReadCost, n-1)
			} else {
				d.stats.Hits += uint64(n - 1)
				d.addCost(d.cost.HitCost, n-1)
				hits += uint64(n - 1)
			}
		}
	}
	return hits
}

// addCost accumulates n copies of c by repeated addition so that batched
// stats are bit-identical to the serial per-access accumulation (a single
// c*n multiply rounds differently). Caller holds d.mu.
func (d *Device) addCost(c float64, n int) {
	for j := 0; j < n; j++ {
		d.stats.CostUnits += c
	}
}

// AccessBatch implements Accountant for per-query attribution: the
// run totals are added to the counter's atomics and the sequence is
// forwarded to the underlying accountant's batch path. Run extensions —
// the accesses after the first of each multi-access run — are also
// tallied as Coalesced: their hit verdicts are decided by the
// back-to-back replay, not by a pool lookup a concurrent query could
// have interfered with, which is exactly how per-query attribution and
// batched charging can disagree (see Stats.Coalesced).
func (c *Counter) AccessBatch(pages []PageID, counts []int) (hits uint64) {
	var logical, coalesced uint64
	for _, n := range counts {
		if n > 0 {
			logical += uint64(n)
			coalesced += uint64(n - 1)
		}
	}
	if logical == 0 {
		return 0
	}
	c.logical.Add(logical)
	if coalesced > 0 {
		c.coalesced.Add(coalesced)
	}
	hits = c.next.AccessBatch(pages, counts)
	c.hits.Add(hits)
	return hits
}

// AccessBatch on Discard reports every access as a hit, matching Access.
func (discard) AccessBatch(pages []PageID, counts []int) (hits uint64) {
	for _, n := range counts {
		if n > 0 {
			hits += uint64(n)
		}
	}
	return hits
}

// batcherCap is the run capacity at which a Batcher self-flushes. Samplers
// touch a handful of distinct pages per draw, so 128 runs cover dozens of
// samples per downstream lock acquisition while keeping the accumulator a
// few cache lines.
const batcherCap = 128

// Batcher is an Accountant that coalesces Access charges into an
// order-preserving run-length sequence and forwards them downstream in
// batches: consecutive accesses of the same page extend the current run,
// a different page starts a new one. It exists for single-goroutine hot
// loops (a sampler's NextBatch) that would otherwise take the device lock
// on every draw; Flush (or any Write/Invalidate, which must stay ordered
// relative to reads) delivers the pending sequence.
//
// Access optimistically returns true — the hit verdict is not known until
// the flush. Callers that need per-access verdicts must not batch.
// A Batcher is not safe for concurrent use.
type Batcher struct {
	next   Accountant
	pages  []PageID
	counts []int
}

// NewBatcher returns a Batcher forwarding to next (Discard when nil).
func NewBatcher(next Accountant) *Batcher {
	if next == nil {
		next = Discard
	}
	return &Batcher{
		next:   next,
		pages:  make([]PageID, 0, batcherCap),
		counts: make([]int, 0, batcherCap),
	}
}

// Access implements Accountant by queueing the charge. It always reports a
// hit; the true verdict is accounted downstream at flush time.
func (b *Batcher) Access(p PageID) bool {
	b.queue(p, 1)
	return true
}

// AccessBatch implements Accountant by queueing the runs in order, so the
// flushed sequence is the one the equivalent Access calls would queue. Like
// Access it reports every access as a hit.
func (b *Batcher) AccessBatch(pages []PageID, counts []int) (hits uint64) {
	for i, p := range pages {
		if n := counts[i]; n > 0 {
			b.queue(p, n)
			hits += uint64(n)
		}
	}
	return hits
}

// queue appends n accesses of p, extending the last run when p repeats it.
func (b *Batcher) queue(p PageID, n int) {
	if last := len(b.pages) - 1; last >= 0 && b.pages[last] == p {
		b.counts[last] += n
		return
	}
	if len(b.pages) == batcherCap {
		b.Flush()
	}
	b.pages = append(b.pages, p)
	b.counts = append(b.counts, n)
}

// Write implements Accountant. Pending reads are flushed first so the
// downstream pool observes reads and writes in their true order.
func (b *Batcher) Write(p PageID) {
	b.Flush()
	b.next.Write(p)
}

// Invalidate implements Accountant, flushing pending reads first.
func (b *Batcher) Invalidate(p PageID) {
	b.Flush()
	b.next.Invalidate(p)
}

// Flush delivers the queued access sequence downstream and empties the
// accumulator.
func (b *Batcher) Flush() {
	if len(b.pages) == 0 {
		return
	}
	b.next.AccessBatch(b.pages, b.counts)
	b.pages = b.pages[:0]
	b.counts = b.counts[:0]
}

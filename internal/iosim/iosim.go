// Package iosim simulates a block storage device with an LRU buffer pool.
//
// STORM's evaluation (Figure 3a of the paper) hinges on I/O behaviour:
// Olken-style RandomPath sampling touches Ω(k) distinct disk blocks while
// the LS-tree and RS-tree pay roughly O(k/B). Measuring wall time alone on
// an in-memory reproduction would hide that difference, so the R-tree maps
// every node to a simulated page and each node visit is charged through
// this package. The counters give deterministic, hardware-independent I/O
// costs, and the optional latency model converts them into simulated time.
package iosim

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// PageID identifies a simulated disk page.
type PageID uint64

// Stats is a snapshot of accumulated I/O activity.
type Stats struct {
	Reads     uint64  // physical page reads (buffer pool misses)
	Writes    uint64  // physical page writes
	Hits      uint64  // buffer pool hits
	Logical   uint64  // total logical page accesses (hits + misses)
	Evictions uint64  // pages evicted from the buffer pool
	CostUnits float64 // accumulated simulated latency cost

	// Coalesced counts accesses whose hit verdict was decided by batch
	// run-coalescing rather than an individual pool lookup: inside a
	// flushed run of n consecutive accesses of one page, the n-1
	// accesses after the first are hits *by construction* (the run is
	// replayed back-to-back under one device lock, so the page cannot
	// be evicted between them). A serial, per-access execution of the
	// same query could have interleaved with other queries and charged
	// some of them as misses — so a per-query Counter's raw Hits and a
	// serial replay's Hits can legitimately disagree by up to
	// Coalesced. Only per-query Counters fill this field (the shared
	// Device's stats stay bit-identical between serial and batched
	// charging, which is the iosim batching contract).
	Coalesced uint64
}

// BatchAdjusted returns the conservative, coalescing-free view of the
// stats: the Coalesced accesses — guaranteed hits manufactured by batch
// replay — are removed from Logical and Hits, leaving the accesses whose
// verdicts came from genuine buffer-pool lookups. Reporting both views
// (raw and adjusted) lets an operator bound how much of a query's hit
// rate was earned by locality versus granted by batching.
func (s Stats) BatchAdjusted() Stats {
	adj := s
	adj.Coalesced = 0
	if adj.Logical >= s.Coalesced {
		adj.Logical -= s.Coalesced
	} else {
		adj.Logical = 0
	}
	// On a caching device every coalesced access is a hit; on a
	// capacity-0 device the batch path charges run-extensions as reads,
	// so clamp rather than underflow.
	if adj.Hits >= s.Coalesced {
		adj.Hits -= s.Coalesced
	} else {
		adj.Hits = 0
	}
	// Keep the Reads = Logical - Hits identity on the adjusted view
	// (removes coalesced reads on capacity-0 devices, no-op otherwise).
	if adj.Reads > adj.Logical-adj.Hits {
		adj.Reads = adj.Logical - adj.Hits
	}
	return adj
}

// String implements fmt.Stringer.
func (s Stats) String() string {
	return fmt.Sprintf("reads=%d writes=%d hits=%d logical=%d cost=%.1f",
		s.Reads, s.Writes, s.Hits, s.Logical, s.CostUnits)
}

// CostModel converts physical I/O into simulated latency cost units.
// The defaults loosely mirror a spinning disk relative to RAM: a random
// page read costs 1.0 units while a buffer hit costs 0.001.
type CostModel struct {
	ReadCost  float64
	WriteCost float64
	HitCost   float64
}

// DefaultCostModel returns the cost model used by the benchmark harness.
func DefaultCostModel() CostModel {
	return CostModel{ReadCost: 1.0, WriteCost: 1.0, HitCost: 0.001}
}

// lruNode is one page slot of the buffer pool's intrusive LRU list.
// Evicted nodes are recycled through the device's free list, so a pool at
// capacity admits and evicts without allocating.
type lruNode struct {
	page       PageID
	prev, next *lruNode
}

// Device is a simulated block device fronted by an LRU buffer pool of a
// fixed capacity (in pages). A capacity of zero disables caching: every
// access is a physical read. Device is safe for concurrent use.
type Device struct {
	mu       sync.Mutex
	capacity int
	cost     CostModel
	stats    Stats

	head, tail *lruNode // head = most recently used
	free       *lruNode // recycled nodes, linked through next
	size       int
	entries    map[PageID]*lruNode
}

// NewDevice returns a device whose buffer pool holds capacity pages.
func NewDevice(capacity int, cost CostModel) *Device {
	if capacity < 0 {
		capacity = 0
	}
	return &Device{
		capacity: capacity,
		cost:     cost,
		entries:  make(map[PageID]*lruNode, capacity),
	}
}

// moveToFront makes n the most recently used node. Caller holds d.mu.
func (d *Device) moveToFront(n *lruNode) {
	if d.head == n {
		return
	}
	// Unlink (n is in the list and is not the head, so n.prev != nil).
	n.prev.next = n.next
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		d.tail = n.prev
	}
	// Relink at the head.
	n.prev = nil
	n.next = d.head
	d.head.prev = n
	d.head = n
}

// pushFront links a node for p at the head, reusing a free node when one
// exists. Caller holds d.mu.
func (d *Device) pushFront(p PageID) *lruNode {
	n := d.free
	if n != nil {
		d.free = n.next
	} else {
		n = &lruNode{}
	}
	n.page = p
	n.prev = nil
	n.next = d.head
	if d.head != nil {
		d.head.prev = n
	} else {
		d.tail = n
	}
	d.head = n
	d.size++
	return n
}

// unlink removes n from the list and recycles it. Caller holds d.mu.
func (d *Device) unlink(n *lruNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		d.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		d.tail = n.prev
	}
	d.size--
	n.prev = nil
	n.next = d.free
	d.free = n
}

// Access charges one logical read of the page, simulating a buffer pool
// lookup. It returns true when the access was a buffer hit.
func (d *Device) Access(p PageID) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats.Logical++
	if el, ok := d.entries[p]; ok {
		d.moveToFront(el)
		d.stats.Hits++
		d.stats.CostUnits += d.cost.HitCost
		return true
	}
	d.stats.Reads++
	d.stats.CostUnits += d.cost.ReadCost
	d.admit(p)
	return false
}

// Write charges one physical write of the page and admits it to the pool.
func (d *Device) Write(p PageID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats.Writes++
	d.stats.CostUnits += d.cost.WriteCost
	if el, ok := d.entries[p]; ok {
		d.moveToFront(el)
		return
	}
	d.admit(p)
}

// admit inserts p at the LRU front, evicting if over capacity.
// Caller holds d.mu.
func (d *Device) admit(p PageID) {
	if d.capacity == 0 {
		return
	}
	d.entries[p] = d.pushFront(p)
	for d.size > d.capacity {
		back := d.tail
		delete(d.entries, back.page)
		d.unlink(back)
		d.stats.Evictions++
	}
}

// Invalidate drops the page from the buffer pool (e.g. after a node is
// freed during deletion).
func (d *Device) Invalidate(p PageID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if el, ok := d.entries[p]; ok {
		delete(d.entries, p)
		d.unlink(el)
	}
}

// Stats returns a snapshot of the accumulated counters.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// ResetStats zeroes the counters without touching buffer pool contents,
// so a benchmark can measure a query phase in isolation from the build.
func (d *Device) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats = Stats{}
}

// DropCache empties the buffer pool, forcing cold-cache behaviour.
func (d *Device) DropCache() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.head != nil {
		d.unlink(d.head)
	}
	clear(d.entries)
}

// Capacity returns the buffer pool capacity in pages.
func (d *Device) Capacity() int { return d.capacity }

// Accountant is the narrow interface index structures use to charge I/O.
// A nil-safe no-op implementation is available via Discard.
type Accountant interface {
	Access(PageID) bool
	// AccessBatch charges a run-length encoded access sequence — the
	// concatenation, in order, of counts[i] consecutive accesses of
	// pages[i] — exactly as that many Access calls would, and returns how
	// many of them were buffer hits.
	AccessBatch(pages []PageID, counts []int) (hits uint64)
	Write(PageID)
	Invalidate(PageID)
}

// Discard is an Accountant that charges nothing, for purely in-memory use.
var Discard Accountant = discard{}

type discard struct{}

func (discard) Access(PageID) bool { return true }
func (discard) Write(PageID)       {}
func (discard) Invalidate(PageID)  {}

// Counter is an Accountant that tallies the accesses charged through it
// and forwards each charge to an underlying Accountant (typically the
// shared Device). All counters are atomic, so one Counter per query gives
// race-free per-query I/O attribution while the shared device keeps the
// global totals: concurrent queries each charge through their own Counter
// into the same pool, and nobody needs Stats/ResetStats windows (which
// cannot isolate one query once queries overlap).
type Counter struct {
	next      Accountant
	logical   atomic.Uint64
	hits      atomic.Uint64
	writes    atomic.Uint64
	invalids  atomic.Uint64
	coalesced atomic.Uint64
}

// NewCounter returns a Counter forwarding to next (Discard when nil).
func NewCounter(next Accountant) *Counter {
	if next == nil {
		next = Discard
	}
	return &Counter{next: next}
}

// Access implements Accountant.
func (c *Counter) Access(p PageID) bool {
	c.logical.Add(1)
	hit := c.next.Access(p)
	if hit {
		c.hits.Add(1)
	}
	return hit
}

// Write implements Accountant.
func (c *Counter) Write(p PageID) {
	c.writes.Add(1)
	c.next.Write(p)
}

// Invalidate implements Accountant.
func (c *Counter) Invalidate(p PageID) {
	c.invalids.Add(1)
	c.next.Invalidate(p)
}

// Snapshot returns the I/O attributed through this counter so far. Hits
// reflect the underlying pool's verdicts, so Reads = Logical - Hits is the
// physical reads this query caused (a Discard backend reports every access
// as a hit, leaving Reads at zero). Coalesced counts the accesses whose
// hit verdict was granted by batch run-coalescing (see Stats.Coalesced);
// Snapshot().BatchAdjusted() is the view with those removed.
func (c *Counter) Snapshot() Stats {
	logical := c.logical.Load()
	hits := c.hits.Load()
	return Stats{
		Logical:   logical,
		Hits:      hits,
		Reads:     logical - hits,
		Writes:    c.writes.Load(),
		Coalesced: c.coalesced.Load(),
	}
}

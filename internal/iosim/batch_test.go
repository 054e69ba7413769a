package iosim

import (
	"testing"

	"storm/internal/stats"
)

// randomRuns builds a run-length access sequence with plenty of repeats,
// mimicking a sampler that re-charges its frontier pages.
func randomRuns(rng *stats.RNG, runs, pageSpace, maxRun int) ([]PageID, []int) {
	pages := make([]PageID, runs)
	counts := make([]int, runs)
	for i := range pages {
		pages[i] = PageID(rng.Intn(pageSpace))
		counts[i] = 1 + rng.Intn(maxRun)
	}
	return pages, counts
}

func replaySerial(d *Device, pages []PageID, counts []int) (hits uint64) {
	for i, p := range pages {
		for j := 0; j < counts[i]; j++ {
			if d.Access(p) {
				hits++
			}
		}
	}
	return hits
}

// TestAccessBatchMatchesSerial is the batching contract: AccessBatch must
// leave the device stats and LRU pool in exactly the state the equivalent
// serial Access sequence would — on the device itself, and through a
// Batcher queueing the runs (past its capacity) and flushing them.
func TestAccessBatchMatchesSerial(t *testing.T) {
	for _, capacity := range []int{0, 1, 4, 64} {
		rng := stats.NewRNG(7)
		pages, counts := randomRuns(rng, 500, 100, 4)

		serial := NewDevice(capacity, DefaultCostModel())
		serialHits := replaySerial(serial, pages, counts)

		batched := NewDevice(capacity, DefaultCostModel())
		batchedHits := batched.AccessBatch(pages, counts)

		queued := NewDevice(capacity, DefaultCostModel())
		b := NewBatcher(queued)
		b.AccessBatch(pages, counts)
		b.Flush()

		if serialHits != batchedHits {
			t.Errorf("capacity %d: hits %d (batched) vs %d (serial)", capacity, batchedHits, serialHits)
		}
		if s, b := serial.Stats(), batched.Stats(); s != b {
			t.Errorf("capacity %d: stats diverge:\n  serial  %v\n  batched %v", capacity, s, b)
		}
		if s, q := serial.Stats(), queued.Stats(); s != q {
			t.Errorf("capacity %d: stats diverge:\n  serial  %v\n  batcher %v", capacity, s, q)
		}

		// The pools must agree too: a probe sequence must produce the same
		// hit pattern on both devices.
		probe, probeCounts := randomRuns(rng, 200, 100, 1)
		for i, p := range probe {
			_ = probeCounts[i]
			if hit := serial.Access(p); hit != batched.Access(p) || hit != queued.Access(p) {
				t.Fatalf("capacity %d: LRU pools diverge at probe %d (page %d)", capacity, i, p)
			}
		}
	}
}

// TestBatcherOrderPreserved drives the same interleaved read/write sequence
// through a Batcher and directly, checking final stats equality — flushes
// triggered by Write must keep reads ordered before the write.
func TestBatcherOrderPreserved(t *testing.T) {
	rng := stats.NewRNG(11)
	type op struct {
		write bool
		page  PageID
	}
	ops := make([]op, 3000)
	for i := range ops {
		ops[i] = op{write: rng.Intn(10) == 0, page: PageID(rng.Intn(50))}
	}

	serial := NewDevice(8, DefaultCostModel())
	for _, o := range ops {
		if o.write {
			serial.Write(o.page)
		} else {
			serial.Access(o.page)
		}
	}

	dev := NewDevice(8, DefaultCostModel())
	b := NewBatcher(dev)
	for _, o := range ops {
		if o.write {
			b.Write(o.page)
		} else {
			b.Access(o.page)
		}
	}
	b.Flush()

	if s, d := serial.Stats(), dev.Stats(); s != d {
		t.Errorf("stats diverge:\n  serial  %v\n  batched %v", s, d)
	}
}

// TestBatcherAutoFlush checks that exceeding the run capacity does not drop
// or reorder charges.
func TestBatcherAutoFlush(t *testing.T) {
	dev := NewDevice(4, DefaultCostModel())
	b := NewBatcher(dev)
	const n = 10 * batcherCap
	for i := 0; i < n; i++ {
		b.Access(PageID(i)) // all distinct: one run each
	}
	b.Flush()
	if got := dev.Stats().Logical; got != n {
		t.Errorf("logical accesses = %d, want %d", got, n)
	}
}

// TestCounterAccessBatch checks per-query attribution through the batched
// path: counter totals and device totals must both match the serial run.
func TestCounterAccessBatch(t *testing.T) {
	rng := stats.NewRNG(13)
	pages, counts := randomRuns(rng, 300, 40, 3)

	serialDev := NewDevice(16, DefaultCostModel())
	serialCtr := NewCounter(serialDev)
	replaySerialCounter := func() {
		for i, p := range pages {
			for j := 0; j < counts[i]; j++ {
				serialCtr.Access(p)
			}
		}
	}
	replaySerialCounter()

	dev := NewDevice(16, DefaultCostModel())
	ctr := NewCounter(dev)
	ctr.AccessBatch(pages, counts)

	s, b := serialCtr.Snapshot(), ctr.Snapshot()
	// The batched counter additionally records run extensions as
	// Coalesced (the serial path has none); every verdict field must
	// still match exactly.
	var wantCoalesced uint64
	for _, n := range counts {
		if n > 1 {
			wantCoalesced += uint64(n - 1)
		}
	}
	if b.Coalesced != wantCoalesced {
		t.Errorf("batched Coalesced = %d, want %d", b.Coalesced, wantCoalesced)
	}
	if s.Coalesced != 0 {
		t.Errorf("serial Coalesced = %d, want 0", s.Coalesced)
	}
	b.Coalesced = 0
	if s != b {
		t.Errorf("counter snapshots diverge beyond Coalesced:\n  serial  %v\n  batched %v", s, b)
	}
	if s, b := serialDev.Stats(), dev.Stats(); s != b {
		t.Errorf("device stats diverge:\n  serial  %v\n  batched %v", s, b)
	}
}

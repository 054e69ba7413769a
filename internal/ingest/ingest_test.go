package ingest

import (
	"errors"
	"sync"
	"testing"
	"time"

	"storm/internal/data"
	"storm/internal/geo"
	"storm/internal/obs"
)

// rowAt is a record at event time t.
func rowAt(t float64) data.Row {
	return data.Row{Pos: geo.Vec{t, 0, t}}
}

// memSink is a Sink that records every drained batch. gate, when set,
// blocks InsertBatch until released — simulating a slow index so tests can
// hold records in the buffer deterministically.
type memSink struct {
	mu      sync.Mutex
	batches [][]data.Row
	total   int
	gate    chan struct{}
}

func (s *memSink) InsertBatch(rows []data.Row) []data.ID {
	if s.gate != nil {
		<-s.gate
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := make([]data.Row, len(rows))
	copy(cp, rows)
	s.batches = append(s.batches, cp)
	ids := make([]data.ID, len(rows))
	for i := range ids {
		ids[i] = data.ID(s.total + i)
	}
	s.total += len(rows)
	return ids
}

func (s *memSink) counts() (batches, rows int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.batches), s.total
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestIngestAppendFlush(t *testing.T) {
	sink := &memSink{}
	// A huge interval and threshold: nothing drains until Flush, making
	// the buffered state observable.
	in := New(sink, Config{Shards: 4, FlushInterval: time.Hour, FlushRecords: 1 << 20})
	defer in.Close()

	const n = 1000
	for i := 0; i < n; i++ {
		if err := in.Append(rowAt(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if in.Pending() != n || in.Accepted() != n {
		t.Fatalf("pending = %d, accepted = %d, want %d buffered", in.Pending(), in.Accepted(), n)
	}
	if _, rows := sink.counts(); rows != 0 {
		t.Fatalf("sink saw %d rows before any flush", rows)
	}

	in.Flush()
	batches, rows := sink.counts()
	if rows != n || in.Pending() != 0 {
		t.Fatalf("after flush: sink rows = %d, pending = %d, want %d / 0", rows, in.Pending(), n)
	}
	// The whole backlog drains as ONE sink call — one dataset write-lock
	// acquisition per flush is the point of batching.
	if batches != 1 {
		t.Fatalf("flush produced %d sink batches, want 1", batches)
	}
}

func TestIngestEarlyDrainOnFlushRecords(t *testing.T) {
	sink := &memSink{}
	// Idle ticker effectively off: only the FlushRecords early wake can
	// drain.
	in := New(sink, Config{Shards: 2, FlushInterval: time.Hour, FlushRecords: 16})
	defer in.Close()
	for i := 0; i < 200; i++ {
		if err := in.Append(rowAt(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// After the last FlushRecords wake each shard may legitimately still
	// hold up to FlushRecords-1 rows, so early wakes alone prove at most
	// this much; the explicit Flush then delivers the tail.
	const fromWakes = 200 - 2*(16-1)
	waitFor(t, "early drain", func() bool { _, rows := sink.counts(); return rows >= fromWakes })
	in.Flush()
	if _, rows := sink.counts(); rows != 200 {
		t.Fatalf("rows = %d after flush, want 200", rows)
	}
	if in.Pending() != 0 {
		t.Fatalf("pending = %d after flush", in.Pending())
	}
}

func TestIngestTickerDrain(t *testing.T) {
	sink := &memSink{}
	in := New(sink, Config{Shards: 2, FlushInterval: 2 * time.Millisecond, FlushRecords: 1 << 20})
	defer in.Close()
	for i := 0; i < 50; i++ {
		if err := in.Append(rowAt(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// No explicit Flush: the interval ticker alone must make the records
	// queryable.
	waitFor(t, "ticker drain", func() bool { _, rows := sink.counts(); return rows == 50 })
}

func TestIngestBackpressure(t *testing.T) {
	sink := &memSink{gate: make(chan struct{})}
	reg := obs.NewRegistry()
	in := New(sink, Config{
		Shards: 2, FlushInterval: time.Hour, FlushRecords: 1 << 20,
		MaxPending: 100, Obs: reg, Name: "bp",
	})
	defer in.Close()
	defer close(sink.gate) // let Close's final drain complete

	for i := 0; i < 100; i++ {
		if err := in.Append(rowAt(float64(i))); err != nil {
			t.Fatalf("append %d under MaxPending: %v", i, err)
		}
	}
	err := in.Append(rowAt(100))
	if !errors.Is(err, ErrBackpressure) {
		t.Fatalf("append beyond MaxPending = %v, want ErrBackpressure", err)
	}
	// The rejected record is NOT buffered and not counted as accepted.
	if in.Pending() != 100 || in.Accepted() != 100 {
		t.Fatalf("pending = %d, accepted = %d after rejection, want 100/100", in.Pending(), in.Accepted())
	}
	snap := reg.Snapshot()
	if got := snap["storm.ingest.bp.backpressure"]; got != uint64(1) {
		t.Fatalf("backpressure counter = %v, want 1", got)
	}
	if got := snap["storm.ingest.bp.pending"]; got != 100 {
		t.Fatalf("pending gauge = %v, want 100", got)
	}
}

func TestIngestCloseFlushesAndRejects(t *testing.T) {
	sink := &memSink{}
	in := New(sink, Config{Shards: 4, FlushInterval: time.Hour, FlushRecords: 1 << 20})
	for i := 0; i < 77; i++ {
		if err := in.Append(rowAt(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	if _, rows := sink.counts(); rows != 77 {
		t.Fatalf("close drained %d rows, want 77", rows)
	}
	if err := in.Append(rowAt(99)); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close = %v, want ErrClosed", err)
	}
	if err := in.Close(); err != nil {
		t.Fatalf("second close = %v, want idempotent nil", err)
	}
}

func TestIngestConcurrentProducers(t *testing.T) {
	sink := &memSink{}
	reg := obs.NewRegistry()
	in := New(sink, Config{
		Shards: 8, FlushInterval: time.Millisecond, FlushRecords: 64,
		Obs: reg, Name: "conc",
	})

	const producers, perProducer = 8, 500
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				// Retry on backpressure like a real producer would.
				for {
					err := in.Append(rowAt(float64(p*perProducer + i)))
					if err == nil {
						break
					}
					if !errors.Is(err, ErrBackpressure) {
						t.Error(err)
						return
					}
					time.Sleep(time.Millisecond)
				}
			}
		}(p)
	}
	wg.Wait()
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}

	const n = producers * perProducer
	if in.Accepted() != n {
		t.Fatalf("accepted = %d, want %d", in.Accepted(), n)
	}
	_, rows := sink.counts()
	if rows != n {
		t.Fatalf("sink rows = %d, want every accepted record drained exactly once", rows)
	}
	// Every record reached the sink exactly once, across all batches.
	seen := make(map[float64]bool, n)
	sink.mu.Lock()
	for _, b := range sink.batches {
		for _, r := range b {
			if seen[r.Pos[2]] {
				t.Fatalf("record t=%v drained twice", r.Pos[2])
			}
			seen[r.Pos[2]] = true
		}
	}
	sink.mu.Unlock()
	snap := reg.Snapshot()
	if got := snap["storm.ingest.conc.accepted"]; got != uint64(n) {
		t.Fatalf("accepted counter = %v, want %d", got, n)
	}
	if got := snap["storm.ingest.conc.drained"]; got != uint64(n) {
		t.Fatalf("drained counter = %v, want %d", got, n)
	}
}

// TestIngestAppendBatch: the batched producer path accepts all-or-nothing,
// and drains every record exactly once.
func TestIngestAppendBatch(t *testing.T) {
	sink := &memSink{}
	in := New(sink, Config{
		Shards: 4, FlushInterval: time.Hour, FlushRecords: 1 << 20,
		Name: "batch",
	})
	batch := make([]data.Row, 300)
	for i := range batch {
		batch[i] = rowAt(float64(i))
	}
	if err := in.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := in.AppendBatch(nil); err != nil {
		t.Fatal(err)
	}
	if got := in.Pending(); got != 300 {
		t.Fatalf("pending = %d, want 300", got)
	}
	if got := in.Accepted(); got != 300 {
		t.Fatalf("accepted = %d, want 300", got)
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	if _, rows := sink.counts(); rows != 300 {
		t.Fatalf("sink rows = %d, want 300", rows)
	}
	if err := in.AppendBatch(batch); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close = %v, want ErrClosed", err)
	}
}

// TestIngestAppendBatchBackpressure: a full buffer rejects the whole batch
// with ErrBackpressure and accepts nothing from it.
func TestIngestAppendBatchBackpressure(t *testing.T) {
	sink := &memSink{}
	in := New(sink, Config{
		Shards: 2, FlushInterval: time.Hour, FlushRecords: 1 << 20,
		MaxPending: 10, Name: "batchbp",
	})
	defer in.Close()
	first := make([]data.Row, 12)
	for i := range first {
		first[i] = rowAt(float64(i))
	}
	// Backpressure is checked on entry, so the first batch overshoots.
	if err := in.AppendBatch(first); err != nil {
		t.Fatal(err)
	}
	err := in.AppendBatch(first[:2])
	if !errors.Is(err, ErrBackpressure) {
		t.Fatalf("err = %v, want ErrBackpressure", err)
	}
	if got := in.Accepted(); got != 12 {
		t.Fatalf("accepted = %d, want 12 (rejected batch contributes nothing)", got)
	}
}

package server

import (
	"fmt"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"storm/internal/data"
	"storm/internal/engine"
	"storm/internal/gen"
	"storm/internal/geo"
)

// pipeListener serves connections handed to it over net.Pipe: unbuffered,
// so a peer that never reads stalls the very first write, and deadline-
// aware, so the stall is the write deadline's to end.
type pipeListener struct {
	conns chan net.Conn
	once  sync.Once
	done  chan struct{}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

// TestStalledStreamClientReleasesDataset: an NDJSON client that stops
// reading must not park its handler — and with it the query's dataset read
// lock, behind which the next insert and then every new reader would queue
// — forever. The per-burst write deadline fails the stalled write, the
// handler returns, the request context cancels the query, and an insert on
// the same dataset goes through.
func TestStalledStreamClientReleasesDataset(t *testing.T) {
	eng := engine.New(engine.Config{Seed: 3})
	ds := gen.Uniform(20000, 5, geo.Range{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100, MinT: 0, MaxT: 100})
	h, err := eng.Register(ds, engine.IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(eng)
	srv.writeTimeout = 50 * time.Millisecond

	returned := make(chan struct{})
	l := &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer close(returned)
		srv.ServeHTTP(w, r)
	})}
	go hs.Serve(l)
	defer hs.Close()

	client, server := net.Pipe()
	defer client.Close()
	l.conns <- server
	// An unbounded stream (no SAMPLES, no error target: hundreds of
	// snapshots), sent by a client that then never reads a byte.
	body := `{"statement": "ESTIMATE AVG(value) FROM uniform USING RSTREE"}`
	if _, err := fmt.Fprintf(client, "POST /query HTTP/1.1\r\nHost: pipe\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body); err != nil {
		t.Fatal(err)
	}

	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("handler still parked on a client that never reads, 100 write deadlines later")
	}
	if n := srv.activeStreams.Load(); n != 0 {
		t.Errorf("storm.server.streams.active = %d after the stalled stream ended, want 0", n)
	}
	inserted := make(chan struct{})
	go func() {
		defer close(inserted)
		h.Insert(data.Row{Pos: geo.Vec{50, 50, 50}, Num: map[string]float64{"value": 1}})
	}()
	select {
	case <-inserted:
	case <-time.After(5 * time.Second):
		t.Fatal("insert blocked: the stalled stream's query still holds the dataset read lock")
	}
}

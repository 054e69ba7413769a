package wire

import (
	"sync/atomic"
	"time"
)

// Handler serves wire requests. Implementations must be safe for
// concurrent use; the shard host in package distr is the canonical one.
type Handler interface {
	// Handle serves one request and returns its response. Failures are
	// returned as *Error messages, not Go errors, so they serialize.
	Handle(req Msg) Msg
}

// Counts is a transport's measured traffic tally. Package distr reports
// the sum over a cluster's transports as its NetStats, whether they reach
// shard hosts over TCP or in-process shard hosts in memory.
type Counts struct {
	// MsgsSent/MsgsRecv count messages sent and received by this endpoint.
	MsgsSent, MsgsRecv uint64
	// BytesSent/BytesRecv count frame bytes (length prefix included); zero
	// on an in-memory transport, which encodes nothing.
	BytesSent, BytesRecv uint64
}

// Transport carries one request/response exchange to a shard endpoint.
// Implementations must be safe for concurrent use.
type Transport interface {
	// RoundTrip sends req and waits for the response, observing timeout
	// when positive. Remote failures surface as *Error responses; carrier
	// failures (dial, deadline, broken conn) as Go errors.
	RoundTrip(req Msg, timeout time.Duration) (Msg, error)
	// Send is RoundTrip's first half: it returns once req is written (an
	// in-memory transport hands it to the handler on a goroutine of its
	// own), with recv, which waits for the response. Call recv exactly
	// once; timeout counts from Send. A caller sends several requests
	// before it waits for any, or works between the two.
	Send(req Msg, timeout time.Duration) (recv func() (Msg, error), err error)
	// Counts returns the traffic moved through this transport since it was
	// created or last Reset.
	Counts() Counts
	// Reset zeroes the traffic counts.
	Reset()
	// Close releases the transport's connections.
	Close() error
}

// MemClient is the in-memory transport to a Handler in the same process:
// RoundTrip hands the request message to Handle without encoding it and
// returns the response the same way. Like TCPClient it counts one message
// sent and one received per round trip; it moves no bytes, and it ignores
// the timeout, since no network can hold the exchange up. A response may
// share memory with the handler (a fetch answers from its stream's
// scratch), so the caller copies out what it keeps before its next
// request on that stream.
type MemClient struct {
	h Handler
	counters
}

// NewMemClient returns an in-memory transport to h.
func NewMemClient(h Handler) *MemClient {
	return &MemClient{h: h}
}

// RoundTrip implements Transport.
func (t *MemClient) RoundTrip(req Msg, _ time.Duration) (Msg, error) {
	t.sent(0)
	resp := t.h.Handle(req)
	t.recv(0)
	return resp, nil
}

// Send implements Transport.
func (t *MemClient) Send(req Msg, _ time.Duration) (func() (Msg, error), error) {
	t.sent(0)
	done := make(chan Msg, 1)
	go func() { done <- t.h.Handle(req) }()
	return func() (Msg, error) {
		resp := <-done
		t.recv(0)
		return resp, nil
	}, nil
}

// Counts implements Transport.
func (t *MemClient) Counts() Counts { return t.snapshot() }

// Reset implements Transport.
func (t *MemClient) Reset() { t.reset() }

// Close implements Transport; an in-memory transport holds nothing.
func (t *MemClient) Close() error { return nil }

// counters is the shared atomic tally embedded by counting transports.
type counters struct {
	msgsSent, msgsRecv   atomic.Uint64
	bytesSent, bytesRecv atomic.Uint64
}

func (c *counters) sent(bytes int) {
	c.msgsSent.Add(1)
	c.bytesSent.Add(uint64(bytes))
}

func (c *counters) recv(bytes int) {
	c.msgsRecv.Add(1)
	c.bytesRecv.Add(uint64(bytes))
}

func (c *counters) reset() {
	c.msgsSent.Store(0)
	c.msgsRecv.Store(0)
	c.bytesSent.Store(0)
	c.bytesRecv.Store(0)
}

func (c *counters) snapshot() Counts {
	return Counts{
		MsgsSent:  c.msgsSent.Load(),
		MsgsRecv:  c.msgsRecv.Load(),
		BytesSent: c.bytesSent.Load(),
		BytesRecv: c.bytesRecv.Load(),
	}
}

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
// it as a remote cluster's NetStats; in-process clusters never go through
// a Transport and charge simulated messages instead.
type Counts struct {
	// MsgsSent/MsgsRecv count frames written and read by this endpoint.
	MsgsSent, MsgsRecv uint64
	// BytesSent/BytesRecv count frame bytes (length prefix included).
	BytesSent, BytesRecv uint64
}

// Transport carries one request/response exchange to a shard endpoint.
// Implementations must be safe for concurrent use.
type Transport interface {
	// RoundTrip sends req and waits for the response, observing timeout
	// when positive. Remote failures surface as *Error responses; carrier
	// failures (dial, deadline, broken conn) as Go errors.
	RoundTrip(req Msg, timeout time.Duration) (Msg, error)
	// Counts returns the traffic moved through this transport so far.
	Counts() Counts
	// Close releases the transport's connections.
	Close() error
}

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

func (c *counters) snapshot() Counts {
	return Counts{
		MsgsSent:  c.msgsSent.Load(),
		MsgsRecv:  c.msgsRecv.Load(),
		BytesSent: c.bytesSent.Load(),
		BytesRecv: c.bytesRecv.Load(),
	}
}

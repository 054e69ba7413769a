package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// readFrame reads exactly one frame from r into a fresh buffer and
// decodes it, returning the message and the frame's size on the wire.
func readFrame(r io.Reader) (Msg, int, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, 0, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n < 1 || n > MaxFrame {
		return nil, 0, fmt.Errorf("wire: frame length %d out of range", n)
	}
	buf := make([]byte, 4+n)
	copy(buf, hdr[:])
	if _, err := io.ReadFull(r, buf[4:]); err != nil {
		return nil, 0, err
	}
	m, size, err := DecodeFrame(buf)
	if err != nil {
		return nil, 0, err
	}
	return m, size, nil
}

// tcpConn is one pooled client connection with its buffered reader and a
// reusable write buffer.
type tcpConn struct {
	c   net.Conn
	br  *bufio.Reader
	buf []byte
}

// TCPClient is the coordinator-side TCP transport to one shard host. It
// keeps a small pool of idle connections, dials lazily, applies the
// per-request timeout as a connection deadline covering both the write and
// the response read, and drops a connection on any carrier error so a
// failure never poisons later requests. One TCPClient is shared by every
// shard the host serves, so its Counts cover the whole address.
type TCPClient struct {
	addr string

	mu     sync.Mutex
	idle   []*tcpConn
	closed bool

	counters
}

// maxIdleConns bounds the per-address connection pool. The coordinator
// fans out one in-flight request per shard, so a handful of connections
// covers a host serving several shards without a thundering herd.
const maxIdleConns = 4

// DialTimeout bounds connection establishment to a shard host. Kept
// short: a dead host should surface as a crash fault quickly, and the PR 4
// retry path handles the rest.
const DialTimeout = 2 * time.Second

// MinCallTimeout is the floor for a caller-shrunk per-request timeout.
// Deadline-aware fetches cap their transport timeout at the time left on
// the query's deadline; below this floor a request cannot plausibly
// complete, so callers send it with MinCallTimeout (and let the deadline
// check on return discard the result) rather than guarantee a spurious
// transport failure that would mark a healthy shard down.
const MinCallTimeout = time.Millisecond

// NewTCPClient returns a TCP transport to the shard host at addr. No
// connection is made until the first RoundTrip.
func NewTCPClient(addr string) *TCPClient {
	return &TCPClient{addr: addr}
}

// Addr returns the host address this client dials.
func (t *TCPClient) Addr() string { return t.addr }

func (t *TCPClient) get() (*tcpConn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, fmt.Errorf("wire: client to %s is closed", t.addr)
	}
	if n := len(t.idle); n > 0 {
		c := t.idle[n-1]
		t.idle = t.idle[:n-1]
		t.mu.Unlock()
		return c, nil
	}
	t.mu.Unlock()
	c, err := net.DialTimeout("tcp", t.addr, DialTimeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return &tcpConn{c: c, br: bufio.NewReader(c)}, nil
}

func (t *TCPClient) put(c *tcpConn) {
	t.mu.Lock()
	if !t.closed && len(t.idle) < maxIdleConns {
		t.idle = append(t.idle, c)
		t.mu.Unlock()
		return
	}
	t.mu.Unlock()
	c.c.Close()
}

// RoundTrip implements Transport: one framed request, one framed
// response, both under the same deadline. Any carrier error closes the
// connection; the caller's retry path decides what to do next.
func (t *TCPClient) RoundTrip(req Msg, timeout time.Duration) (Msg, error) {
	c, err := t.write(req, timeout)
	if err != nil {
		return nil, err
	}
	return t.read(c)
}

// Send implements Transport: the request is written on a connection that
// stays out of the pool until recv has read the response.
func (t *TCPClient) Send(req Msg, timeout time.Duration) (func() (Msg, error), error) {
	c, err := t.write(req, timeout)
	if err != nil {
		return nil, err
	}
	return func() (Msg, error) { return t.read(c) }, nil
}

// write frames req onto a connection of the pool's under the deadline and
// returns the connection, which read hands back.
func (t *TCPClient) write(req Msg, timeout time.Duration) (*tcpConn, error) {
	c, err := t.get()
	if err != nil {
		return nil, err
	}
	if timeout > 0 {
		c.c.SetDeadline(time.Now().Add(timeout))
	} else {
		c.c.SetDeadline(time.Time{})
	}
	c.buf = AppendFrame(c.buf[:0], req)
	if _, err := c.c.Write(c.buf); err != nil {
		c.c.Close()
		return nil, fmt.Errorf("wire: write to %s: %w", t.addr, err)
	}
	t.sent(len(c.buf))
	return c, nil
}

// read reads the response to the request write framed onto c and returns
// c to the pool.
func (t *TCPClient) read(c *tcpConn) (Msg, error) {
	resp, size, err := readFrame(c.br)
	if err != nil {
		c.c.Close()
		return nil, fmt.Errorf("wire: read from %s: %w", t.addr, err)
	}
	t.recv(size)
	t.put(c)
	return resp, nil
}

// Counts implements Transport.
func (t *TCPClient) Counts() Counts { return t.snapshot() }

// Reset implements Transport.
func (t *TCPClient) Reset() { t.reset() }

// Close implements Transport, closing every pooled connection.
func (t *TCPClient) Close() error {
	t.mu.Lock()
	t.closed = true
	idle := t.idle
	t.idle = nil
	t.mu.Unlock()
	for _, c := range idle {
		c.c.Close()
	}
	return nil
}

// Server accepts framed requests over TCP and dispatches them to a
// Handler — the shard-host side of the transport. Each connection is
// served by one goroutine in request order, matching the client's one
// in-flight request per connection.
type Server struct {
	h  Handler
	ln net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	counters
}

// NewServer listens on addr (":0" picks a free port) and starts serving h.
func NewServer(addr string, h Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return Serve(ln, h), nil
}

// Serve starts serving h on a listener that is already bound, and owns it
// from then on (Close closes it). Between bind and Serve, clients can
// connect and write requests: the kernel queues the connections, and each
// request is answered, on its own connection, once Serve accepts it. A
// shard host binds first and serves once its datasets exist, so a
// coordinator's Build waits for the data instead of being refused.
func Serve(ln net.Listener, h Handler) *Server {
	s := &Server{h: h, ln: ln, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the server's bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Counts returns the traffic served so far.
func (s *Server) Counts() Counts { return s.snapshot() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(c)
	}
}

func (s *Server) serveConn(c net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
	}()
	br := bufio.NewReader(c)
	var wbuf []byte
	for {
		req, size, err := readFrame(br)
		if err != nil {
			return
		}
		s.recv(size)
		resp := s.dispatch(req)
		wbuf = AppendFrame(wbuf[:0], resp)
		if _, err := c.Write(wbuf); err != nil {
			return
		}
		s.sent(len(wbuf))
	}
}

// dispatch runs the handler with a panic guard: a bug serving one request
// must answer with a generic Error, not take the whole host down.
func (s *Server) dispatch(req Msg) (resp Msg) {
	defer func() {
		if r := recover(); r != nil {
			resp = &Error{Code: ErrCodeGeneric, Msg: fmt.Sprintf("panic serving %v: %v", req.WireKind(), r)}
		}
	}()
	resp = s.h.Handle(req)
	if resp == nil {
		resp = &Error{Code: ErrCodeGeneric, Msg: fmt.Sprintf("no response for %v", req.WireKind())}
	}
	return resp
}

// Close stops accepting, closes live connections and waits for the serve
// goroutines to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}

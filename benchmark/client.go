package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"time"
)

// conn is one of the benchmark's HTTP connections: a client whose transport
// keeps exactly one connection to the front stormd, so "2 clients" is two
// sockets and each waits for its reply before sending again.
type conn struct {
	http *http.Client
	base string
}

func newConn(addr string) *conn {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		DialContext:         (&net.Dialer{Timeout: 2 * time.Second}).DialContext,
	}
	return &conn{http: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: "http://" + addr}
}

func (c *conn) close() { c.http.CloseIdleConnections() }

// answer is the last line of a query response — the final done:true
// snapshot of a stream or the single contract document — reduced to the
// fields the checks read.
type answer struct {
	Value      float64 `json:"value"`
	HalfWidth  float64 `json:"half_width"`
	Samples    int     `json:"samples"`
	Population int     `json:"population"`
	Exact      bool    `json:"exact"`
	Unbounded  bool    `json:"unbounded"`
	Done       bool    `json:"done"`
	Windowed   bool    `json:"windowed"`
	WindowLo   float64 `json:"window_lo"`
	WindowHi   float64 `json:"window_hi"`
	Reject     float64 `json:"reject_ratio"`
	Status     string  `json:"status"`
	Sampler    string  `json:"sampler"`
}

// relWidth is the relative CI half-width, +Inf while unbounded.
func (a answer) relWidth() float64 {
	if a.Exact {
		return 0
	}
	if a.Unbounded || a.Value == 0 {
		return math.Inf(1)
	}
	return a.HalfWidth / math.Abs(a.Value)
}

// queryResult is what the client observed for one statement. Times are
// measured from just before the request is written.
type queryResult struct {
	// Err is empty for a 2xx response that ended in a parseable line.
	Err     string
	Latency time.Duration // to the last byte
	TTFS    time.Duration // to the first response line
	// TTCI1 is the time to the first line whose relative half-width is at
	// most 1% (exact answers count); negative when none was.
	TTCI1 time.Duration
	Lines int
	Bytes int
	Final answer
}

var (
	keyValue     = []byte(`"value":`)
	keyHalfWidth = []byte(`"half_width":`)
	keyUnbounded = []byte(`"unbounded":true`)
	keyExact     = []byte(`"exact":true`)
)

// numField extracts the number following key in one JSON line without
// decoding the line; the client reads ~1e5 snapshot lines a second and must
// not become the bottleneck of a two-core box.
func numField(line, key []byte) (float64, bool) {
	i := bytes.Index(line, key)
	if i < 0 {
		return 0, false
	}
	rest := line[i+len(key):]
	end := bytes.IndexAny(rest, ",}")
	if end < 0 {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(rest[:end]), 64)
	return v, err == nil
}

// within1pct reports whether a snapshot line carries a CI of at most 1%
// relative half-width.
func within1pct(line []byte) bool {
	if bytes.Contains(line, keyExact) {
		return true
	}
	if bytes.Contains(line, keyUnbounded) {
		return false
	}
	v, ok1 := numField(line, keyValue)
	hw, ok2 := numField(line, keyHalfWidth)
	return ok1 && ok2 && v != 0 && hw/math.Abs(v) <= 0.01
}

// query posts one statement and reads the whole response.
func (c *conn) query(body []byte) queryResult {
	res := queryResult{TTCI1: -1}
	start := time.Now()
	resp, err := c.http.Post(c.base+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		res.Err = err.Error()
		return res
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // best-effort detail for the report
		res.Err = fmt.Sprintf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
		return res
	}
	// Lines are read in place (ReadSlice) and only the last one is copied:
	// the client reads ~1e5 snapshot lines a second and shares two cores
	// with the server it is timing.
	r := bufio.NewReaderSize(resp.Body, 64<<10)
	var last []byte
	for {
		line, err := r.ReadSlice('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			now := time.Since(start)
			if res.Lines == 0 {
				res.TTFS = now
			}
			res.Lines++
			res.Bytes += len(line)
			if res.TTCI1 < 0 && within1pct(line) {
				res.TTCI1 = now
			}
			last = append(last[:0], line...)
		}
		if err == io.EOF {
			break
		}
		if err != nil { // bufio.ErrBufferFull included: no snapshot line nears 64 KiB
			res.Err = "reading response: " + err.Error()
			return res
		}
	}
	res.Latency = time.Since(start)
	if last == nil {
		res.Err = "empty response"
		return res
	}
	if err := json.Unmarshal(last, &res.Final); err != nil {
		res.Err = "decoding final line: " + err.Error()
	}
	return res
}

// ingestReply is the body of a POST /ingest response.
type ingestReply struct {
	Accepted int `json:"accepted"`
	Pending  int `json:"pending"`
}

// post sends one NDJSON body to /ingest/osm. On a 429 it honours
// Retry-After and resumes just past the records the reply says were
// accepted, until the whole body is in; lineEnds gives the byte offset past
// each record. It returns the records accepted and the backlog the last
// reply reported.
func (c *conn) post(body []byte, lineEnds []int) (accepted, pending int, err error) {
	for accepted < len(lineEnds) {
		from := 0
		if accepted > 0 {
			from = lineEnds[accepted-1]
		}
		resp, err := c.http.Post(c.base+"/ingest/osm", "application/x-ndjson", bytes.NewReader(body[from:]))
		if err != nil {
			return accepted, pending, err
		}
		var reply ingestReply
		derr := json.NewDecoder(resp.Body).Decode(&reply)
		_, _ = io.Copy(io.Discard, resp.Body) // drained only to reuse the connection
		resp.Body.Close()
		if derr != nil {
			return accepted, pending, fmt.Errorf("decoding ingest reply (HTTP %d): %w", resp.StatusCode, derr)
		}
		accepted += reply.Accepted
		pending = reply.Pending
		switch {
		case resp.StatusCode == http.StatusOK:
		case resp.StatusCode == http.StatusTooManyRequests:
			wait, perr := strconv.Atoi(resp.Header.Get("Retry-After"))
			if perr != nil || wait < 0 {
				wait = 1
			}
			time.Sleep(time.Duration(wait) * time.Second)
		default:
			return accepted, pending, fmt.Errorf("POST /ingest/osm: HTTP %d", resp.StatusCode)
		}
	}
	return accepted, pending, nil
}

// countBody is the statement the benchmark counts queryable records with.
// GET /datasets/osm would be cheaper, but at the seed commit its handler
// iterates the dataset's column map while an ingest drain appends to it, and
// stormd dies of "concurrent map iteration and map write" (see README.md);
// an exact COUNT takes the dataset read lock like any query.
var countBody = []byte(`{"statement":"SELECT COUNT FROM osm"}`)

// records returns how many records an exact COUNT over the whole dataset
// sees — what is queryable, as opposed to merely acknowledged.
func (c *conn) records() (int, error) {
	res := c.query(countBody)
	switch {
	case res.Err != "":
		return 0, fmt.Errorf("SELECT COUNT FROM osm: %s", res.Err)
	case !res.Final.Exact || !res.Final.Done:
		return 0, fmt.Errorf("SELECT COUNT FROM osm: answer is not an exact final count: %+v", res.Final)
	}
	return res.Final.Population, nil
}

// awaitRecords polls records() until it reports at least want, and returns
// the count seen. The poll spacing bounds the resolution of fresh-lag.
func (c *conn) awaitRecords(want int, spacing, timeout time.Duration) (int, error) {
	deadline := time.Now().Add(timeout)
	for {
		n, err := c.records()
		if err != nil {
			return 0, err
		}
		if n >= want {
			return n, nil
		}
		if time.Now().After(deadline) {
			return n, fmt.Errorf("only %d of %d records queryable after %s", n, want, timeout)
		}
		time.Sleep(spacing)
	}
}

// scrape fetches /metrics as a flat map of numbers and histograms.
func (c *conn) scrape() (expvars, error) {
	resp, err := c.http.Get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseExpvars(b)
}

// The transport side of the ShardClient boundary: wireClient speaks the
// wire protocol to a shard host, and Start builds every Cluster —
// in-process shard hosts reached in memory, shard processes reached over
// TCP — from the same cut of the coordinator's STR order, clients, fault
// decorators and Build RPCs. Only the transport differs: TCP adds frames,
// deadlines and bytes, and both count the messages they carry.
package distr

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"storm/internal/data"
	"storm/internal/geo"
	"storm/internal/pred"
	"storm/internal/rtree"
	"storm/internal/wire"
)

const (
	// remoteBuildTimeout bounds a Build RPC: the shard host packs and
	// indexes the shard, under its dataset lock, which dwarfs every other
	// request.
	remoteBuildTimeout = 2 * time.Minute
	// remoteOpTimeout bounds every request but Build and Fetch (count,
	// open, close, update mirrors, liveness pings) — cheap but
	// index-sized, so they get more room than a sample fetch.
	remoteOpTimeout = 2 * time.Second
	// remoteProbeEvery rate-limits liveness pings against a down shard,
	// so a degraded query's readmit polls don't flood the dead address
	// with connection attempts.
	remoteProbeEvery = 50 * time.Millisecond
)

// wireClient is the ShardClient over one transport to the shard host
// owning this copy of the shard. Transports are shared per host; the
// client adds the shard addressing, the per-request deadlines and the
// down/rejoin bookkeeping for real outages.
type wireClient struct {
	c    *Cluster
	t    wire.Transport
	addr string
	tgt  wire.Target
	// build is the shard's original Build request, kept so an
	// unknown-shard error (the host restarted and lost the shard) can be
	// answered by rebuilding it in place; its IDs are shared by the
	// shard's copies.
	build wire.Build
	// box is geo.Bounds over the coordinator's run of the shard: the box
	// the host's first BuildOK must carry.
	box geo.Rect

	mu        sync.Mutex
	down      bool
	lastProbe time.Time
}

// markDown records a transport-level outage: one crash transition per
// down period, mirrored into the cluster's fault totals (crashes and
// shards_down — a real outage, not an injected one, so the injected
// counter is untouched).
func (w *wireClient) markDown() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.down {
		return
	}
	w.down = true
	w.lastProbe = time.Now()
	w.c.ftot.crashes.Add(1)
	w.c.ftot.shardsDown.Add(1)
}

// markUp clears the down state after any successful round trip. The
// rejoin accounting happens here — not in Live — because a retried fetch
// can revive the shard without a ping ever being sent.
func (w *wireClient) markUp() {
	w.mu.Lock()
	wasDown := w.down
	w.down = false
	w.mu.Unlock()
	if wasDown {
		w.c.countReadmit()
	}
}

// Live implements ShardClient: a down shard is probed with a Ping at
// most once per remoteProbeEvery. Rejoin accounting is internal to the
// markUp transition, so Live never reports rejoined itself.
func (w *wireClient) Live() (down, rejoined bool) {
	w.mu.Lock()
	if !w.down {
		w.mu.Unlock()
		return false, false
	}
	if time.Since(w.lastProbe) < remoteProbeEvery {
		w.mu.Unlock()
		return true, false
	}
	w.lastProbe = time.Now()
	w.mu.Unlock()
	if _, err := w.t.RoundTrip(&wire.Ping{}, remoteOpTimeout); err != nil {
		return true, false
	}
	w.markUp()
	return false, false
}

// roundTrip sends one request with a deadline, maintaining the
// down/rejoin state: any transport failure surfaces as a recoverable
// down-shard error (a process can always be restarted), any success
// revives the shard.
func (w *wireClient) roundTrip(m wire.Msg, timeout time.Duration) (wire.Msg, error) {
	resp, err := w.t.RoundTrip(m, timeout)
	if err != nil {
		w.markDown()
		return nil, &shardDownError{Recoverable: true}
	}
	w.markUp()
	return resp, nil
}

// call is roundTrip plus protocol-level error mapping: an unknown-shard
// error triggers one in-place rebuild (the host restarted and lost the
// shard; its BuildOK widens the shard's envelope) before the request is
// retried; an unknown-stream error maps to ErrUnknownStream so the
// coordinator reopens the stream.
func (w *wireClient) call(m wire.Msg, timeout time.Duration) (wire.Msg, error) {
	rebuilt := false
	for {
		resp, err := w.roundTrip(m, timeout)
		if err != nil {
			return nil, err
		}
		werr, isErr := resp.(*wire.Error)
		if !isErr {
			return resp, nil
		}
		switch werr.Code {
		case wire.ErrCodeUnknownStream:
			return nil, ErrUnknownStream
		case wire.ErrCodeUnknownShard:
			if rebuilt {
				return nil, werr
			}
			rebuilt = true
			w.c.rtot.rebuilds.Add(1)
			built, err := w.roundTrip(&w.build, remoteBuildTimeout)
			if err != nil {
				return nil, err
			}
			if ok, isOK := built.(*wire.BuildOK); isOK {
				w.c.widenBuilt(int(w.tgt.Shard), ok)
			}
			// Rebuilt (or raced another rebuilder); retry the request.
		default:
			return nil, werr
		}
	}
}

// Count implements ShardClient.
func (w *wireClient) Count(req wire.Count) (wire.CountOK, error) {
	req.Target = w.tgt
	resp, err := w.call(&req, remoteOpTimeout)
	if err != nil {
		return wire.CountOK{}, err
	}
	ok, isOK := resp.(*wire.CountOK)
	if !isOK {
		return wire.CountOK{}, fmt.Errorf("distr: unexpected %v response to count", resp.WireKind())
	}
	return *ok, nil
}

// Open implements ShardClient.
func (w *wireClient) Open(stream uint64, q geo.Rect, seed int64, exclude []data.ID, where []pred.Term) (int, error) {
	resp, err := w.call(&wire.Open{Target: w.tgt, Stream: stream, Query: q, Seed: seed, Exclude: exclude, Where: where}, remoteOpTimeout)
	if err != nil {
		return 0, err
	}
	ok, isOK := resp.(*wire.OpenOK)
	if !isOK {
		return 0, fmt.Errorf("distr: unexpected %v response to open", resp.WireKind())
	}
	return int(ok.N), nil
}

// Fetch implements ShardClient. The transport enforces the request
// timeout on the connection: Config.FetchTimeout, capped at the time
// remaining until a non-zero deadline (floored at wire.MinCallTimeout), so
// a contract query's last fetch cannot block past the deadline waiting on
// a slow shard.
func (w *wireClient) Fetch(stream uint64, dst []data.Entry, n int, deadline time.Time) (int, error) {
	timeout := w.c.cfg.FetchTimeout
	if !deadline.IsZero() {
		if left := time.Until(deadline); left < timeout {
			timeout = left
		}
		if timeout < wire.MinCallTimeout {
			timeout = wire.MinCallTimeout
		}
	}
	resp, err := w.call(&wire.Fetch{Target: w.tgt, Stream: stream, N: uint32(n)}, timeout)
	if err != nil {
		return 0, err
	}
	ents, isEnts := resp.(*wire.Entries)
	if !isEnts {
		return 0, fmt.Errorf("distr: unexpected %v response to fetch", resp.WireKind())
	}
	got := copy(dst, ents.Entries)
	return got, nil
}

// CloseStream implements ShardClient.
func (w *wireClient) CloseStream(stream uint64) error {
	_, err := w.call(&wire.Close{Target: w.tgt, Stream: stream}, remoteOpTimeout)
	if errors.Is(err, ErrUnknownStream) {
		return nil // restarted host: the stream is already gone
	}
	return err
}

// Insert implements ShardClient, shipping the record's attributes so the
// shard host's dataset copy stays aligned with the coordinator's.
func (w *wireClient) Insert(e data.Entry, num []wire.NumAttr, str []wire.StrAttr) error {
	_, err := w.call(&wire.Insert{Target: w.tgt, ID: e.ID, Pos: e.Pos, Num: num, Str: str}, remoteOpTimeout)
	return err
}

// Delete implements ShardClient.
func (w *wireClient) Delete(e data.Entry) (bool, error) {
	resp, err := w.call(&wire.Delete{Target: w.tgt, ID: e.ID, Pos: e.Pos}, remoteOpTimeout)
	if err != nil {
		return false, err
	}
	ok, isOK := resp.(*wire.DeleteOK)
	if !isOK {
		return false, fmt.Errorf("distr: unexpected %v response to delete", resp.WireKind())
	}
	return ok.Found, nil
}

// Addr implements ShardClient.
func (w *wireClient) Addr() string { return w.addr }

// sendBuild writes the shard copy's Build RPC and returns the function
// that awaits its BuildOK and unions the box and digest it carries into the
// shard's envelope. A box other than the coordinator's means the host
// regenerated another dataset under the same name, and is refused.
func (w *wireClient) sendBuild() (await func() error) {
	fail := func() error {
		w.markDown()
		return fmt.Errorf("distr: building shard %d on %s: %w", w.tgt.Shard, w.addr, &shardDownError{Recoverable: true})
	}
	recv, err := w.t.Send(&w.build, remoteBuildTimeout)
	if err != nil {
		return fail
	}
	return func() error {
		resp, err := recv()
		if err != nil {
			return fail()
		}
		w.markUp()
		if werr, isErr := resp.(*wire.Error); isErr {
			return fmt.Errorf("distr: building shard %d on %s: %w", w.tgt.Shard, w.addr, werr)
		}
		ok, isOK := resp.(*wire.BuildOK)
		if !isOK {
			return fmt.Errorf("distr: unexpected %v response to build", resp.WireKind())
		}
		if !sameBox(ok.Box, w.box) {
			return fmt.Errorf("distr: shard host %s holds another copy of dataset %q: shard %d spans %v there, %v here", w.addr, w.tgt.DS, w.tgt.Shard, ok.Box, w.box)
		}
		w.c.widenBuilt(int(w.tgt.Shard), ok)
		return nil
	}
}

// sameBox reports whether a and b are one box, bit for bit.
func sameBox(a, b geo.Rect) bool {
	for d := range a.Min {
		if math.Float64bits(a.Min[d]) != math.Float64bits(b.Min[d]) || math.Float64bits(a.Max[d]) != math.Float64bits(b.Max[d]) {
			return false
		}
	}
	return true
}

// leafRun returns shard s's run of es, an STR order at fanout f cut into
// of shards: with L leaves, leaves [s·L/of, (s+1)·L/of).
func leafRun(es []data.Entry, f, of, s int) []data.Entry {
	leaves := (len(es) + f - 1) / f
	return es[f*(s*leaves/of) : min(len(es), f*((s+1)*leaves/of))]
}

// endpoint is one shard host as the coordinator reaches it.
type endpoint struct {
	addr string
	t    wire.Transport
}

// BuildRemote assembles a cluster whose shards live in remote shard-host
// processes reached over TCP (Start with addrs). It sorts ds once; each
// host packs its shards from its own copy of the dataset, regenerated
// from the same flags, by the record IDs the coordinator's Builds name.
func BuildRemote(ds *data.Dataset, cfg Config, addrs []string) (*Cluster, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("distr: remote cluster needs at least one shard host")
	}
	return Start(ds, rtree.STROrderDataset(cfg.Fanout, ds), cfg, addrs)()
}

// Start builds a cluster over ds in two halves: it returns once every
// shard copy's Build request is written, and wait collects the answers and
// returns the cluster. The hosts build while the caller works between the
// two — a coordinator packs its own tree.
//
// order is ds's STR order at cfg.Fanout (rtree.STROrderDataset). With L
// leaves of it, shard s of S is leaves [s·L/S, (s+1)·L/S), so every shard
// is within one leaf of the others' size and holds exactly the leaves the
// coordinator's own tree packs from the same order. Each copy's Build
// names that run's record IDs and the order's bounds; order is read only
// before Start returns, so the caller may pack it into its own tree then.
//
// Without addrs, Start runs cfg.Replicas in-process Hosts, each holding ds
// itself behind a wire.MemClient, with copy r of every shard on host r.
// With addrs, each shard is placed on cfg.Replicas distinct shard-host
// processes by consistent hashing over addrs (ring successors; a pool
// smaller than the factor yields fewer copies), each reached through one
// shared TCP transport, and cfg.Shards defaults to len(addrs). Every
// replica of a shard answers to the same wire Target — replica identity is
// purely a coordinator-side routing choice. Past placement both clusters
// are assembled alike, fault decorators included, so the robustness suites
// run unchanged against real processes.
func Start(ds *data.Dataset, order rtree.DatasetOrder, cfg Config, addrs []string) (wait func() (*Cluster, error)) {
	if cfg.Shards == 0 {
		cfg.Shards = len(addrs)
	}
	if err := cfg.normalize(); err != nil {
		return func() (*Cluster, error) { return nil, err }
	}
	c := &Cluster{cfg: cfg, ds: ds}
	place := make([][]endpoint, cfg.Shards)
	if len(addrs) == 0 {
		c.hosts = make([]*Host, cfg.Replicas)
		eps := make([]endpoint, cfg.Replicas)
		for r := range c.hosts {
			h := NewHost()
			h.AddDataset(ds)
			t := wire.NewMemClient(h)
			c.hosts[r], eps[r] = h, endpoint{addr: "loopback", t: t}
			c.transports = append(c.transports, t)
		}
		for s := range place {
			place[s] = eps
		}
	} else {
		ring := newRing(addrs)
		dialed := make(map[string]wire.Transport, len(addrs))
		for s := range place {
			for _, addr := range ring.lookupN(shardPlacementKey(ds.Name(), s), cfg.Replicas) {
				t, ok := dialed[addr]
				if !ok {
					t = wire.NewTCPClient(addr)
					dialed[addr] = t
					c.transports = append(c.transports, t)
				}
				place[s] = append(place[s], endpoint{addr: addr, t: t})
			}
		}
	}
	return c.assemble(place, order)
}

// assemble finishes a cluster whose transports are set: copy r of shard s
// is reached through a wireClient over place[s][r], wrapped in its fault
// injector when a plan is installed, and every copy is built with a Build
// RPC for shard s's run of order (see Start) whose answer seeds the
// shard's envelope. It returns once every Build is written, with the
// function that awaits the answers and returns the cluster, or closes it
// on error.
func (c *Cluster) assemble(place [][]endpoint, order rtree.DatasetOrder) (wait func() (*Cluster, error)) {
	c.faults = newFaultStates(c.cfg.Faults, c.cfg.Shards, c.cfg.Replicas)
	var builders []*wireClient
	for s, eps := range place {
		run := leafRun(order.Entries, shardFanout(c.cfg.Fanout), len(place), s)
		ids := make([]data.ID, len(run))
		for i := range run {
			ids[i] = run[i].ID
		}
		tgt := wire.Target{DS: c.ds.Name(), Shard: uint32(s)}
		build := wire.Build{Target: tgt, Of: uint32(c.cfg.Shards), Seed: c.cfg.Seed, Fanout: uint32(c.cfg.Fanout), Bounds: order.Bounds, IDs: ids}
		box := geo.Bounds(run, func(e *data.Entry) *geo.Vec { return &e.Pos })
		reps := make([]ShardClient, 0, len(eps))
		for r, ep := range eps {
			w := &wireClient{c: c, t: ep.t, addr: ep.addr, tgt: tgt, build: build, box: box}
			builders = append(builders, w)
			var cl ShardClient = w
			if c.faults != nil {
				cl = &faultClient{ShardClient: w, c: c, f: c.faults[s][r]}
			}
			reps = append(reps, cl)
		}
		c.repl = append(c.repl, reps)
		c.clients = append(c.clients, reps[0])
		c.env = append(c.env, envelope{box: geo.EmptyRect(), attrs: map[string]pred.AttrStats{}})
	}
	c.mirrorMisses = newMirrorMisses(c.repl)

	// Sent side by side, so an unreachable host's dial timeouts overlap.
	awaits := make([]func() error, len(builders))
	var sent sync.WaitGroup
	sent.Add(len(builders))
	for i, w := range builders {
		go func() {
			defer sent.Done()
			awaits[i] = w.sendBuild()
		}()
	}
	sent.Wait()
	return func() (*Cluster, error) {
		var first error
		for _, await := range awaits {
			if err := await(); err != nil && first == nil {
				first = err
			}
		}
		if first != nil {
			_ = c.Close()
			return nil, first
		}
		c.initMetrics()
		return c, nil
	}
}

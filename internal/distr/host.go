// Host is the shard server, the one request handler every shard copy runs
// behind: it owns the shard backends of one stormd -role=shard process (a
// wire.Server serves it over TCP) or of one in-process shard host of a
// Build cluster (a wire.MemClient hands it requests in memory). It
// implements wire.Handler. Shard state is built on demand — the
// coordinator's Build request names a (dataset, shard, of) triple, and the
// host cuts its local copy of the dataset (the cut is deterministic), so
// only sample batches ever cross the wire, never shard contents. A shard is
// a contiguous run of leaves in the copy's STR order (orderMemo.window):
// the host orders a copy once per (copy, fanout, record count), when it is
// added for the default fanout, however many of its shards it is asked to
// build, and a Build reads the dataset copy under dsMu.
package distr

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"storm/internal/data"
	"storm/internal/rtree"
	"storm/internal/wire"
)

type hostKey struct {
	ds    string
	shard uint32
}

// maxShards bounds the shards of a cluster: wire.Build.Of, which comes off
// the wire and sizes the order memo's per-shard table before any record is
// looked at, and the shard IDs a fault plan may name, whose ranges expand ID
// by ID. The record count is no bound — a coordinator cuts an empty dataset
// into as many shards as it has hosts — so the limit is a constant, far
// above any host pool and far below an allocation that hurts.
const maxShards = 1 << 16

// orderMemo is one dataset copy's STR order at one fanout, which the
// shards a host builds of the copy take their windows of. It is keyed by
// what the order depends on and a host can see change: the dataset copy,
// the fanout and the copy's record count when it was computed (the first
// half of a content epoch; mirrored inserts only ever append).
type orderMemo struct {
	ds     *data.Dataset
	fanout int
	n      int
	// of is the shard count the memo's windows are handed out for (0 until
	// the first Build claims one) and claimed marks the shards whose window
	// is handed out (both guarded by Host.mu). Leaves are windows of the
	// order that deletes edit in place, so no window goes to two trees: a
	// Build for a claimed shard — two coordinators rebuilding it at once —
	// or for another count starts a memo of its own.
	of      uint32
	claimed []bool
	// left counts windows not yet handed out (guarded by Host.mu).
	left int

	once  sync.Once
	order rtree.DatasetOrder
}

// shardFanout is the fanout a Build asks for: below 1 is the default, as
// everywhere.
func shardFanout(fanout int) int {
	if fanout < 1 {
		return rtree.DefaultFanout
	}
	return fanout
}

// newOrderMemo returns an unsorted memo for ds at fanout.
func newOrderMemo(ds *data.Dataset, fanout int) *orderMemo {
	return &orderMemo{ds: ds, fanout: shardFanout(fanout), n: ds.Len()}
}

// clone returns a sorted memo over a copy of m's entries, for a second host
// that shares m's dataset copy (Build's replica hosts): its shards' leaves
// must not be windows of the array m's shards edit.
func (m *orderMemo) clone() *orderMemo {
	c := newOrderMemo(m.ds, m.fanout)
	c.once.Do(func() {
		c.order = m.order
		c.order.Entries = slices.Clone(m.order.Entries)
	})
	return c
}

// window returns shard's run of leaves of the order cut into of shards: at
// fanout f with L leaves, shard s holds leaves [s·L/of, (s+1)·L/of), so
// every shard is within one leaf of the others' size and holds exactly the
// leaves the coordinator's own tree packs from the same order.
func (m *orderMemo) window(of, shard uint32) []data.Entry {
	f, es := m.fanout, m.order.Entries
	leaves := (len(es) + f - 1) / f
	lo := f * (int(shard) * leaves / int(of))
	hi := min(len(es), f*((int(shard)+1)*leaves/int(of)))
	return es[lo:hi:hi]
}

// Host serves shard requests for the datasets it holds.
type Host struct {
	// mu guards the maps; dsMu serializes dataset row appends (mirrored
	// inserts) against the reads of the dataset copy in Builds, in count
	// rounds and in the exclude-filtering of stream opens. Where both are
	// held, dsMu is taken first.
	mu       sync.Mutex
	dsMu     sync.RWMutex
	datasets map[string]*data.Dataset
	backends map[hostKey]*shardBackend
	// memos holds at most one order per dataset, and only until every
	// window has been handed out: the entries then live on in the shards
	// built from them, not in a second copy here. (A host asked for only
	// some of a dataset's shards, or none, keeps the order until a Build
	// with another key replaces the memo.)
	memos      map[string]*orderMemo
	partitions atomic.Uint64
}

// NewHost returns an empty host; add datasets before serving.
func NewHost() *Host {
	return &Host{
		datasets: make(map[string]*data.Dataset),
		backends: make(map[hostKey]*shardBackend),
		memos:    make(map[string]*orderMemo),
	}
}

// AddDataset registers a local dataset copy under its name. Shard hosts
// regenerate datasets from the same generator flags and seed as the
// coordinator, so both sides hold identical rows without shipping them.
// It also orders the copy at the default fanout, which every stock Build
// asks for: a shard host adds its datasets before it serves Builds, and
// sorts them while the coordinator is still starting.
func (h *Host) AddDataset(ds *data.Dataset) { h.add(newOrderMemo(ds, 0)) }

// add registers m's dataset copy with m as the memo its first Builds cut,
// sorting it first unless it is sorted.
func (h *Host) add(m *orderMemo) {
	h.sort(m)
	h.mu.Lock()
	h.datasets[m.ds.Name()] = m.ds
	h.memos[m.ds.Name()] = m
	h.mu.Unlock()
}

// sort computes m's order, once: the host's one way to order a dataset.
func (h *Host) sort(m *orderMemo) {
	m.once.Do(func() {
		h.partitions.Add(1)
		m.order = rtree.STROrderDataset(m.fanout, m.ds)
	})
}

// Shards returns how many shard backends the host currently serves.
func (h *Host) Shards() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.backends)
}

// Partitions returns how many times the host has ordered a dataset: one
// per (dataset, fanout, record count) it holds or was asked to build
// shards of, not one per Build.
func (h *Host) Partitions() uint64 { return h.partitions.Load() }

// backend resolves a shard-scoped request's target.
func (h *Host) backend(t wire.Target) *shardBackend {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.backends[hostKey{ds: t.DS, shard: t.Shard}]
}

func errUnknownShard(t wire.Target) wire.Msg {
	return &wire.Error{Code: wire.ErrCodeUnknownShard, Msg: fmt.Sprintf("shard %d of dataset %q not built on this host", t.Shard, t.DS)}
}

// Handle implements wire.Handler: it dispatches one request and returns
// its response (an *wire.Error for failures — transports carry it back
// like any other message).
func (h *Host) Handle(m wire.Msg) wire.Msg {
	switch req := m.(type) {
	case *wire.Ping:
		return &wire.Pong{}

	case *wire.Build:
		return h.handleBuild(req)

	case *wire.Count:
		b := h.backend(req.Target)
		if b == nil {
			return errUnknownShard(req.Target)
		}
		// The predicate compiles against, and node summaries a recent
		// insert invalidated are recomputed from, the dataset copy that a
		// mirrored insert into a sibling shard may append to.
		h.dsMu.RLock()
		ok, err := b.count(req)
		h.dsMu.RUnlock()
		if err != nil {
			return &wire.Error{Code: wire.ErrCodeBadRequest, Msg: fmt.Sprintf("count predicate: %v", err)}
		}
		return ok

	case *wire.Open:
		b := h.backend(req.Target)
		if b == nil {
			return errUnknownShard(req.Target)
		}
		h.dsMu.RLock()
		n, err := b.open(req.Stream, req.Query, req.Seed, req.Exclude, req.Where, req.Window)
		h.dsMu.RUnlock()
		if err != nil {
			return &wire.Error{Code: wire.ErrCodeBadRequest, Msg: fmt.Sprintf("open predicate: %v", err)}
		}
		return &wire.OpenOK{N: uint64(n)}

	case *wire.Fetch:
		b := h.backend(req.Target)
		if b == nil {
			return errUnknownShard(req.Target)
		}
		ents, err := b.fetchScratch(req.Stream, int(req.N))
		if err != nil {
			return &wire.Error{Code: wire.ErrCodeUnknownStream, Msg: fmt.Sprintf("stream %d not open on shard %d of %q", req.Stream, req.Shard, req.DS)}
		}
		return &wire.Entries{Entries: ents}

	case *wire.Close:
		b := h.backend(req.Target)
		if b == nil {
			return errUnknownShard(req.Target)
		}
		b.closeStream(req.Stream)
		return &wire.CloseOK{}

	case *wire.Insert:
		return h.handleInsert(req)

	case *wire.Delete:
		b := h.backend(req.Target)
		if b == nil {
			return errUnknownShard(req.Target)
		}
		return &wire.DeleteOK{Found: b.delete(data.Entry{ID: req.ID, Pos: req.Pos})}

	default:
		return &wire.Error{Code: wire.ErrCodeBadRequest, Msg: fmt.Sprintf("unexpected request kind %v", m.WireKind())}
	}
}

// handleBuild materializes one shard of a local dataset. Rebuilding an
// already-built shard is idempotent (the coordinator re-issues Build
// after an unknown-shard error, e.g. when this process restarted); the
// existing backend — including any post-build inserts — answers. Every
// answer reads the dataset copy — a new shard's length, positions and
// attribute columns, a built one's columns behind its envelope — while a
// mirrored insert into a sibling shard may append to it, so the whole
// Build holds dsMu for reading.
func (h *Host) handleBuild(req *wire.Build) wire.Msg {
	key := hostKey{ds: req.DS, shard: req.Shard}
	h.dsMu.RLock()
	defer h.dsMu.RUnlock()
	h.mu.Lock()
	ds, ok := h.datasets[req.DS]
	if !ok {
		h.mu.Unlock()
		return &wire.Error{Code: wire.ErrCodeUnknownDataset, Msg: fmt.Sprintf("dataset %q not on this host", req.DS)}
	}
	if b, built := h.backends[key]; built {
		h.mu.Unlock()
		return rebuilt(b, req)
	}
	h.mu.Unlock()

	if req.Of < 1 || req.Shard >= req.Of || req.Of > maxShards {
		return &wire.Error{Code: wire.ErrCodeBadRequest, Msg: fmt.Sprintf("shard %d of %d out of range", req.Shard, req.Of)}
	}
	m := h.claim(ds, int(req.Fanout), req.Of, req.Shard)
	sh, err := buildShard(ds, m.window(req.Of, req.Shard), m.order.Bounds, int(req.Shard), m.fanout, req.Seed)
	if err != nil {
		return &wire.Error{Code: wire.ErrCodeGeneric, Msg: err.Error()}
	}

	h.mu.Lock()
	defer h.mu.Unlock()
	if b, built := h.backends[key]; built {
		// A concurrent Build for the same shard won the race; answer from
		// the established backend so streams opened on it stay valid.
		return rebuilt(b, req)
	}
	b := newShardBackend(sh, ds, req.Of, m.fanout)
	h.backends[key] = b
	return b.built()
}

// rebuilt answers a Build for a shard the host already serves. The same
// shard count and fanout get the built shard. Another of either is
// refused: the shard holds another run of leaves than the one asked for,
// and serving it would hand the coordinator records that overlap its other
// shards'. Seed is not compared — it changes which seeded stream the shard
// serves, not which records it holds.
func rebuilt(b *shardBackend, req *wire.Build) wire.Msg {
	if b.of != req.Of {
		return &wire.Error{Code: wire.ErrCodeBadRequest, Msg: fmt.Sprintf("shard %d of %q is built as one of %d shards, not %d", req.Shard, req.DS, b.of, req.Of)}
	}
	if f := shardFanout(int(req.Fanout)); b.fanout != f {
		return &wire.Error{Code: wire.ErrCodeBadRequest, Msg: fmt.Sprintf("shard %d of %q is built at fanout %d, not %d", req.Shard, req.DS, b.fanout, f)}
	}
	return b.built()
}

// claim returns the memo whose order shard's window of of is cut from,
// sorted. The first Build of a (dataset, fanout, record count) takes the
// order AddDataset computed, or orders the copy afresh at another fanout or
// once it has grown; concurrent and later Builds for sibling shards wait
// for that one order and take their own windows. Caller holds dsMu for
// reading, which is what keeps the record count, and so the key, fixed
// while the Build runs.
func (h *Host) claim(ds *data.Dataset, fanout int, of, shard uint32) *orderMemo {
	name, n, f := ds.Name(), ds.Len(), shardFanout(fanout)
	h.mu.Lock()
	m := h.memos[name]
	if m == nil || m.ds != ds || m.fanout != f || m.n != n || (m.of != 0 && (m.of != of || m.claimed[shard])) {
		m = newOrderMemo(ds, f)
		h.memos[name] = m
	}
	if m.of == 0 {
		m.of, m.claimed, m.left = of, make([]bool, of), int(of)
	}
	m.claimed[shard] = true
	if m.left--; m.left == 0 && h.memos[name] == m {
		delete(h.memos, name)
	}
	h.mu.Unlock()
	h.sort(m)
	return m
}

// handleInsert mirrors one inserted record into the owning shard's index
// and appends the row (with its attributes) to the host's dataset copy so
// record IDs keep addressing the attribute columns. An in-process host
// shares the coordinator's dataset, which already holds the row, so it
// appends nothing. Inserts routed to shards on other hosts leave gaps
// here; those IDs are padded with placeholder rows that no local shard
// ever references (the record is on no local index, so no stream can emit
// or exclude it).
func (h *Host) handleInsert(req *wire.Insert) wire.Msg {
	b := h.backend(req.Target)
	if b == nil {
		return errUnknownShard(req.Target)
	}
	h.dsMu.Lock()
	ds := b.ds
	if id := data.ID(ds.Len()); id <= req.ID {
		for ; id < req.ID; id++ {
			ds.Append(data.Row{})
		}
		row := data.Row{Pos: req.Pos}
		if len(req.Num) > 0 {
			row.Num = make(map[string]float64, len(req.Num))
			for _, a := range req.Num {
				row.Num[a.Name] = a.Val
			}
		}
		if len(req.Str) > 0 {
			row.Str = make(map[string]string, len(req.Str))
			for _, a := range req.Str {
				row.Str[a.Name] = a.Val
			}
		}
		ds.Append(row)
	}
	h.dsMu.Unlock()
	b.insert(data.Entry{ID: req.ID, Pos: req.Pos})
	return &wire.InsertOK{}
}

// insertAttrs assembles the attribute payload of a mirrored insert from
// the coordinator's dataset columns, sorted by name so the encoding is
// canonical.
func insertAttrs(ds *data.Dataset, id data.ID) (num []wire.NumAttr, str []wire.StrAttr) {
	ncols := append([]string(nil), ds.NumericColumns()...)
	sort.Strings(ncols)
	for _, name := range ncols {
		col, err := ds.NumericColumn(name)
		if err != nil || id >= data.ID(len(col)) {
			continue
		}
		num = append(num, wire.NumAttr{Name: name, Val: col[id]})
	}
	scols := append([]string(nil), ds.StringColumns()...)
	sort.Strings(scols)
	for _, name := range scols {
		col, err := ds.StringColumn(name)
		if err != nil || id >= data.ID(len(col)) {
			continue
		}
		str = append(str, wire.StrAttr{Name: name, Val: col[id]})
	}
	return num, str
}

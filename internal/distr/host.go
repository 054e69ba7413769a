// Host is the shard server, the one request handler every shard copy runs
// behind: it owns the shard backends of one stormd -role=shard process (a
// wire.Server serves it over TCP) or of one in-process shard host of a
// Build cluster (a wire.MemClient hands it requests in memory). It
// implements wire.Handler. Shard state is built on demand: the
// coordinator's Build request names a (dataset, shard, of) triple and the
// shard's records, as IDs into the host's copy of the dataset in the
// coordinator's leaf order. The host packs them as they come and sorts
// nothing, so only record IDs and sample batches ever cross the wire,
// never shard contents. A Build reads the dataset copy under dsMu.
package distr

import (
	"fmt"
	"sort"
	"sync"

	"storm/internal/data"
	"storm/internal/rtree"
	"storm/internal/wire"
)

type hostKey struct {
	ds    string
	shard uint32
}

// maxShards bounds the shards of a cluster: wire.Build.Of, which comes off
// the wire, and the shard IDs a fault plan may name, whose ranges expand ID
// by ID. The record count is no bound — a coordinator cuts an empty dataset
// into as many shards as it has hosts — so the limit is a constant, far
// above any host pool and far below an allocation that hurts.
const maxShards = 1 << 16

// shardFanout is the fanout a Build asks for: below 1 is the default, as
// everywhere.
func shardFanout(fanout int) int {
	if fanout < 1 {
		return rtree.DefaultFanout
	}
	return fanout
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
}

// NewHost returns an empty host; add datasets before serving.
func NewHost() *Host {
	return &Host{
		datasets: make(map[string]*data.Dataset),
		backends: make(map[hostKey]*shardBackend),
	}
}

// AddDataset registers a local dataset copy under its name. Shard hosts
// regenerate datasets from the same generator flags and seed as the
// coordinator, so both sides hold identical rows without shipping them.
func (h *Host) AddDataset(ds *data.Dataset) {
	h.mu.Lock()
	h.datasets[ds.Name()] = ds
	h.mu.Unlock()
}

// Shards returns how many shard backends the host currently serves.
func (h *Host) Shards() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.backends)
}

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
		n, err := b.open(req.Stream, req.Query, req.Seed, req.Exclude, req.Where)
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

// handleBuild materializes one shard of a local dataset from the records
// the Build names. Rebuilding an already-built shard is idempotent (the
// coordinator re-issues Build after an unknown-shard error, e.g. when this
// process restarted); the existing backend — including any post-build
// inserts — answers. Every answer reads the dataset copy — a new shard's
// positions and attribute columns, a built one's columns behind its
// envelope — while a mirrored insert into a sibling shard may append to
// it, so the whole Build holds dsMu for reading.
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
	window, err := entriesOf(ds, req.IDs)
	if err != nil {
		return &wire.Error{Code: wire.ErrCodeBadRequest, Msg: fmt.Sprintf("shard %d of %q: %v", req.Shard, req.DS, err)}
	}
	fanout := shardFanout(int(req.Fanout))
	sh, err := buildShard(ds, window, req.Bounds, int(req.Shard), fanout, req.Seed)
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
	b := newShardBackend(sh, ds, req.Of, fanout)
	h.backends[key] = b
	return b.built()
}

// entriesOf returns the entries of ds that ids name, in the order given.
// An ID past ds's length, or one named twice, is refused: the coordinator
// holds another copy of the dataset, or the request is corrupt.
func entriesOf(ds *data.Dataset, ids []data.ID) ([]data.Entry, error) {
	n := data.ID(ds.Len())
	seen := make([]uint64, (n+63)/64)
	out := make([]data.Entry, len(ids))
	for i, id := range ids {
		if id >= n {
			return nil, fmt.Errorf("record %d is past the host's %d records", id, n)
		}
		if seen[id/64]&(1<<(id%64)) != 0 {
			return nil, fmt.Errorf("record %d is named twice", id)
		}
		seen[id/64] |= 1 << (id % 64)
		out[i] = ds.Entry(id)
	}
	return out, nil
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

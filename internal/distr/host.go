// Host is the shard server, the one request handler every shard copy runs
// behind: it owns the shard backends of one stormd -role=shard process (a
// wire.Server serves it over TCP) or of one in-process shard host of a
// Build cluster (a wire.MemClient hands it requests in memory). It
// implements wire.Handler. Shard state is built on demand — the
// coordinator's Build request names a (dataset, shard, of) triple, and the
// host partitions its local copy of the dataset (partition is
// deterministic), so only sample batches ever cross the wire, never shard
// contents. The host partitions once per (dataset, of, record count),
// however many of the dataset's shards it is asked to build (partMemo),
// and a Build reads the dataset copy under dsMu.
package distr

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"storm/internal/data"
	"storm/internal/geo"
	"storm/internal/wire"
)

type hostKey struct {
	ds    string
	shard uint32
}

// maxBuildShards bounds wire.Build.Of, which comes off the wire and sizes
// the partition's per-shard tables before any record is looked at. The
// record count is no bound — a coordinator cuts an empty dataset into as
// many shards as it has hosts — so the limit is a constant, far above any
// host pool and far below an allocation that hurts.
const maxBuildShards = 1 << 16

// partMemo is one dataset's partition, computed by the first Build that
// asks for it and handed out a part per shard. It is keyed by what the
// partition depends on and a host can see change: the dataset copy, the
// shard count and the copy's record count when it was computed (the first
// half of a content epoch; mirrored inserts only ever append).
type partMemo struct {
	ds *data.Dataset
	of uint32
	n  int
	// claimed marks shards whose Build has this memo (guarded by Host.mu).
	// Claiming precedes computing, so a second Build for one shard — two
	// coordinators rebuilding it at once — never waits for a part that is
	// already gone: it starts a memo of its own.
	claimed []bool
	// left counts parts not yet handed out (guarded by Host.mu).
	left int

	once   sync.Once
	parts  [][]data.Entry
	bounds geo.Rect
}

// Host serves shard requests for the datasets it holds.
type Host struct {
	// mu guards the maps; dsMu serializes dataset row appends (mirrored
	// inserts) against the reads of the dataset copy in Builds and in the
	// exclude-filtering of stream opens. Where both are held, dsMu is
	// taken first.
	mu       sync.Mutex
	dsMu     sync.RWMutex
	datasets map[string]*data.Dataset
	backends map[hostKey]*shardBackend
	// memos holds at most one partition per dataset, and only until every
	// part has been handed out: the entries then live on in the shards
	// built from them, not in a second copy here. (A host asked for only
	// some of a dataset's shards keeps the rest until a Build with another
	// key replaces the memo.)
	memos      map[string]*partMemo
	partitions atomic.Uint64
}

// NewHost returns an empty host; add datasets before serving.
func NewHost() *Host {
	return &Host{
		datasets: make(map[string]*data.Dataset),
		backends: make(map[hostKey]*shardBackend),
		memos:    make(map[string]*partMemo),
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

// Partitions returns how many times the host has partitioned a dataset:
// one per (dataset, shard count, record count) it was asked to build
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
		return &wire.Pong{Shards: uint32(h.Shards())}

	case *wire.Build:
		return h.handleBuild(req)

	case *wire.Count:
		b := h.backend(req.Target)
		if b == nil {
			return errUnknownShard(req.Target)
		}
		n, err := b.count(req.Query, req.Where, req.Window)
		if err != nil {
			return &wire.Error{Code: wire.ErrCodeBadRequest, Msg: fmt.Sprintf("count predicate: %v", err)}
		}
		return &wire.CountOK{N: uint64(n)}

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

	case *wire.Summary:
		b := h.backend(req.Target)
		if b == nil {
			return errUnknownShard(req.Target)
		}
		s, found := b.summary(req.Attr)
		return &wire.SummaryOK{
			Found:     found,
			Count:     uint64(s.Count),
			Sum:       s.Sum,
			Min:       s.Min,
			Max:       s.Max,
			NonFinite: uint64(s.NonFinite),
		}

	case *wire.Bounds:
		b := h.backend(req.Target)
		if b == nil {
			return errUnknownShard(req.Target)
		}
		return &wire.BoundsOK{Rect: b.bounds()}

	case *wire.Len:
		b := h.backend(req.Target)
		if b == nil {
			return errUnknownShard(req.Target)
		}
		return &wire.LenOK{N: uint64(b.length())}

	default:
		return &wire.Error{Code: wire.ErrCodeBadRequest, Msg: fmt.Sprintf("unexpected request kind %v", m.WireKind())}
	}
}

// handleBuild materializes one shard of a local dataset. Rebuilding an
// already-built shard is idempotent (the coordinator re-issues Build
// after an unknown-shard error, e.g. when this process restarted); the
// existing backend — including any post-build inserts — answers.
func (h *Host) handleBuild(req *wire.Build) wire.Msg {
	key := hostKey{ds: req.DS, shard: req.Shard}
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

	if req.Of < 1 || req.Shard >= req.Of || req.Of > maxBuildShards {
		return &wire.Error{Code: wire.ErrCodeBadRequest, Msg: fmt.Sprintf("shard %d of %d out of range", req.Shard, req.Of)}
	}
	// From here the Build reads the dataset copy — its length, positions
	// and attribute columns — while a mirrored insert into a sibling shard
	// that is already built may append to it.
	h.dsMu.RLock()
	defer h.dsMu.RUnlock()
	part, bounds := h.part(ds, req.Of, req.Shard)
	sh, err := buildShard(ds, part, int(req.Shard), bounds, int(req.Fanout), req.Seed)
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
	b := newShardBackend(sh, ds, req.Of)
	h.backends[key] = b
	return &wire.BuildOK{Count: uint64(b.length())}
}

// rebuilt answers a Build for a shard the host already serves. The same
// shard count gets the built shard. Another count is refused: the shard
// holds a part of a different partition, and serving it would hand the
// coordinator records that overlap its other shards'. Seed and Fanout are
// not compared — they change which seeded stream the shard serves, not
// which records it holds.
func rebuilt(b *shardBackend, req *wire.Build) wire.Msg {
	if b.of != req.Of {
		return &wire.Error{Code: wire.ErrCodeBadRequest, Msg: fmt.Sprintf("shard %d of %q is built as one of %d shards, not %d", req.Shard, req.DS, b.of, req.Of)}
	}
	return &wire.BuildOK{Count: uint64(b.length())}
}

// part returns one shard's part of the dataset's partition into of, and
// the bounds the partition was keyed over. The first Build of a (dataset,
// of, record count) computes the partition; concurrent and later Builds
// for sibling shards wait for it and take their own part. Caller holds
// dsMu for reading, which is what keeps the record count, and so the key,
// fixed while the Build runs.
func (h *Host) part(ds *data.Dataset, of, shard uint32) ([]data.Entry, geo.Rect) {
	name, n := ds.Name(), ds.Len()
	h.mu.Lock()
	m := h.memos[name]
	if m == nil || m.ds != ds || m.of != of || m.n != n || m.claimed[shard] {
		m = &partMemo{ds: ds, of: of, n: n, claimed: make([]bool, of), left: int(of)}
		h.memos[name] = m
	}
	m.claimed[shard] = true
	h.mu.Unlock()

	m.once.Do(func() {
		h.partitions.Add(1)
		m.parts, m.bounds = partition(ds.Entries(), int(of))
	})

	h.mu.Lock()
	defer h.mu.Unlock()
	part := m.parts[shard]
	m.parts[shard] = nil
	if m.left--; m.left == 0 && h.memos[name] == m {
		delete(h.memos, name)
	}
	return part, m.bounds
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

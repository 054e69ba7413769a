// The shard-server side of the RPC boundary: shardBackend owns one
// shard's index, its node attribute summaries and open sample streams. A
// Host (host.go) serves its backends to every coordinator — in-process
// shard hosts and shard processes behind TCP alike — so shard behavior is
// identical whichever transport carries the requests.
package distr

import (
	"fmt"
	"math"
	"sync"

	"storm/internal/data"
	"storm/internal/geo"
	"storm/internal/iosim"
	"storm/internal/pred"
	"storm/internal/rstree"
	"storm/internal/rtree"
	"storm/internal/stats"
	"storm/internal/wire"
)

// buildShard materializes one shard from its window of the dataset's STR
// order at fanout (leafRun): a local RS-tree packed from the window as it
// is, its leaves the coordinator's leaves over the same order,
// quantized over bounds (the dataset's, so every shard keys as the
// coordinator does), seeded seed + id*7919, with its node attribute
// summaries precomputed. The tree takes the window over.
func buildShard(ds *data.Dataset, window []data.Entry, bounds geo.Rect, id int, fanout int, seed int64) (*Shard, error) {
	idx, err := rstree.BuildSorted(window, rstree.Config{
		Fanout: fanout,
		Device: iosim.Discard,
		Bounds: bounds,
		Seed:   seed + int64(id)*7919,
	})
	if err != nil {
		return nil, fmt.Errorf("distr: building shard %d: %w", id, err)
	}
	attrs := rtree.NewSummaries(idx.Tree(), ds)
	attrs.Precompute()
	return &Shard{ID: id, index: idx, attrs: attrs}, nil
}

// backendStream is one open sample stream on a shard. Each stream has a
// single consumer (the coordinator query that opened it), so its scratch
// buffer for fetch responses is reused across rounds without copying.
type backendStream struct {
	mu sync.Mutex
	sp *rstree.Sampler
	// exclude filters out record IDs the coordinator already holds (set
	// only on a reopen after a shard restart); filtering a uniform
	// without-replacement stream leaves the complement uniform WOR.
	exclude map[data.ID]struct{}
	// scratch backs fetch responses (see Host): the coordinator copies a
	// response out before its next fetch on the stream.
	scratch []data.Entry
}

// fetch draws up to n samples into dst, skipping excluded IDs. Caller
// holds the stream lock and the backend's structure read lock.
func (st *backendStream) fetch(dst []data.Entry, n int) int {
	if len(st.exclude) == 0 {
		return st.sp.NextBatch(dst[:n], n)
	}
	got := 0
	for got < n {
		k := st.sp.NextBatch(dst[got:n], n-got)
		if k == 0 {
			break
		}
		w := got
		for _, e := range dst[got : got+k] {
			if _, ex := st.exclude[e.ID]; !ex {
				dst[w] = e
				w++
			}
		}
		got = w
	}
	return got
}

// shardBackend is one shard server's request-handling state: the shard
// itself, a structure lock replacing the old cluster-wide one (each shard
// is an independent server; the documented contract already allows a
// long-lived sampler to mix pre- and post-update state across batches),
// and the table of open sample streams.
type shardBackend struct {
	shard *Shard
	ds    *data.Dataset
	// of and fanout are the shard count and fanout of the cut the shard's
	// leaves were taken from; a Build for the same shard under another of
	// either is refused (see rebuilt).
	of     uint32
	fanout int
	// mu guards the shard's index and summaries: stream fetches and
	// counts hold the read side, insert/delete the write side.
	mu sync.RWMutex
	// smu guards the stream table only (never held across index work).
	smu     sync.Mutex
	streams map[uint64]*backendStream
}

func newShardBackend(sh *Shard, ds *data.Dataset, of uint32, fanout int) *shardBackend {
	return &shardBackend{shard: sh, ds: ds, of: of, fanout: fanout, streams: make(map[uint64]*backendStream)}
}

// compileWhere compiles the coordinator's predicate terms against the
// shard's dataset and binds them to the shard's local tree summaries.
// Caller holds the structure read lock. A nil result means no predicate.
func (b *shardBackend) compileWhere(where []pred.Term) (*rtree.TreeFilter, error) {
	if len(where) == 0 {
		return nil, nil
	}
	c, err := pred.Normalize(where).Compile(b.ds)
	if err != nil {
		return nil, err
	}
	return rtree.NewTreeFilter(c, b.shard.attrs), nil
}

// count answers a count round over the request's rectangle, which arrives
// already narrowed to any `LAST` window. A round that names a summarized
// attribute gets the moments of its present values too, read only while
// at most the request's limit of records qualify: the exact plan's
// descent, then its covered subtrees, under one read lock.
func (b *shardBackend) count(req *wire.Count) (*wire.CountOK, error) {
	q := req.Query
	b.mu.RLock()
	defer b.mu.RUnlock()
	f, err := b.compileWhere(req.Where)
	if err != nil {
		return nil, err
	}
	attr, ok := b.shard.attrs.AttrIndex(req.Attr)
	if !ok {
		if f == nil {
			return &wire.CountOK{N: uint64(b.shard.index.Count(q))}, nil
		}
		return &wire.CountOK{N: uint64(b.shard.index.Tree().CountWhere(q, f))}, nil
	}
	limit := int(min(req.Limit, math.MaxInt))
	m, covered := b.shard.attrs.Moments(q, f, attr, limit, nil)
	resp := &wire.CountOK{N: uint64(m.Records)}
	if m.Records <= limit {
		rest, _ := b.shard.attrs.CoveredValues(covered, attr, nil, nil)
		m.Values.Merge(rest)
		resp.Summed = true
		resp.Values = wire.Moments{N: uint64(m.Values.N()), Mean: m.Values.Mean(), M2: m.Values.M2()}
	}
	return resp, nil
}

// open creates sample stream id over q: count, then a sampler seeded
// stats.NewRNG(seed), so a stream is a function of the shard and the seed
// alone, whichever host serves it. Excluded IDs that still match q (and
// the predicate, when one rode along) are subtracted from the returned
// count; an excluded record deleted since it was emitted would make that
// subtraction overshoot by one, which only ends the stream early — the
// coordinator's defensive repair absorbs it. Like count's, q arrives
// already narrowed to any `LAST` window.
func (b *shardBackend) open(stream uint64, q geo.Rect, seed int64, exclude []data.ID, where []pred.Term) (int, error) {
	b.mu.RLock()
	f, err := b.compileWhere(where)
	if err != nil {
		b.mu.RUnlock()
		return 0, err
	}
	var n int
	if f == nil {
		n = b.shard.index.Count(q)
	} else {
		n = b.shard.index.Tree().CountWhere(q, f)
	}
	var exmap map[data.ID]struct{}
	if len(exclude) > 0 {
		exmap = make(map[data.ID]struct{}, len(exclude))
		for _, id := range exclude {
			if _, dup := exmap[id]; dup {
				continue
			}
			exmap[id] = struct{}{}
			if int(id) < b.ds.Len() && q.Contains(b.ds.Pos(id)) && f.Match(id) {
				n--
			}
		}
	}
	var sp *rstree.Sampler
	if n > 0 {
		sp = b.shard.index.SamplerWhere(q, stats.NewRNG(seed), f, nil)
	}
	b.mu.RUnlock()
	if n < 0 {
		n = 0
	}
	if sp == nil {
		return n, nil
	}
	b.smu.Lock()
	b.streams[stream] = &backendStream{sp: sp, exclude: exmap}
	b.smu.Unlock()
	return n, nil
}

func (b *shardBackend) lookup(stream uint64) *backendStream {
	b.smu.Lock()
	defer b.smu.Unlock()
	return b.streams[stream]
}

// fetchScratch draws up to n samples from the stream into its reusable
// scratch buffer, which the response carries: the stream's single consumer
// encodes or copies it before issuing another fetch.
func (b *shardBackend) fetchScratch(stream uint64, n int) ([]data.Entry, error) {
	st := b.lookup(stream)
	if st == nil {
		return nil, ErrUnknownStream
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if cap(st.scratch) < n {
		st.scratch = make([]data.Entry, n)
	}
	dst := st.scratch[:n]
	b.mu.RLock()
	got := st.fetch(dst, n)
	b.mu.RUnlock()
	return dst[:got], nil
}

func (b *shardBackend) closeStream(stream uint64) {
	b.smu.Lock()
	delete(b.streams, stream)
	b.smu.Unlock()
}

func (b *shardBackend) openStreams() int {
	b.smu.Lock()
	defer b.smu.Unlock()
	return len(b.streams)
}

func (b *shardBackend) insert(e data.Entry) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.shard.index.InsertBatch([]data.Entry{e})
}

func (b *shardBackend) delete(e data.Entry) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.shard.index.Delete(e)
}

// built answers a Build with the shard as it now stands: its tree's root
// box and the root digest of every summarized column, the envelope the
// coordinator keeps.
func (b *shardBackend) built() *wire.BuildOK {
	b.mu.RLock()
	defer b.mu.RUnlock()
	ok := &wire.BuildOK{Box: b.shard.index.Tree().Bounds()}
	names := b.shard.attrs.Attrs()
	for i, st := range b.shard.attrs.Root() {
		ok.Attrs = append(ok.Attrs, wire.AttrDigest{Name: names[i], AttrStats: st})
	}
	return ok
}

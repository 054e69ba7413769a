package bench

import (
	"fmt"
	"time"

	"storm/internal/data"
	"storm/internal/distr"
	"storm/internal/stats"
	"storm/internal/wire"
)

// A9Config sizes the transport ablation: the same batched sample drain
// through in-process shard hosts reached in memory and through shard hosts
// behind real TCP sockets.
type A9Config struct {
	N      int // dataset size
	K      int // samples drained per run
	Shards int
	Hosts  int // TCP shard-host processes (in-process listeners)
	Batch  int // NextBatch size per round
	Seed   int64
}

func (c A9Config) withDefaults() A9Config {
	if c.N == 0 {
		c.N = 200_000
	}
	if c.K == 0 {
		c.K = 20_000
	}
	if c.Shards == 0 {
		c.Shards = 8
	}
	if c.Hosts == 0 {
		c.Hosts = 4
	}
	if c.Batch == 0 {
		c.Batch = 256
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// A9Point is one transport's measurement.
type A9Point struct {
	Transport string // "loopback" or "tcp"
	Samples   int
	Rounds    int
	WallMS    float64
	// RoundUS is the mean wall time of one NextBatch round in µs — the
	// interactive-latency cost of putting sockets under the coordinator.
	RoundUS float64
	// Messages and SamplesMoved come from the cluster's NetStats: both
	// transports count one message per request and one per response
	// (comparable with ablation A4), and TCP adds the encoded bytes.
	Messages     uint64
	SamplesMoved uint64
	BytesSent    uint64
	BytesRecv    uint64
	// Identical reports whether this transport's sample stream was
	// byte-identical to the in-process baseline (always true for the
	// baseline itself).
	Identical bool
}

// A9 measures what cluster mode costs: the identical seeded drain runs
// through in-process shard hosts and through real TCP shard hosts, so the
// wall-clock delta is pure transport overhead — the sample streams are
// verified byte-identical, and the message counts equal, before the
// numbers are reported.
func A9(cfg A9Config) ([]A9Point, error) {
	cfg = cfg.withDefaults()
	ds := osmData(cfg.N, cfg.Seed)
	q := queryFor(ds, 0.2).Rect()
	dcfg := distr.Config{Shards: cfg.Shards, Seed: cfg.Seed, Obs: Obs}

	local, err := distr.Build(ds, dcfg)
	if err != nil {
		return nil, err
	}
	defer local.Close()

	hosts := make([]*wire.Server, cfg.Hosts)
	addrs := make([]string, cfg.Hosts)
	for i := range hosts {
		h := distr.NewHost()
		h.AddDataset(ds)
		srv, err := wire.NewServer("127.0.0.1:0", h)
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		hosts[i], addrs[i] = srv, srv.Addr()
	}
	remote, err := distr.BuildRemote(ds, dcfg, addrs)
	if err != nil {
		return nil, err
	}
	defer remote.Close()

	run := func(name string, c *distr.Cluster) (A9Point, []data.ID) {
		c.ResetNet()
		s := c.Sampler(q, stats.NewRNG(cfg.Seed))
		defer s.Close()
		buf := make([]data.Entry, cfg.Batch)
		ids := make([]data.ID, 0, cfg.K)
		rounds := 0
		start := time.Now()
		for len(ids) < cfg.K {
			want := cfg.Batch
			if rem := cfg.K - len(ids); rem < want {
				want = rem
			}
			got := s.NextBatch(buf, want)
			for _, e := range buf[:got] {
				ids = append(ids, e.ID)
			}
			rounds++
			if got < want {
				break // population exhausted
			}
		}
		elapsed := time.Since(start)
		net := c.Net()
		p := A9Point{
			Transport:    name,
			Samples:      len(ids),
			Rounds:       rounds,
			WallMS:       float64(elapsed.Microseconds()) / 1e3,
			Messages:     net.Messages,
			SamplesMoved: net.SamplesMoved,
			BytesSent:    net.BytesSent,
			BytesRecv:    net.BytesRecv,
		}
		if rounds > 0 {
			p.RoundUS = float64(elapsed.Microseconds()) / float64(rounds)
		}
		return p, ids
	}

	lp, lids := run("loopback", local)
	lp.Identical = true
	tp, tids := run("tcp", remote)
	tp.Identical = len(lids) == len(tids)
	for i := 0; tp.Identical && i < len(lids); i++ {
		tp.Identical = lids[i] == tids[i]
	}
	if !tp.Identical {
		return nil, fmt.Errorf("bench A9: TCP stream diverged from loopback under seed %d", cfg.Seed)
	}
	if lp.Messages != tp.Messages {
		return nil, fmt.Errorf("bench A9: TCP counted %d messages, loopback %d, under seed %d", tp.Messages, lp.Messages, cfg.Seed)
	}
	return []A9Point{lp, tp}, nil
}

package main

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"testing"
	"time"

	"storm/internal/data"
	"storm/internal/gen"
	"storm/internal/rtree"
	"storm/internal/wire"
)

// bootShard runs serveShard on two fresh loopback listeners and returns
// the HTTP base URL and the wire address; the test's end closes both.
func bootShard(t *testing.T, generate func() []*data.Dataset) (httpURL, wireAddr string) {
	t.Helper()
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wireLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		httpLn.Close()
		wireLn.Close()
	})
	go serveShard(httpLn, wireLn, generate)
	return "http://" + httpLn.Addr().String(), wireLn.Addr().String()
}

// loadedDatasets reads the datasets count off a shard host's /healthz,
// failing unless it answers 200.
func loadedDatasets(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Datasets int `json:"datasets"`
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body.Datasets
}

// TestShardQueuesBuildWhileGenerating boots one shard host whose dataset
// generation is held back: /healthz must answer while it waits, and Builds
// written to its wire port meanwhile must be answered once the data exists,
// with the BuildOK (box and attribute digests) a second host gives Builds
// sent after its generation finished. Each Build names its shard's half of
// the leaves of the coordinator's STR order, as a coordinator sends it.
func TestShardQueuesBuildWhileGenerating(t *testing.T) {
	datasets := func() []*data.Dataset { return []*data.Dataset{gen.OSM(gen.OSMConfig{N: 20_000, Seed: 3})} }
	order := rtree.STROrderDataset(16, datasets()[0])
	build := func(shard uint32) *wire.Build {
		leaves := (len(order.Entries) + 15) / 16
		run := order.Entries[16*(int(shard)*leaves/2) : min(len(order.Entries), 16*((int(shard)+1)*leaves/2))]
		ids := make([]data.ID, len(run))
		for i, e := range run {
			ids[i] = e.ID
		}
		return &wire.Build{Target: wire.Target{DS: "osm", Shard: shard}, Of: 2, Seed: 1, Fanout: 16, Bounds: order.Bounds, IDs: ids}
	}

	release := make(chan struct{})
	earlyURL, earlyWire := bootShard(t, func() []*data.Dataset {
		<-release
		return datasets()
	})
	if n := loadedDatasets(t, earlyURL); n != 0 {
		t.Fatalf("/healthz reports %d datasets before generation ran", n)
	}
	early := wire.NewTCPClient(earlyWire)
	defer early.Close()
	type result struct {
		resp wire.Msg
		err  error
	}
	results := make([]chan result, 2)
	for shard := range results {
		results[shard] = make(chan result, 1)
		go func() {
			resp, err := early.RoundTrip(build(uint32(shard)), 30*time.Second)
			results[shard] <- result{resp, err}
		}()
	}
	for early.Counts().MsgsSent < 2 {
		time.Sleep(time.Millisecond)
	}
	select {
	case r := <-results[0]:
		t.Fatalf("Build answered before the host had data: %#v, %v", r.resp, r.err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)

	lateURL, lateWire := bootShard(t, datasets)
	for loadedDatasets(t, lateURL) == 0 {
		time.Sleep(time.Millisecond)
	}
	late := wire.NewTCPClient(lateWire)
	defer late.Close()
	for shard, ch := range results {
		r := <-ch
		if r.err != nil {
			t.Fatalf("shard %d: queued Build: %v", shard, r.err)
		}
		if _, ok := r.resp.(*wire.BuildOK); !ok {
			t.Fatalf("shard %d: queued Build answered %#v", shard, r.resp)
		}
		want, err := late.RoundTrip(build(uint32(shard)), 30*time.Second)
		if err != nil {
			t.Fatalf("shard %d: Build after generation: %v", shard, err)
		}
		if !bytes.Equal(wire.AppendFrame(nil, r.resp), wire.AppendFrame(nil, want)) {
			t.Fatalf("shard %d: queued Build answered %#v, a Build after generation %#v", shard, r.resp, want)
		}
	}
	if n := loadedDatasets(t, earlyURL); n != 1 {
		t.Fatalf("/healthz reports %d datasets after generation, want 1", n)
	}
}

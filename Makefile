# Development targets for the STORM reproduction.

GO ?= go

# Packages with concurrency-sensitive code paths: shared indexes, the
# query engine, the I/O accounting, the HTTP server and the simulated
# cluster all run under -race.
RACE_PKGS := ./internal/rstree/ ./internal/lstree/ ./internal/sampling/ \
	./internal/engine/ ./internal/iosim/ ./internal/server/ ./internal/distr/ \
	./internal/obs/ ./internal/wire/ ./internal/ingest/

.PHONY: verify fmt vet build test test-benchmark race bench bench-batch docs-lint docs-check bench-obs bench-faults test-stats test-stats-failover fuzz-smoke test-cluster bench-cluster bench-pushdown bench-contracts bench-ingest bench-replication

verify: fmt vet build test test-benchmark race docs-lint

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The benchmark driver is its own module (benchmark/go.mod, replace storm
# => ../) and compiles against the engine, server and query APIs, so
# ./... above never sees it: vet and test it here, or an API change that
# breaks the benchmark of record merges unnoticed.
test-benchmark:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

bench:
	$(GO) test -run NONE -bench . -benchtime 1x .

# Batched-sampling comparison in benchstat-friendly form: pipe the output
# of two runs (before/after) into benchstat to quantify the fast path.
bench-batch:
	$(GO) test -run NONE -bench 'BenchmarkBatchedSampling' -benchtime 500x -count 5 -benchmem .

# Godoc discipline: every exported identifier in the observability-facing
# packages must have a doc comment (stdlib-only checker, see cmd/docslint).
docs-lint:
	$(GO) run ./cmd/docslint

# Documentation health: godoc discipline plus the markdown link checker
# over the user-facing docs (relative links and anchors must resolve; see
# cmd/linkcheck).
docs-check: docs-lint
	$(GO) run ./cmd/linkcheck README.md DESIGN.md QUERYLANG.md OPERATIONS.md EXPERIMENTS.md INGEST.md ROADMAP.md

# Metrics-on vs metrics-off cost of the instrumented batched query path;
# TestObsOverheadBudget enforces the <=2% budget when asked explicitly.
bench-obs:
	$(GO) test -run NONE -bench 'BenchmarkObsOverhead' -benchtime 200x -benchmem ./internal/engine/

# Fault ablation smoke: kill k of 8 shards mid-query and print the
# CI-width / latency impact table (see EXPERIMENTS.md A7).
bench-faults:
	$(GO) run ./cmd/stormbench -fig a7

# Statistical correctness harness: uniformity chi-square, CI coverage
# rate, and lost-mass-bound coverage over hundreds of seeded
# kill/degrade/recover runs (internal/stats/statcheck). Seeds are fixed
# in the tests, so a failure is a real regression, not sampling noise
# (false-positive budget ~1e-3 per check, see the statcheck package doc).
test-stats:
	$(GO) test -race -run 'TestStat' -v ./internal/distr/
	$(GO) test -race -run 'TestStat' -v ./internal/engine/
	$(GO) test -race -run 'TestStat' -v ./internal/ingest/
	$(GO) test -race ./internal/stats/statcheck/

# Failover slice of the statistical harness on its own: first-sample
# uniformity, CI coverage, mean unbiasedness and windowed-churn uniformity
# of post-failover streams (hundreds of seeded kill-one-replica runs; the
# full test-stats target includes these too).
test-stats-failover:
	$(GO) test -race -run 'TestStatFailover' -v ./internal/distr/

# Short fuzz passes over the operator/network-facing input surfaces: the
# fault-plan grammar (no panic, canonical round-trip), the wire codec (no
# panic on arbitrary frames, decode∘encode identity), and the query
# language's WHERE, contract and LAST-window grammars (no panic, canonical
# fixpoints).
# The checked-in corpora also run on plain `go test`.
fuzz-smoke:
	$(GO) test -run FuzzParseFaultPlan -fuzz FuzzParseFaultPlan -fuzztime 15s ./internal/distr/
	$(GO) test -run FuzzWireCodec -fuzz FuzzWireCodec -fuzztime 15s ./internal/wire/
	$(GO) test -run FuzzParseWhere -fuzz FuzzParseWhere -fuzztime 15s ./internal/query/
	$(GO) test -run FuzzParseContract -fuzz FuzzParseContract -fuzztime 15s ./internal/query/
	$(GO) test -run FuzzParseWindow -fuzz FuzzParseWindow -fuzztime 15s ./internal/query/

# Real-process cluster smoke: build stormd, spawn 4 -role=shard processes
# plus a coordinator, query over HTTP, kill one shard host mid-stream and
# assert the NDJSON stream degrades, then restart the host and assert the
# cluster re-admits its shards (see cmd/stormd/cluster_test.go).
test-cluster:
	STORM_CLUSTER_TEST=1 $(GO) test -run TestClusterSmoke -v -timeout 300s ./cmd/stormd/

# Transport ablation: the identical seeded drain through the loopback
# cluster vs real TCP shard hosts (EXPERIMENTS.md A9).
bench-cluster:
	$(GO) run ./cmd/stormbench -fig a9

# Predicate-pushdown ablation: node-summary pruning vs the rejection
# baseline across predicate selectivities, plus the loopback-vs-TCP
# byte-identity check of the distributed pushdown stream
# (EXPERIMENTS.md A10).
bench-pushdown:
	$(GO) run ./cmd/stormbench -fig a10

# Contract ablation: ERROR/WITHIN accuracy-latency contracts across error
# targets and deadlines — met/degraded/missed split and latency
# percentiles — vs the uncapped snapshot-stream baseline
# (EXPERIMENTS.md A11).
bench-contracts:
	$(GO) run ./cmd/stormbench -fig a11

# Streaming-ingest ablation: sustained insert throughput through the
# sharded ingest buffer vs concurrent LAST-windowed query latency, across
# buffer-shard counts (EXPERIMENTS.md A12).
bench-ingest:
	$(GO) run ./cmd/stormbench -fig a12

# Replication ablation: R=1 degradation vs R=2 failover when the query's
# hottest shard loses a copy mid-stream (EXPERIMENTS.md A13).
bench-replication:
	$(GO) run ./cmd/stormbench -fig a13

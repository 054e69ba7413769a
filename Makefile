# Development targets for the STORM reproduction.

GO ?= go

# Packages with concurrency-sensitive code paths: the bulk-load sorts
# (rtree.STROrder spawns goroutines), shared indexes, the query engine,
# the I/O accounting, the HTTP server and the in-process shard hosts all
# run under -race.
RACE_PKGS := ./internal/rtree/ ./internal/rstree/ ./internal/lstree/ ./internal/sampling/ \
	./internal/engine/ ./internal/iosim/ ./internal/server/ ./internal/distr/ \
	./internal/obs/ ./internal/wire/ ./internal/ingest/

.PHONY: verify fmt vet build test test-benchmark race bench bench-batch docs-lint docs-check bench-obs fig test-stats fuzz-smoke test-cluster

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
# packages must have a doc comment; and the document caps: CHANGES.md
# entries from 31 on are one paragraph of <= 150 words, DESIGN.md stays
# within 72 KiB (stdlib-only checker, see cmd/docslint).
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

# One figure or ablation table of cmd/stormbench: `make fig FIG=a10`
# (3a 3b 5 6a 6b a1..a13, or all; EXPERIMENTS.md describes each).
FIG ?= all
fig:
	$(GO) run ./cmd/stormbench -fig $(FIG)

# Statistical correctness harness over hundreds of seeded
# kill/degrade/recover/failover runs (internal/stats/statcheck), each
# property at the layer that owns it: stream uniformity (first-sample
# chi-square) in internal/distr, which moves the samples; CI coverage,
# unbiasedness and lost-mass-bound coverage in internal/engine, through
# Handle.Estimate — the one place samples become an answer — beside the
# LAST-window suite, which resolves windows there too. Seeds are fixed
# in the tests, so a failure is a real regression, not sampling noise
# (false-positive budget ~1e-3 per check, see the statcheck package doc).
# -run TestStat takes in the failover slice (TestStatFailover*) too.
test-stats:
	$(GO) test -race -run 'TestStat' -v ./internal/distr/
	$(GO) test -race -run 'TestStat' -v ./internal/engine/
	$(GO) test -race ./internal/stats/statcheck/

# Short fuzz passes over the operator/network-facing input surfaces: the
# fault-plan grammar (no panic, canonical round-trip), the wire codec (no
# panic on arbitrary frames, decode∘encode identity), the dataset snapshot
# decoder (no panic on arbitrary bytes, decode∘encode identity), the query
# language's WHERE, contract and LAST-window grammars (no panic, canonical
# fixpoints) — over the Hilbert key of any three floats, which must be
# the generic transform's (every shard boundary and page ID hangs off it),
# over the MBR of any rectangle and point, which must be the
# math.Min/math.Max one bit for bit (every node MBR hangs off it), over the
# STR order of any list (NaN, ±Inf and ±0 included), which must be the
# reference's (coordinate, record ID) order on both sides of the radix
# cutoff (every bulk-loaded page hangs off it), and over
# one leaf of any query box, positions, values and column length, whose
# face-only counts must be in's and Compiled.Match's.
# The checked-in corpora also run on plain `go test`.
fuzz-smoke:
	$(GO) test -run FuzzParseFaultPlan -fuzz FuzzParseFaultPlan -fuzztime 15s ./internal/distr/
	$(GO) test -run FuzzWireCodec -fuzz FuzzWireCodec -fuzztime 15s ./internal/wire/
	$(GO) test -run FuzzReadSnapshot -fuzz FuzzReadSnapshot -fuzztime 15s ./internal/data/
	$(GO) test -run FuzzParseWhere -fuzz FuzzParseWhere -fuzztime 15s ./internal/query/
	$(GO) test -run FuzzParseContract -fuzz FuzzParseContract -fuzztime 15s ./internal/query/
	$(GO) test -run FuzzParseWindow -fuzz FuzzParseWindow -fuzztime 15s ./internal/query/
	$(GO) test -run FuzzValue3 -fuzz FuzzValue3 -fuzztime 15s ./internal/hilbert/
	$(GO) test -run FuzzExtendPoint -fuzz FuzzExtendPoint -fuzztime 15s ./internal/geo/
	$(GO) test -run FuzzSTROrder -fuzz FuzzSTROrder -fuzztime 15s ./internal/rtree/
	$(GO) test -run FuzzCountLeaf -fuzz FuzzCountLeaf -fuzztime 15s ./internal/rtree/

# Real-process cluster smoke: build stormd, spawn 4 -role=shard processes
# plus a coordinator, query over HTTP, kill one shard host mid-stream and
# assert the NDJSON stream degrades, then restart the host and assert the
# cluster re-admits its shards (see cmd/stormd/cluster_test.go).
test-cluster:
	STORM_CLUSTER_TEST=1 $(GO) test -run TestClusterSmoke -v -timeout 300s ./cmd/stormd/

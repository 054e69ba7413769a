package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// BENCHMARK.json at the repository root is the single definition of what the
// benchmark reports: the workloads, the end-to-end metrics with the bound each
// may worsen by, and the per-layer metrics. The benchmark reads it at start-up
// (loadSpec) and a unit test holds the names it emits to the file's.

// metricSpec names one reported number. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts as
// a regression; per-layer metrics carry none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`
}

// contract is BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	// EndToEnd are the numbers an untraced run reports and the driver holds
	// to their bounds; PerLayer those of the traced run, which have none.
	// The numbers measured at the client socket (clientMetrics) may sit in
	// either list: the file decides which of them gate.
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// spec is the loaded contract.
var spec contract

// loadSpec reads root/BENCHMARK.json into spec.
func loadSpec(root string) error {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var c contract
	if err := dec.Decode(&c); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	spec = c
	return nil
}

// stmtKind selects the statement generator of a phase.
type stmtKind int

const (
	// stmtZoom streams tight-error aggregates over pool regions.
	stmtZoom stmtKind = iota
	// stmtDashboard sends one-shot contracts with attribute predicates.
	stmtDashboard
	// stmtWindow streams aggregates over the trailing LAST 60s window.
	stmtWindow
	// stmtDistributed streams through the shard cluster.
	stmtDistributed
)

// phaseKind names one of the three phases every workload runs.
type phaseKind int

const (
	// phaseRead: both connections run queries closed-loop, no writes.
	phaseRead phaseKind = iota
	// phaseMixed: one connection posts records on a fixed open-loop
	// schedule, the other runs queries closed-loop.
	phaseMixed
	// phaseSaturate: one connection posts a fixed number of records as
	// fast as they are acknowledged; timed until all are queryable.
	phaseSaturate
)

// phaseSpec is one phase of a workload and its share of -seconds.
type phaseSpec struct {
	Kind  phaseKind
	Share float64
}

// workloadSpec is one traffic mix against one stormd topology.
type workloadSpec struct {
	// Name is the workload's name in BENCHMARK.json, which also records why
	// it exists.
	Name string
	// OSM is the number of preloaded osm records; Pool the simulated
	// buffer-pool pages (0 = I/O simulation off).
	OSM, Pool int
	// Cluster spawns two -role=shard hosts and a -replicas 2 coordinator.
	Cluster bool
	// Read and Mixed choose the statements of the read-only phase and of
	// the query connection during paced ingest.
	Read, Mixed stmtKind
	Phases      []phaseSpec
	// PacedRPS is the open-loop ingest rate of the mixed phase, a fifth to a
	// quarter of what the topology sustains: drains then hold the write lock
	// about a quarter of the time, so the median query is one that did not
	// wait for a drain and rw_query_p50_ms does not flip between the blocked
	// and the unblocked mode from run to run. SaturateRPS is the sustained
	// rate, used only to size the saturation phase's fixed record count so
	// it lasts about its share of -seconds on the seed commit.
	PacedRPS, SaturateRPS int
	// PostRecords is the number of NDJSON records per POST body, sized so
	// that the paced phase sends 50 POSTs a second: 200 or more fresh-lag
	// samples a run, enough to report their p95.
	PostRecords int
}

// workloads are the four traffic mixes of record. All run the same three
// phases; they differ in topology, statements and how -seconds is shared.
var workloads = []workloadSpec{
	{
		Name: "zoom-stream",
		OSM:  500_000, Pool: 2048,
		Read: stmtZoom, Mixed: stmtZoom,
		Phases:   []phaseSpec{{phaseRead, 0.5}, {phaseMixed, 0.3}, {phaseSaturate, 0.2}},
		PacedRPS: 15_000, SaturateRPS: 80_000, PostRecords: 300,
	},
	{
		Name: "dashboard-contract",
		OSM:  500_000, Pool: 0,
		Read: stmtDashboard, Mixed: stmtDashboard,
		Phases:   []phaseSpec{{phaseRead, 0.5}, {phaseMixed, 0.3}, {phaseSaturate, 0.2}},
		PacedRPS: 15_000, SaturateRPS: 80_000, PostRecords: 300,
	},
	{
		Name: "firehose-mixed",
		OSM:  500_000, Pool: 2048,
		Read: stmtWindow, Mixed: stmtWindow,
		Phases:   []phaseSpec{{phaseMixed, 0.45}, {phaseSaturate, 0.3}, {phaseRead, 0.25}},
		PacedRPS: 15_000, SaturateRPS: 80_000, PostRecords: 300,
	},
	{
		Name: "cluster-tcp-r2",
		OSM:  250_000, Pool: 0, Cluster: true,
		Read: stmtDistributed, Mixed: stmtDistributed,
		Phases:   []phaseSpec{{phaseRead, 0.45}, {phaseMixed, 0.3}, {phaseSaturate, 0.25}},
		PacedRPS: 1_000, SaturateRPS: 4_000, PostRecords: 20,
	},
}

// Fixed sizes of the generated inputs and of the untimed work around the
// measured window.
const (
	// datasetSeed seeds internal/gen for the preloaded osm dataset, in
	// stormd and in the benchmark's own brute-force truth. The preloaded
	// data is part of the topology; -seed varies the inputs sent to it.
	datasetSeed = 1
	// poolRegions is the size of the seeded region pool.
	poolRegions = 256
	// warmupStatements is the fixed number of read-phase statements each
	// set-up sends after the exact-COUNT checks, so warm-up is fixed work
	// and lazy initialisation moved into it shows in setup_s.
	warmupStatements = 128
	// setupRepeats is how many times a run spawns and warms the topology;
	// setup_s is the median, the last instance serves the measured window.
	setupRepeats = 5
	// clients is the number of HTTP connections (= nproc on the reference
	// box); every phase uses exactly this many.
	clients = 2
	// traceInputs is the number of generated inputs the traced run replays.
	traceInputs = 300
	// startupTimeout bounds spawn -> /healthz ok.
	startupTimeout = 60 * time.Second
	// coverFloor is the lowest acceptable ci_cover_rate of a run.
	coverFloor = 0.93
)

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

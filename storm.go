// Package storm is a Go implementation of STORM — Spatio-Temporal Online
// Reasoning and Management of large spatio-temporal data (Christensen et
// al., SIGMOD 2015).
//
// STORM answers analytical queries over spatio-temporal data *online*:
// instead of scanning every matching record, it draws a stream of uniform
// random samples from the query range through purpose-built sampling
// indexes (the LS-tree and RS-tree) and maintains unbiased estimates whose
// confidence intervals tighten continuously. The user — or a target
// accuracy, or a time budget — decides when to stop.
//
// # Quick start
//
//	db := storm.Open(storm.Config{Seed: 1})
//	ds := storm.GenerateOSM(storm.OSMConfig{N: 1_000_000, Seed: 1})
//	h, _ := db.Register(ds, storm.IndexOptions{})
//
//	q := storm.Range{MinX: -112.2, MinY: 40.3, MaxX: -111.6, MaxY: 41.0,
//	    MinT: 0, MaxT: 86400 * 90}
//	snap, _ := h.Estimate(context.Background(), q, storm.Options{
//	    Kind: storm.Avg, Attr: "altitude", TargetRelError: 0.01,
//	})
//	fmt.Println(snap) // AVG ≈ 1430 ± 14 (95% confidence, 2176 samples)
//
// For interactive exploration use EstimateOnline, which streams snapshots
// and honors context cancellation, or a Session, which cancels the running
// query whenever a new one starts.
//
// # Concurrency
//
// Queries are concurrent: any number of goroutines may run estimates,
// analytics or Sample calls against one Handle simultaneously — the
// indexes share immutable state and publish their lazy sample buffers
// copy-on-write, while every query keeps its own RNG, cursors and I/O
// counters. Insert, Delete and DeleteRange briefly take the handle's write
// lock and serialize against in-flight queries, so updates stay correct
// without stopping the query stream. Two queries given the same explicit
// Options.Seed return identical sample streams whether they run serially
// or concurrently.
//
// The package also exposes STORM's online analytics (KDE, clustering,
// trajectory reconstruction, short-text terms), its keyword query language
// (Exec), the data connector (ImportCSV and friends), and the synthetic
// workload generators used by the benchmark harness.
package storm

import (
	"context"
	"io"

	"storm/internal/analytics"
	"storm/internal/connector"
	"storm/internal/data"
	"storm/internal/distr"
	"storm/internal/engine"
	"storm/internal/estimator"
	"storm/internal/gen"
	"storm/internal/geo"
	"storm/internal/pred"
	"storm/internal/query"
	"storm/internal/sampling"
)

// Core types re-exported from the engine and its substrates. The aliases
// make the root package the single import a downstream user needs.
type (
	// Config controls engine-wide behaviour (seed, buffer pool, fanout).
	Config = engine.Config
	// Engine manages datasets, indexes and query execution.
	Engine = engine.Engine
	// Handle is a registered, indexed dataset.
	Handle = engine.Handle
	// Session serializes interactive queries, cancelling the previous
	// one when a new one starts.
	Session = engine.Session
	// IndexOptions selects which sampling indexes Register builds.
	IndexOptions = engine.IndexOptions
	// Options controls one online query: estimates, GROUP BY and the
	// analytic tasks all take it.
	Options = engine.Options
	// Snapshot is one progress report of an online query.
	Snapshot = engine.Snapshot
	// Progress is the driver-stamped header every snapshot type embeds:
	// timing, serving sampler, termination, window and stream health.
	Progress = engine.Progress
	// KDEOptions configures online kernel density estimation.
	KDEOptions = engine.KDEOptions
	// KDESnapshot is a KDE progress report.
	KDESnapshot = engine.KDESnapshot
	// TermsSnapshot is a short-text analysis progress report.
	TermsSnapshot = engine.TermsSnapshot
	// TrajectorySnapshot is a trajectory reconstruction progress report.
	TrajectorySnapshot = engine.TrajectorySnapshot
	// ClusterSnapshot is a clustering progress report.
	ClusterSnapshot = engine.ClusterSnapshot
	// GroupsSnapshot is a group-by progress report.
	GroupsSnapshot = engine.GroupsSnapshot
	// AggSpec names one aggregate of a multi-aggregate query.
	AggSpec = engine.AggSpec
	// MultiSnapshot is a joint multi-aggregate progress report.
	MultiSnapshot = engine.MultiSnapshot
	// Plan is the optimizer's EXPLAIN output.
	Plan = engine.Plan
	// Method selects a sampling strategy.
	Method = engine.Method
	// Contract is a per-query accuracy/latency guarantee request
	// (relative-error target at a confidence, optional deadline) for
	// Handle.EstimateContract.
	Contract = engine.Contract
	// ContractPlan is the planner's prediction for a contract query:
	// sample budget, predicted time, and feasibility under the deadline.
	ContractPlan = engine.ContractPlan
	// ContractResult is the single final answer of a contract query,
	// graded against the requested guarantee.
	ContractResult = engine.ContractResult
	// ContractStatus grades a contract answer (met, degraded, missed).
	ContractStatus = engine.ContractStatus
	// PredTerm is one attribute interval of a WHERE predicate
	// (Options.Where is a conjunction of these).
	PredTerm = pred.Term
	// PushdownStrategy overrides the planner's pushdown-vs-rejection
	// choice for a WHERE predicate (Options.Pushdown).
	PushdownStrategy = engine.PushdownStrategy

	// ShardCluster is the simulated distributed deployment behind a
	// Handle registered with IndexOptions.Shards > 0.
	ShardCluster = distr.Cluster
	// FaultPlan scripts deterministic per-shard fault injection for a
	// sharded registration (IndexOptions.Faults).
	FaultPlan = distr.FaultPlan
	// ShardFaultPlan scripts the faults of one shard.
	ShardFaultPlan = distr.ShardFaultPlan
	// FaultStats is a snapshot of fault-injection activity.
	FaultStats = distr.FaultStats

	// Range is a spatio-temporal query range.
	Range = geo.Range
	// Vec is a point in (x, y, t) space.
	Vec = geo.Vec

	// Dataset is the columnar record store indexes are built over.
	Dataset = data.Dataset
	// Row carries one record during appends and imports.
	Row = data.Row
	// Entry is an (ID, position) pair returned by samplers.
	Entry = data.Entry

	// Estimate is a point-in-time aggregate estimate with its CI.
	Estimate = estimator.Estimate
	// Kind identifies an aggregate (Avg, Sum, Count, Min, Max).
	Kind = estimator.Kind

	// DensityMap is an online KDE snapshot.
	DensityMap = analytics.DensityMap
	// Path is a reconstructed trajectory.
	Path = analytics.Path
	// TermSnapshot is a short-text term-frequency snapshot.
	TermSnapshot = analytics.TermSnapshot
	// Clustering is an online k-means snapshot.
	Clustering = analytics.Clustering

	// Mode selects with/without-replacement sampling. Every method draws
	// without replacement; WithReplacement serves its draws through one
	// exact adapter over that stream (any method but MethodDistributed).
	Mode = sampling.Mode

	// Source is an external data source for the connector.
	Source = connector.Source
	// Mapping tells imports which columns hold coordinates.
	Mapping = connector.Mapping
	// ImportResult reports what an import did.
	ImportResult = connector.ImportResult
	// Schema is a discovered source schema.
	Schema = connector.Schema

	// OSMConfig configures the OSM-like generator.
	OSMConfig = gen.OSMConfig
	// StationsConfig configures the MesoWest-like generator.
	StationsConfig = gen.StationsConfig
	// TweetsConfig configures the Twitter-like generator.
	TweetsConfig = gen.TweetsConfig
)

// Aggregate kinds.
const (
	Avg      = estimator.Avg
	Sum      = estimator.Sum
	Count    = estimator.Count
	Min      = estimator.Min
	Max      = estimator.Max
	Variance = estimator.Variance
	Stddev   = estimator.Stddev
	Median   = estimator.Median
	Quantile = estimator.Quant
)

// Sampling modes.
const (
	WithoutReplacement = sampling.WithoutReplacement
	WithReplacement    = sampling.WithReplacement
)

// Sampling methods.
const (
	Auto              = engine.Auto
	MethodRSTree      = engine.MethodRSTree
	MethodLSTree      = engine.MethodLSTree
	MethodRandomPath  = engine.MethodRandomPath
	MethodQueryFirst  = engine.MethodQueryFirst
	MethodSampleFirst = engine.MethodSampleFirst
	MethodDistributed = engine.MethodDistributed
)

// Predicate pushdown strategies (Options.Pushdown).
const (
	PushdownAuto  = engine.PushdownAuto
	PushdownForce = engine.PushdownForce
	PushdownOff   = engine.PushdownOff
)

// Contract outcomes (ContractResult.Status).
const (
	// ContractMet marks an answer that satisfied every requested bound.
	ContractMet = engine.ContractMet
	// ContractDegraded marks an on-time answer whose achieved error is
	// wider than requested — the deadline cut sampling short.
	ContractDegraded = engine.ContractDegraded
	// ContractMissed marks an answer that blew its deadline or was
	// cancelled before producing a usable estimate.
	ContractMissed = engine.ContractMissed
)

// ShardAll is the FaultPlan.Shards key whose plan applies to every shard
// without an explicit entry.
const ShardAll = distr.ShardAll

// ParseFaultPlan parses an operator fault-plan string — the grammar behind
// stormd's -fault-plan flag, e.g. "2:crash-after=40;*:latency-p=0.05".
func ParseFaultPlan(spec string) (*FaultPlan, error) { return distr.ParseFaultPlan(spec) }

// Open returns a new STORM engine.
func Open(cfg Config) *Engine { return engine.New(cfg) }

// NewSession returns an interactive session over a dataset handle.
func NewSession(h *Handle) *Session { return engine.NewSession(h) }

// NewDataset returns an empty dataset with the given name.
func NewDataset(name string) *Dataset { return data.NewDataset(name) }

// Exec parses and runs one statement of the STORM query language against
// the engine, writing online progress and results to w.
func Exec(ctx context.Context, e *Engine, statement string, w io.Writer) error {
	return query.Execute(ctx, e, statement, w)
}

// SpatialRange returns a range over the given spatial box and all of time.
func SpatialRange(minX, minY, maxX, maxY float64) Range {
	return geo.SpatialRange(minX, minY, maxX, maxY)
}

// UniverseRange returns a range covering everything.
func UniverseRange() Range { return geo.UniverseRange() }

// GenerateOSM builds the OSM-like synthetic dataset (clustered points with
// an "altitude" attribute).
func GenerateOSM(cfg OSMConfig) *Dataset { return gen.OSM(cfg) }

// GenerateStations builds the MesoWest-like synthetic measurement network.
func GenerateStations(cfg StationsConfig) *Dataset { return gen.Stations(cfg) }

// GenerateTweets builds the Twitter-like synthetic dataset and returns the
// ground-truth trajectory of every user.
func GenerateTweets(cfg TweetsConfig) (*Dataset, map[string][]Vec) {
	return gen.Tweets(cfg)
}

// ImportCSV imports comma- or delimiter-separated text through the data
// connector (schema discovery included). open is invoked once per pass.
func ImportCSV(name string, comma rune, open func() (io.Reader, error), m Mapping) (*ImportResult, error) {
	return connector.Import(connector.NewCSVSource(name, comma, open), m)
}

// ImportJSONL imports one-JSON-object-per-line data.
func ImportJSONL(name string, open func() (io.Reader, error), m Mapping) (*ImportResult, error) {
	return connector.Import(connector.NewJSONLSource(name, open), m)
}

// ImportSQLDump imports a simplified MySQL dump (CREATE TABLE + INSERTs).
func ImportSQLDump(name string, open func() (io.Reader, error), m Mapping) (*ImportResult, error) {
	return connector.Import(connector.NewSQLDumpSource(name, open), m)
}

// ImportKV imports "key<TAB>json" lines (a key-value store export).
func ImportKV(name string, open func() (io.Reader, error), m Mapping) (*ImportResult, error) {
	return connector.Import(connector.NewKVSource(name, open), m)
}

// DiscoverSchema infers column types and spatial/temporal roles from a
// source without importing it.
func DiscoverSchema(src Source, sampleLimit int) (Schema, error) {
	return connector.DiscoverSchema(src, sampleLimit)
}

// SaveDataset writes a dataset to w as one checksummed columnar snapshot
// (the format is documented in internal/data): STORM's storage-engine
// import, bit-exact and identical for identical datasets.
func SaveDataset(w io.Writer, ds *Dataset) error { return ds.WriteSnapshot(w) }

// LoadDataset reads a dataset written by SaveDataset, rejecting truncated,
// corrupt or trailing input with an error.
func LoadDataset(r io.Reader) (*Dataset, error) { return data.ReadSnapshot(r) }

package detlb

import (
	"detlb/internal/actor"
	"detlb/internal/analysis"
	"detlb/internal/archive"
	"detlb/internal/balancer"
	"detlb/internal/core"
	"detlb/internal/graph"
	"detlb/internal/lowerbound"
	"detlb/internal/metrics"
	"detlb/internal/protocol"
	"detlb/internal/scenario"
	"detlb/internal/serve"
	"detlb/internal/spectral"
	"detlb/internal/trace"
	"detlb/internal/workload"
)

// Graph types and constructors.
type (
	// Graph is a symmetric directed d-regular graph (Section 1.3's G).
	Graph = graph.Graph
	// Balancing is the balancing graph G+ with d° self-loops per node.
	Balancing = graph.Balancing
)

// Graph family constructors.
var (
	// NewGraph validates and wraps an adjacency list.
	NewGraph = graph.New
	// Cycle returns the n-cycle.
	Cycle = graph.Cycle
	// Complete returns K_n.
	Complete = graph.Complete
	// Hypercube returns the r-dimensional hypercube.
	Hypercube = graph.Hypercube
	// Torus returns the r-dimensional side^r torus.
	Torus = graph.Torus
	// Circulant returns a circulant graph with symmetric offsets.
	Circulant = graph.Circulant
	// CliqueCirculant returns Theorem 4.2's d-regular clique-bearing graph.
	CliqueCirculant = graph.CliqueCirculant
	// Petersen returns the Petersen graph (odd girth 5).
	Petersen = graph.Petersen
	// GeneralizedPetersen returns GP(n, k), a 3-regular odd-girth sweep.
	GeneralizedPetersen = graph.GeneralizedPetersen
	// CompleteBipartite returns K_{k,k}.
	CompleteBipartite = graph.CompleteBipartite
	// RandomRegular samples a simple connected d-regular graph, seeded.
	RandomRegular = graph.RandomRegular
	// NewBalancing attaches d° self-loops to a graph.
	NewBalancing = graph.NewBalancing
	// Lazy attaches d° = d self-loops (the paper's default, d⁺ = 2d).
	Lazy = graph.Lazy
	// WithLoops attaches an explicit number of self-loops, panicking on
	// invalid input.
	WithLoops = graph.WithLoops
)

// Core framework types.
type (
	// Balancer is a load-balancing algorithm.
	Balancer = core.Balancer
	// NodeBalancer computes one node's per-round token distribution.
	NodeBalancer = core.NodeBalancer
	// Engine runs the synchronous diffusive process.
	Engine = core.Engine
	// Auditor checks a runtime invariant each round.
	Auditor = core.Auditor
	// RunSpec describes one harness simulation.
	RunSpec = analysis.RunSpec
	// RunResult captures a harness simulation outcome.
	RunResult = analysis.RunResult
	// SweepOptions configures the concurrent sweep harness.
	SweepOptions = analysis.SweepOptions
)

// Model kernel: the model-agnostic simulation layer. Any deterministic
// round-based dynamics implementing Model runs on the same
// sweep/stream/serve stack as the diffusion engine (which itself
// implements Model).
type (
	// Model is the round-based dynamics interface the harness drives.
	Model = core.Model
	// ModelBuilder describes a model family; comparable builders key sweep
	// grouping.
	ModelBuilder = core.ModelBuilder
	// Metric maps a model state vector to the scalar the harness tracks.
	Metric = core.Metric
	// Kernel is the deterministic parallel round executor: chunked phases
	// with a barrier, bit-identical at every worker count.
	Kernel = core.Kernel
)

var (
	// NewKernel builds a round executor of the given width (clamped to
	// GOMAXPROCS): the caller and width-1 helper goroutines.
	NewKernel = core.NewKernel
	// ChunkBounds returns the deterministic [lo, hi) slice of chunk i when
	// n items are split across width workers.
	ChunkBounds = core.ChunkBounds
)

// Population-protocol models (internal/protocol): pairwise-interaction
// dynamics on the model kernel.
var (
	// NewMajorityProtocol returns the 4-state exact-majority protocol
	// builder (well-mixed scheduler, seeded).
	NewMajorityProtocol = protocol.NewMajority
	// NewHermanProtocol returns Herman's self-stabilizing token ring
	// builder (seeded coin flips).
	NewHermanProtocol = protocol.NewHerman
	// UnconvergedMetric counts the minority opinion mass (0 at consensus).
	UnconvergedMetric = protocol.Unconverged
	// TokensMetric counts surviving tokens (stabilizes at 1).
	TokensMetric = protocol.Tokens
)

// Engine construction and options.
var (
	// NewEngine binds an algorithm to a balancing graph and initial loads.
	NewEngine = core.NewEngine
	// MustEngine is NewEngine, panicking on error.
	MustEngine = core.MustEngine
	// WithWorkers sets engine parallelism.
	WithWorkers = core.WithWorkers
	// WithFlowTracking enables cumulative per-arc flow counters.
	WithFlowTracking = core.WithFlowTracking
	// WithAuditor attaches an invariant auditor.
	WithAuditor = core.WithAuditor
)

// Invariant auditors (the paper's definitions as runtime checks).
var (
	// NewConservationAuditor checks token conservation.
	NewConservationAuditor = core.NewConservationAuditor
	// NewNonNegativeAuditor fails on any negative load.
	NewNonNegativeAuditor = core.NewNonNegativeAuditor
	// NewNegativeLoadCounter records negative loads without failing.
	NewNegativeLoadCounter = core.NewNegativeLoadCounter
	// NewCumulativeFairnessAuditor checks Def 2.1's cumulative δ-fairness.
	NewCumulativeFairnessAuditor = core.NewCumulativeFairnessAuditor
	// NewMinShareAuditor checks Def 2.1(i)'s ⌊x/d⁺⌋ minimum per edge.
	NewMinShareAuditor = core.NewMinShareAuditor
	// NewRoundFairAuditor checks Def 3.1's round-fairness.
	NewRoundFairAuditor = core.NewRoundFairAuditor
	// NewSelfPreferenceAuditor checks Def 3.1(2)'s s-self-preference.
	NewSelfPreferenceAuditor = core.NewSelfPreferenceAuditor
	// NewPotentialTracker tracks the φ/φ′ potentials of Section 3.
	NewPotentialTracker = core.NewPotentialTracker
)

// Load-vector metrics and potentials.
var (
	// Discrepancy returns max load − min load.
	Discrepancy = core.Discrepancy
	// Balancedness returns max load − ⌈average⌉.
	Balancedness = core.Balancedness
	// Phi evaluates the potential φ(c) of Section 3.
	Phi = core.Phi
	// PhiPrime evaluates the potential φ′(c) of Section 3.
	PhiPrime = core.PhiPrime
)

// Algorithms.
var (
	// NewSendFloor returns SEND(⌊x/d⁺⌋) (cumulatively 0-fair, stateless).
	NewSendFloor = balancer.NewSendFloor
	// NewSendRound returns SEND([x/d⁺]) (cumulatively 0-fair, round-fair).
	NewSendRound = balancer.NewSendRound
	// NewRotorRouter returns the rotor-router (cumulatively 1-fair).
	NewRotorRouter = balancer.NewRotorRouter
	// NewRotorRouterStar returns ROTOR-ROUTER*, a good 1-balancer.
	NewRotorRouterStar = balancer.NewRotorRouterStar
	// NewGoodS returns the canonical good s-balancer of Def 3.1.
	NewGoodS = balancer.NewGoodS
	// NewBiasedRounding returns the [17]-class round-fair adversary.
	NewBiasedRounding = balancer.NewBiasedRounding
	// NewRandomizedExtra returns the randomized baseline of [5].
	NewRandomizedExtra = balancer.NewRandomizedExtra
	// NewRandomizedRounding returns the randomized baseline of [18].
	NewRandomizedRounding = balancer.NewRandomizedRounding
	// NewContinuousMimic returns the continuous-flow-mimicking scheme of [4].
	NewContinuousMimic = balancer.NewContinuousMimic
	// NewBoundedError returns the bounded-error (quasirandom) diffusion of [9].
	NewBoundedError = balancer.NewBoundedError
	// NewContinuous returns the continuous diffusion process itself.
	NewContinuous = balancer.NewContinuous
	// NewMatchingBalancer returns a dimension-exchange balancer (extension).
	NewMatchingBalancer = balancer.NewMatchingBalancer
	// EdgeColoringScheduler builds a periodic balancing circuit.
	EdgeColoringScheduler = balancer.EdgeColoringScheduler
	// NewRandomMatchingScheduler builds a random-matching source.
	NewRandomMatchingScheduler = balancer.NewRandomMatchingScheduler
)

// RotorRouter is the configurable rotor-router type (orders, initial rotors).
type RotorRouter = balancer.RotorRouter

// Spectral quantities.
var (
	// SpectralGap returns µ = 1 − λ₂ of the balancing graph, memoized per
	// (graph, d°) pair.
	SpectralGap = spectral.Gap
	// SpectralGapFresh recomputes µ from scratch, bypassing the cache.
	SpectralGapFresh = spectral.GapFresh
	// Lambda2 returns the second largest transition-matrix eigenvalue.
	Lambda2 = spectral.Lambda2
	// BalancingTime returns the paper's T = ⌈16·ln(nK)/µ⌉.
	BalancingTime = spectral.BalancingTime
	// MixingTime returns t_µ = ⌈6·ln n/µ⌉, the proofs' phase length.
	MixingTime = spectral.MixingTime
	// SpectrumDense returns the full transition spectrum (small graphs).
	SpectrumDense = spectral.SpectrumDense
	// ProbabilityCurrent evaluates the per-step walk-distribution change the
	// Theorem 2.3(i) proof integrates.
	ProbabilityCurrent = spectral.ProbabilityCurrent
)

// Dynamic workloads: schedules inject load between rounds, turning a run
// into a recovery (self-stabilization) experiment.
type (
	// Schedule yields deterministic per-round load deltas.
	Schedule = workload.Schedule
	// Burst is a one-shot injection at a node.
	Burst = workload.Burst
	// Drain removes load from every node over a round window.
	Drain = workload.Drain
	// PeriodicLoad re-injects at a node on a fixed cadence.
	PeriodicLoad = workload.Periodic
	// ChurnLoad migrates tokens between pseudorandom nodes, total-preserving.
	ChurnLoad = workload.Churn
	// Refill adversarially tops up the currently most-loaded node.
	Refill = workload.Refill
	// ComposeSchedules overlays several schedules into one.
	ComposeSchedules = workload.Compose
	// Shock records one injection and its recovery metrics.
	Shock = analysis.Shock
)

// Workloads.
var (
	// PointMass puts the whole load on one node.
	PointMass = workload.PointMass
	// UniformLoad gives every node the same load.
	UniformLoad = workload.Uniform
	// BimodalLoad splits nodes between two load levels.
	BimodalLoad = workload.Bimodal
	// RandomLoad draws per-node loads uniformly, seeded.
	RandomLoad = workload.Random
	// RampLoad assigns a linear load gradient.
	RampLoad = workload.Ramp
	// PowerLawLoad draws heavy-tailed loads, seeded.
	PowerLawLoad = workload.PowerLaw
	// CheckerboardLoad alternates two load levels by node index.
	CheckerboardLoad = workload.Checkerboard
	// OpinionsLoad builds a signed majority-protocol opinion vector
	// (a strong positives, the rest strong negatives).
	OpinionsLoad = workload.Opinions
	// TokensLoad places an odd number of Herman tokens pseudorandomly.
	TokensLoad = workload.Tokens
)

// Scenario API v1: declarative, JSON-serializable experiment descriptions
// that bind into live RunSpecs through the constructor registry — the same
// grammar behind the lbsim/lbsweep flags and the scenario files.
type (
	// Scenario is the pure-data description of one run.
	Scenario = scenario.Scenario
	// ScenarioFamily is the cross-product description (graphs × algos ×
	// workloads × schedules × topologies) and the scenario file format.
	ScenarioFamily = scenario.Family
	// GraphSpec describes a balancing graph (family + args + d°).
	GraphSpec = scenario.GraphSpec
	// AlgoSpec describes a balancer (kind + s or seed).
	AlgoSpec = scenario.AlgoSpec
	// WorkloadSpec describes the initial load vector.
	WorkloadSpec = scenario.WorkloadSpec
	// ScheduleSpec describes a composed dynamic-load schedule.
	ScheduleSpec = scenario.ScheduleSpec
	// SchedulePart is one component of a ScheduleSpec.
	SchedulePart = scenario.SchedulePart
	// TopologySpec describes a composed fault-injection schedule.
	TopologySpec = scenario.TopologySpec
	// TopologyPart is one component of a TopologySpec.
	TopologyPart = scenario.TopologyPart
	// RunParams are the harness parameters of a described run.
	RunParams = scenario.RunParams
)

var (
	// LoadScenario reads, validates, and normalizes a scenario file.
	LoadScenario = scenario.Load
	// LoadScenarioFile is LoadScenario from a path.
	LoadScenarioFile = scenario.LoadFile
	// ParseScenarioFamily parses the lbsweep spec-list grammar into a family.
	ParseScenarioFamily = scenario.ParseFamily
	// ParseGraphSpec parses a text graph spec into a normalized descriptor.
	ParseGraphSpec = scenario.ParseGraph
	// ParseAlgoSpec parses a text algorithm spec into a descriptor.
	ParseAlgoSpec = scenario.ParseAlgo
	// ParseWorkloadSpec parses a text workload spec into a descriptor.
	ParseWorkloadSpec = scenario.ParseWorkload
	// ParseScheduleSpec parses a text schedule spec into a descriptor.
	ParseScheduleSpec = scenario.ParseSchedule
	// ParseTopologySpec parses a text fault-injection topology spec.
	ParseTopologySpec = scenario.ParseTopology
	// BindScenarios binds scenario cells into RunSpecs, sharing balancing
	// graphs and algorithm instances exactly as the sweep harness groups.
	BindScenarios = scenario.BindScenarios
	// ScenarioPreset builds a named preset family.
	ScenarioPreset = scenario.Preset
	// ScenarioPresets lists the preset catalog.
	ScenarioPresets = scenario.PresetNames
)

// Serving layer (cmd/lbserve): a long-running HTTP daemon that executes
// scenarios on the sweep harness, streams per-round snapshots over
// SSE/NDJSON (every consumer re-executes deterministically on its own
// engines), and persists finished runs as content-addressed
// (scenario, result) archive pairs for regression tracking.
type (
	// Server is the scenario-serving http.Handler plus its executor pool.
	Server = serve.Server
	// ServeConfig configures a Server (archive dir, concurrency bounds).
	ServeConfig = serve.Config
	// ServedRun summarizes one submitted run's lifecycle.
	ServedRun = serve.RunSummary
)

var (
	// NewServer builds the serving layer.
	NewServer = serve.New
	// OpenRunArchive opens (creating) a content-addressed result archive.
	// Kept as a thin alias of archive.Open for pre-analytics callers.
	OpenRunArchive = archive.Open
)

// Archive analytics (internal/archive): the content-addressed result store
// promoted to a first-class package, with a queryable index over archived
// cells, a typed filter/project/aggregate query grammar, and cell-by-cell
// diffs between entries. cmd/lbquery and lbserve's /v1/archive endpoints
// are both thin faces over these types, so offline and remote output are
// byte-identical for the same archive state.
type (
	// RunArchive is the content-addressed result store (the concrete
	// directory-backed implementation of ArchiveStore).
	RunArchive = archive.Store
	// ArchiveStore is the storage interface the serving tier consumes.
	ArchiveStore = archive.Archive
	// RunArchiveEntry summarizes one archived run.
	RunArchiveEntry = archive.Entry
	// ArchiveIndex is the queryable per-cell metadata index over a store.
	ArchiveIndex = archive.Index
	// ArchiveQuery is a compiled filter/project/aggregate query.
	ArchiveQuery = archive.Query
	// ArchiveQuerySpec is the textual form of a query (the CLI/URL grammar).
	ArchiveQuerySpec = archive.QuerySpec
	// ArchiveFilter is one where-clause of a query.
	ArchiveFilter = archive.Filter
	// ArchiveAgg is one aggregate term of a grouped query.
	ArchiveAgg = archive.Agg
	// ArchiveQueryResult is a query's tabular result.
	ArchiveQueryResult = archive.Result
	// ArchiveDiffReport aligns two archived entries cell-by-cell.
	ArchiveDiffReport = archive.DiffReport
	// ArchiveCellDiff is one differing aligned cell pair in a diff report.
	ArchiveCellDiff = archive.CellDiff
	// ArchiveResultDoc is the archived result document for one entry.
	ArchiveResultDoc = archive.ResultDoc
	// ArchiveCellResult is one cell's archived result record.
	ArchiveCellResult = archive.CellResult
)

var (
	// OpenArchive opens (creating) a content-addressed result archive.
	OpenArchive = archive.Open
	// NewArchiveIndex builds a queryable index over an archive store.
	NewArchiveIndex = archive.NewIndex
	// ParseArchiveQuery compiles the textual query grammar.
	ParseArchiveQuery = archive.ParseQuerySpec
)

// Sentinel errors of the archive package, matchable with errors.Is.
var (
	// ErrArchiveNotFound marks a digest with no complete archive entry.
	ErrArchiveNotFound = archive.ErrNotFound
	// ErrArchiveMismatch marks a Put whose result bytes diverged from the
	// archived ones — the bit-identical-replay regression signal.
	ErrArchiveMismatch = archive.ErrMismatch
	// ErrArchiveStale marks a Put whose result differs from an entry
	// archived under an older result version — a migration, not a
	// regression.
	ErrArchiveStale = archive.ErrStale
	// ErrArchiveCorrupt marks an entry whose on-disk documents fail to
	// parse or contradict their digest.
	ErrArchiveCorrupt = archive.ErrCorrupt
)

// Run-cache modes for ServeConfig.CacheMode: runs are pure functions of
// their canonical scenario, so an archived fingerprint's result can be
// served terminally without re-execution.
const (
	// CacheModeOn serves archived fingerprints as terminal cache hits.
	CacheModeOn = serve.CacheOn
	// CacheModeOff executes every POST (the pre-cache behavior).
	CacheModeOff = serve.CacheOff
	// CacheModeVerify re-executes a sampled fraction of hits and enforces
	// bit-identical replay against the archive.
	CacheModeVerify = serve.CacheVerify
)

// Metrics: the dependency-free Prometheus text-format registry behind
// lbserve's GET /metrics, reusable by any daemon built on the module.
type (
	// MetricsRegistry collects named metrics and writes the Prometheus
	// text exposition format (0.0.4).
	MetricsRegistry = metrics.Registry
	// MetricsCounter is a monotonically increasing counter.
	MetricsCounter = metrics.Counter
	// MetricsGauge is a value that can go up and down.
	MetricsGauge = metrics.Gauge
	// MetricsHistogram is a cumulative-bucket latency/size histogram.
	MetricsHistogram = metrics.Histogram
)

var (
	// NewMetricsRegistry returns an empty metrics registry.
	NewMetricsRegistry = metrics.NewRegistry
	// MetricsDefBuckets are the default histogram buckets (seconds).
	MetricsDefBuckets = metrics.DefBuckets
)

// Snapshot is one observation of a streaming run.
type Snapshot = analysis.Snapshot

var (
	// Stream executes a RunSpec as a lazy per-round sequence with per-round
	// cancellation — the primitive Run and Sweep are expressed over.
	Stream = analysis.Stream
	// StreamInto is Stream collecting the RunResult bookkeeping as it goes.
	StreamInto = analysis.StreamInto
)

// Experiment harness.
var (
	// Run executes a RunSpec to the paper's horizon T with early stopping.
	Run = analysis.Run
	// Sweep executes many RunSpecs concurrently, each on a fresh engine,
	// with spectral gaps memoized per graph and results bit-identical to a
	// serial Run loop.
	Sweep = analysis.Sweep
	// SweepContext is Sweep with cancellation at spec granularity.
	SweepContext = analysis.SweepContext
	// RunToTarget measures the first round reaching a discrepancy target.
	RunToTarget = analysis.RunToTarget
	// TargetDiscrepancy builds the RunSpec.TargetDiscrepancy pointer inline
	// (0 — perfect balance — is a valid target).
	TargetDiscrepancy = analysis.Target
	// AllExperiments regenerates every experiment table, in the order of
	// the analysis.Experiments registry.
	AllExperiments = analysis.AllExperiments
	// Converge profiles halving times down to a discrepancy target.
	Converge = analysis.Converge
	// WindowDeviation measures the Equation (7) window-average deviation.
	WindowDeviation = analysis.WindowDeviation
)

// TraceRecorder samples per-round load statistics for CSV/JSONL export.
type TraceRecorder = trace.Recorder

// NewTraceRecorder returns a recorder sampling every interval rounds.
var NewTraceRecorder = trace.NewRecorder

// ExperimentConfig tunes the experiment suite.
type ExperimentConfig = analysis.Config

// Lower-bound constructions (Section 4).
var (
	// SteadyFlowInstance builds Theorem 4.1's stuck round-fair instance.
	SteadyFlowInstance = lowerbound.SteadyFlowInstance
	// StatelessTrap runs Theorem 4.2's adversary on a stateless balancer.
	StatelessTrap = lowerbound.StatelessTrap
	// RotorAlternatingInstance builds Theorem 4.3's period-2 rotor state.
	RotorAlternatingInstance = lowerbound.RotorAlternatingInstance
)

// Actor runtime.
type ActorNetwork = actor.Network

// NewActorNetwork starts a goroutine-per-processor realization of the model.
var NewActorNetwork = actor.New

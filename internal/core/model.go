package core

// Model is the simulation contract the analysis harness drives: flat per-node
// int64 state, advanced one deterministic synchronous round at a time. The
// token-diffusion Engine is the original implementation; the
// population-protocol machines in internal/protocol are the second family.
// Everything above this interface — Run/Sweep/Stream bookkeeping, scenario
// binding, the serving layer's deterministic re-execution and archive
// contract — is model-agnostic.
//
// Determinism contract: for a fixed initial vector, a Model's state after
// round t is a pure function of (t, construction parameters) — independent of
// worker count, wall clock, and map iteration order. Implementations that
// parallelize a round must dispatch it through a Kernel (or otherwise
// guarantee bit-identical results at every width).
type Model interface {
	// N returns the number of nodes (the length of State).
	N() int

	// State returns the current flat per-node state vector. The slice is
	// shared with the model and must not be modified; copy it if it needs to
	// survive a Step. What an entry means is model-specific: token counts
	// for diffusion, opinion/token encodings for protocols.
	State() []int64

	// Round returns the number of completed rounds.
	Round() int

	// Step executes one synchronous round. A non-nil error (typically an
	// invariant-auditor failure) leaves the already-advanced state available
	// for debugging.
	Step() error

	// Reset rewinds the model to round zero with a new initial state vector,
	// reusing allocations and worker pools. The trajectory after Reset(x1)
	// must be bit-identical to that of a fresh model built with x1 — the
	// property sweep-level model reuse depends on. Implementations that
	// cannot restore some attached component must return an error, in which
	// case the caller builds a fresh model.
	Reset(x1 []int64) error

	// Close releases the model's worker pool, if any; idempotent. The model
	// must not Step after Close.
	Close()
}

// Injector is the optional load-injection capability: a Model whose state
// has a meaningful addition implements it to take workload schedules
// (RunSpec.Events). Models without it — opinion or token encodings, where an
// addition would manufacture or destroy votes — simply do not, and the
// harness rejects schedules for them.
type Injector interface {
	// ApplyDelta adds delta (one entry per node) to the current state,
	// between rounds, never during a Step.
	ApplyDelta(delta []int64) error
}

// Faultable is the optional topology-fault capability: a Model running on a
// balancing graph whose links and nodes can fail implements it to take
// topology schedules (RunSpec.Topology) and report per-fault recovery.
type Faultable interface {
	// ApplyTopologyDelta applies one between-rounds fault delta and reports
	// its effective changes.
	ApplyTopologyDelta(delta TopologyDelta) (TopologyChange, error)
	// Components labels the live components; count is their number.
	Components() (labels []int32, count int)
	// EffectiveDiscrepancy is the maximum per-component max − min state
	// over live components — what fault recovery is judged on.
	EffectiveDiscrepancy() int64
	// ArcAlive is the per-arc alive mask, or nil while every arc is alive.
	ArcAlive() []bool
	// UnreachableLoad is the load excess no balancing can move off its
	// component.
	UnreachableLoad() int64
}

// The diffusion engine is the reference Model implementation and the one
// that carries both optional capabilities.
var (
	_ Model     = (*Engine)(nil)
	_ Injector  = (*Engine)(nil)
	_ Faultable = (*Engine)(nil)
)

// ModelBuilder constructs Models from initial state vectors. Builders are the
// unit of sweep grouping: specs sharing one comparable builder value reuse a
// single Model via Reset, exactly as diffusion specs sharing a (graph,
// balancer) pair reuse one Engine. Implementations should therefore be
// pointer types (comparable, identity-keyed).
type ModelBuilder interface {
	// Name identifies the model family and its parameters, e.g.
	// "majority(seed=1)" — used in labels and error messages.
	Name() string

	// DefaultHorizon returns the default round budget for an n-node
	// instance, the model's analogue of the diffusion horizon
	// O(log(Kn)/µ). The harness multiplies it by RunSpec.HorizonMultiple.
	DefaultHorizon(n int) int

	// New builds a model initialized with a copy of x1. workers sizes the
	// model's Kernel; models with inherently serial dynamics may ignore it
	// (they are trivially bit-identical across worker counts).
	New(x1 []int64, workers int) (Model, error)
}

// Metric maps a model's flat state to the scalar convergence measure the
// harness tracks: unconverged-agent count for majority dynamics,
// surviving-token count for Herman's protocol. A run without a Metric tracks
// the load discrepancy max − min, the diffusion measure. Smaller is always
// better; RunSpec.TargetDiscrepancy compares against this value, so
// time-to-target generalizes to time-to-consensus.
type Metric interface {
	// Name identifies the metric in results and serialized documents, e.g.
	// "unconverged", "tokens".
	Name() string

	// Measure maps a state vector to the metric value. It must be a pure
	// function of the vector.
	Measure(state []int64) int64
}

// Package analysis is the experiment harness: it runs (graph, algorithm,
// workload) triples to the paper's time horizon T = O(log(Kn)/µ) with
// early-stop detection, collects discrepancy metrics and audit results, and
// regenerates the experiment suite listed by Experiments (Table 1, the
// per-theorem experiments, the extensions and the ablations) as tables.
package analysis

import (
	"context"
	"fmt"

	"detlb/internal/core"
	"detlb/internal/graph"
	"detlb/internal/spectral"
	"detlb/internal/topology"
	"detlb/internal/workload"
)

// RunSpec describes one simulation.
type RunSpec struct {
	// Balancing is the graph G+ to run on.
	Balancing *graph.Balancing
	// Algorithm is the balancer under test.
	Algorithm core.Balancer
	// Model, when non-nil, replaces the diffusion engine: the run executes a
	// model built by Model.New(Initial, Workers) — a population-protocol
	// machine or the weighted-token process, say — through the same round
	// loop. Algorithm must be nil; Balancing is still required (it sizes the
	// run and labels results). Events and Topology need the model to implement
	// core.Injector and core.Faultable; Auditors are engine-typed. A spec
	// asking for what its model lacks fails through RunResult.Err.
	Model core.ModelBuilder
	// Metric maps the state to the scalar convergence measure; nil means the
	// discrepancy max − min of the state, for a model as for the diffusion
	// engine. TargetDiscrepancy, Patience, and the Series/Snapshot
	// discrepancy fields all read this metric's value, so time-to-target
	// generalizes to time-to-consensus.
	Metric core.Metric
	// Initial is x₁ (not mutated).
	Initial []int64

	// MaxRounds caps the run; 0 means use the paper's T = ⌈16·ln(Kn)/µ⌉.
	MaxRounds int
	// HorizonMultiple scales the default T cap (0 or 1 means 1×). It is
	// ignored when MaxRounds is set: an explicit cap is already the exact
	// horizon the caller asked for.
	HorizonMultiple int
	// Patience stops the run once the running minimum discrepancy has not
	// improved for this many rounds (0 disables early stopping). Periodic
	// orbits (rotor-router) make "unchanged discrepancy" unreliable, so the
	// criterion is no-new-minimum. Each injected shock (see Events) restarts
	// the clock: the pre-shock minimum is not a meaningful improvement
	// baseline while the system is re-absorbing new load.
	Patience int
	// TargetDiscrepancy, when non-nil, is the discrepancy target of the run;
	// 0 is a valid target (perfect balance, the SEND-round/good-s
	// time-to-balance measurement). Use Target to build the pointer inline.
	//
	// On a static run (Events == nil) the run stops at the first round whose
	// discrepancy is ≤ the target — round 0 if the initial vector already
	// meets it. On a dynamic run the target instead defines per-shock
	// recovery (RunResult.Shocks) and the run continues to its horizon.
	TargetDiscrepancy *int64
	// Events, when non-nil, injects load between rounds: after every
	// completed round r (including r = 0, before the first) the schedule's
	// delta is added to the state via core.Injector, and every
	// nonzero injection is recorded as a Shock with its recovery metrics.
	// Schedules are pure functions of (round, loads), so dynamic runs keep
	// the engine's bit-identical-across-worker-counts guarantee.
	Events workload.Schedule
	// Topology, when non-nil, injects link/node fault events between rounds:
	// after every completed round r (including r = 0, before the first) the
	// schedule's delta is applied via core.Faultable — before the
	// same round's workload injection, so the network changes first and load
	// then arrives on the changed network — and every effective delta is
	// recorded as a FaultEvent with its recovery metrics. Schedules are pure
	// functions of (round, graph), so faulted runs keep the engine's
	// bit-identical-across-worker-counts guarantee. Like Events, a topology
	// schedule makes the run dynamic: the discrepancy target defines
	// per-fault recovery instead of stopping the run.
	Topology topology.Schedule
	// Workers selects engine or model parallelism (0/1 = serial).
	Workers int
	// Auditors are attached to the engine.
	Auditors []core.Auditor
	// SampleEvery records the discrepancy every k rounds into Series
	// (0 disables sampling).
	SampleEvery int
}

// Target returns a pointer to d for RunSpec.TargetDiscrepancy, so specs can
// request a target — including 0, perfect balance — inline.
func Target(d int64) *int64 { return &d }

// muZeroTol separates a genuine spectral gap from the solver's round-off
// on a disconnected graph, where λ₂ = 1 exactly and spectral.Gap returns 0
// or a value within ~10⁻¹⁵ of it. The smallest real gap in this library's
// range is the long cycle's Θ(1/n²), well above 10⁻¹⁰ for any simulable n.
const muZeroTol = 1e-10

// Point is one sample of the discrepancy trajectory.
type Point struct {
	Round       int
	Discrepancy int64
	// Max and Min are the load extrema behind the discrepancy, so sampled
	// series can be exported as full trace records.
	Max int64
	Min int64
	// Shock marks an injection point: the sample was taken immediately after
	// a Schedule delta was applied (between rounds Round and Round+1), with
	// Injected the net token change. Shock points are recorded whenever
	// sampling is on, regardless of the sampling interval, so JSONL exports
	// carry a marker for every injection.
	Shock    bool
	Injected int64
	// Fault marks a topology-event point: the sample was taken immediately
	// after an ApplyTopologyDelta changed the graph, with FaultChange the
	// event summary and Components the live component count after it. Like
	// shock points, fault points are recorded whenever sampling is on.
	Fault       bool
	FaultChange core.TopologyChange
	Components  int
}

// Shock records one load injection of a dynamic run and the recovery that
// followed it — the self-stabilization view of the paper's bound: after an
// adversarial perturbation, how many rounds until the discrepancy target is
// re-reached.
type Shock struct {
	// Round is the number of completed rounds when the delta was applied
	// (0 = before the first round); round Round+1 is the first to see it.
	Round int
	// Added and Removed are the injected token totals: Σ of the positive
	// deltas and Σ of the negated negative deltas. A pure migration (churn)
	// has Added == Removed.
	Added, Removed int64
	// Discrepancy is the discrepancy immediately after the injection.
	Discrepancy int64
	// PeakDiscrepancy is the maximum discrepancy observed from the injection
	// until recovery (or until the run ended).
	PeakDiscrepancy int64
	// RecoveryRound is the first round after the injection whose
	// discrepancy was ≤ TargetDiscrepancy, or −1 (no target set, or the run
	// ended first). RecoveryRounds is RecoveryRound − Round.
	RecoveryRound  int
	RecoveryRounds int
}

// FaultEvent records one effective topology delta of a faulted run and the
// recovery that followed it — the robustness mirror of Shock. Recovery is
// judged on the *effective* discrepancy (the maximum per-component max−min
// over live components, Engine.EffectiveDiscrepancy): after a partition each
// side can still balance internally even though the global discrepancy is
// pinned by the imbalance across the cut, and that internal re-convergence
// is what graceful degradation means.
type FaultEvent struct {
	// Round is the number of completed rounds when the delta was applied
	// (0 = before the first round); round Round+1 is the first to run on the
	// changed graph.
	Round int
	// FailedLinks/RestoredLinks/FailedNodes/RestoredNodes count the event's
	// effective changes (no-op events are not recorded at all).
	FailedLinks   int
	RestoredLinks int
	FailedNodes   int
	RestoredNodes int
	// Stranded is the load removed with stranded node failures by this
	// event; Redistributed the load moved from failing nodes to neighbors.
	Stranded      int64
	Redistributed int64
	// Components is the number of live components right after the event.
	Components int
	// Gap is the faulted eigenvalue gap of the post-event graph
	// (spectral.FaultedGap); ≈ 0 when the event disconnected it.
	Gap float64
	// Discrepancy is the effective discrepancy immediately after the event;
	// PeakDiscrepancy the maximum effective discrepancy observed from the
	// event until recovery (or until the run ended).
	Discrepancy     int64
	PeakDiscrepancy int64
	// RecoveryRound is the first round after the event whose effective
	// discrepancy was ≤ TargetDiscrepancy, or −1 (no target set, or the run
	// ended first). RecoveryRounds is RecoveryRound − Round.
	RecoveryRound  int
	RecoveryRounds int
	// UnreachableLoad is the load excess no amount of balancing can move off
	// its component at event time: Σ over live components of
	// max(0, total − size·⌈L/N⌉) with L, N the live totals. 0 while the live
	// graph stays connected.
	UnreachableLoad int64
}

// RunResult captures the outcome of a simulation.
type RunResult struct {
	// Rounds actually executed.
	Rounds int
	// Horizon is the round cap that was in force (T by default).
	Horizon int
	// BalancingTime is the paper's T for this instance.
	BalancingTime int
	// Gap is the eigenvalue gap µ of the balancing graph.
	Gap float64
	// InitialDiscrepancy is K.
	InitialDiscrepancy int64
	// FinalDiscrepancy is the discrepancy when the run stopped.
	FinalDiscrepancy int64
	// MinDiscrepancy is the best discrepancy seen at any round.
	MinDiscrepancy int64
	// TargetRound is the first round at which TargetDiscrepancy was reached,
	// or -1.
	TargetRound int
	// StoppedEarly reports whether the patience criterion fired.
	StoppedEarly bool
	// ReachedTarget reports whether TargetDiscrepancy was reached.
	ReachedTarget bool
	// Series holds sampled points when requested.
	Series []Point
	// Shocks holds one record per load injection of a dynamic run (Events),
	// in injection order, each with its recovery metrics.
	Shocks []Shock
	// Faults holds one record per effective topology delta of a faulted run
	// (Topology), in event order, each with its recovery metrics.
	Faults []FaultEvent
	// Cycle is the cycle the round loop's detector closed on the model's
	// full state (see recurrence), or nil when none closed: the model is not
	// core.Recurrent, the run is dynamic, or it stopped first.
	Cycle *Cycle
	// Metric names the convergence measure the scalar fields carry: "" for
	// the plain load discrepancy (the diffusion encoding, kept implicit so
	// existing consumers and archives are untouched) or the spec Metric's
	// name (e.g. "unconverged", "tokens"), in which case InitialDiscrepancy,
	// FinalDiscrepancy, MinDiscrepancy, and the Series values are values of
	// that metric.
	Metric string
	// Err is the first audit error, if any.
	Err error
}

// Cycle is a full-state cycle of a static run: the model's state after
// round Start recurs after Period more rounds, so every later round repeats
// the cycle's rounds.
type Cycle struct {
	// Start is a round whose state lies on the cycle: the detector's
	// checkpoint the state matched Period rounds later. It is at least the
	// round the state enters the cycle by, and for an entry round μ at most
	// the first checkpoint round ≥ max(μ, Period) (see recurrence).
	Start int
	// Period is the state period, a multiple of the load vector's.
	Period int
	// Min and Max are the extremes of the tracked value (the discrepancy, or
	// the spec's Metric) over one period.
	Min, Max int64
}

// Run executes the spec by draining the streaming primitive (StreamInto) to
// completion. An invalid spec (nil graph or algorithm, wrong vector length, a
// balancer that declines the graph, a schedule addressing a node out of
// range) is reported through RunResult.Err rather than by panicking, so one
// bad spec cannot kill a loop over many. Panics from user-supplied code
// (balancers, schedules, auditors) are contained the same way — the
// containment lives in StreamInto, which this shares with every streaming
// consumer; the sweep path has its own (runSweepSpec).
func Run(spec RunSpec) (res RunResult) {
	for range StreamInto(context.Background(), spec, &res) {
	}
	return res
}

// prepareResult computes the simulator-independent result fields — the
// metric and its initial value, the horizon in force, and for diffusion
// specs the gap µ and the paper's T. ok is false when the spec is too broken
// to build a simulator from; res.Err carries the reason.
func prepareResult(spec RunSpec) (res RunResult, ok bool) {
	res = RunResult{TargetRound: -1}
	fail := func(format string, args ...any) (RunResult, bool) {
		res.Err = fmt.Errorf(format, args...)
		return res, false
	}
	if spec.Balancing == nil {
		return fail("analysis: spec needs a balancing graph (it sizes the run and labels results)")
	}
	res.InitialDiscrepancy = core.Discrepancy(spec.Initial)
	var horizon int // the default horizon, before HorizonMultiple
	if spec.Model != nil {
		switch {
		case spec.Algorithm != nil:
			return fail("analysis: spec sets both Algorithm and Model; pick one")
		case len(spec.Auditors) > 0:
			return fail("analysis: spec auditors are engine-typed; model invariants are audited inside the model")
		}
		horizon = spec.Model.DefaultHorizon(spec.Balancing.N())
	} else {
		if spec.Algorithm == nil {
			return fail("analysis: spec needs an algorithm or a model")
		}
		mu := spectral.Gap(spec.Balancing)
		res.Gap = mu
		if mu > muZeroTol {
			res.BalancingTime = spectral.BalancingTime(spec.Balancing.N(), int(res.InitialDiscrepancy), mu)
		} else if spec.MaxRounds == 0 {
			// λ₂ = 1 up to the solver's round-off: the
			// balancing graph is disconnected and the paper's horizon
			// T = O(log(Kn)/µ) is undefined (the raw float would inflate T
			// to ~10¹⁴ rounds).
			return fail("analysis: balancing graph %q has spectral gap µ ≈ 0 (disconnected); T is undefined, set MaxRounds explicitly",
				spec.Balancing.Name())
		}
		horizon = res.BalancingTime
	}
	if spec.Metric != nil {
		res.Metric = spec.Metric.Name()
		res.InitialDiscrepancy = spec.Metric.Measure(spec.Initial)
	}
	if spec.MaxRounds != 0 {
		horizon = spec.MaxRounds
	} else {
		if m := spec.HorizonMultiple; m > 1 {
			horizon *= m
		}
		horizon = max(horizon, 1)
	}
	res.Horizon = horizon
	return res, true
}

// newModel builds the simulator a prepared spec runs on, holding the spec's
// initial vector: the spec's model, or a diffusion engine with the spec's
// workers and auditors.
func newModel(spec RunSpec) (core.Model, error) {
	if spec.Model != nil {
		return spec.Model.New(spec.Initial, spec.Workers)
	}
	opts := []core.Option{core.WithWorkers(spec.Workers)}
	for _, a := range spec.Auditors {
		opts = append(opts, core.WithAuditor(a))
	}
	eng, err := core.NewEngine(spec.Balancing, spec.Algorithm, spec.Initial, opts...)
	if err != nil {
		return nil, err
	}
	return eng, nil
}

// runContext drives a fresh model holding the spec's initial vector through
// the streaming round loop (see streamEngine), draining it to completion. It
// is the sweep runner's entry point, bit-identical to Run because both drain
// the same loop on a fresh model. The context gives it round-granularity
// cancellation — the guarantee SweepContext and the serving layer's drain
// are built on.
func runContext(ctx context.Context, spec RunSpec, m core.Model, res RunResult) RunResult {
	for range streamEngine(ctx, spec, m, &res) {
	}
	return res
}

// RunToTarget is a convenience wrapper measuring the first round at which a
// discrepancy target is hit, with a hard cap. A target of 0 (perfect
// balance) is valid; an input already at or below the target reports
// TargetRound = 0.
func RunToTarget(b *graph.Balancing, algo core.Balancer, x1 []int64, target int64, cap int) RunResult {
	return Run(RunSpec{
		Balancing:         b,
		Algorithm:         algo,
		Initial:           x1,
		MaxRounds:         cap,
		TargetDiscrepancy: &target,
	})
}

// String renders a one-line summary for logs.
func (r RunResult) String() string {
	if r.Metric != "" {
		// Model runs: the discrepancy fields carry the model's metric, and the
		// diffusion-only spectral quantities are meaningless.
		return fmt.Sprintf("rounds=%d/%d %s=%d (min %d, initial %d)",
			r.Rounds, r.Horizon, r.Metric, r.FinalDiscrepancy, r.MinDiscrepancy, r.InitialDiscrepancy)
	}
	return fmt.Sprintf("rounds=%d/%d disc=%d (min %d) K=%d µ=%.4g T=%d",
		r.Rounds, r.Horizon, r.FinalDiscrepancy, r.MinDiscrepancy,
		r.InitialDiscrepancy, r.Gap, r.BalancingTime)
}

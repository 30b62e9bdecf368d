package analysis

import (
	"context"
	"fmt"
	"iter"

	"detlb/internal/core"
	"detlb/internal/spectral"
)

// Round counts completed balancing rounds; it is the key of the streaming
// run sequence (round 0 is the initial state, before the first round).
type Round = int

// Snapshot is one observation of a streaming run: the discrepancy and load
// extrema after a completed round, or immediately after a schedule injection
// (Shock) between rounds.
type Snapshot struct {
	// Discrepancy is the tracked value at this observation: max − min load,
	// or the spec's Metric when it sets one.
	Discrepancy int64
	// Max and Min are the state extrema at this observation.
	Max int64
	Min int64
	// Shock marks an injection observation: the snapshot was taken right
	// after a Schedule delta was applied, between the keyed round and the
	// next one, with Injected the net token change. A shocked round yields
	// twice: once for the injection, once for the round that follows it.
	Shock    bool
	Injected int64
	// Fault marks a topology-event observation: the snapshot was taken right
	// after an ApplyTopologyDelta changed the graph, between the keyed round
	// and the next one, with FaultChange the event summary and Components
	// the live component count after it. A faulted round yields twice, like
	// a shocked one (and up to three times when a round carries both a fault
	// and a shock: fault first — the network changes before load arrives).
	Fault       bool
	FaultChange core.TopologyChange
	Components  int
}

// Stream executes the spec as a lazy per-round sequence — the primitive the
// whole harness is expressed over: Run is Stream drained to completion, and
// the sweep runner drains the same core.
//
// The sequence yields the initial state under key 0, then one snapshot per
// completed round (plus one per schedule injection, marked Shock), honoring
// the spec's horizon, target, and patience exactly like Run. Breaking out of
// the loop stops the run at that round and releases the model; a canceled
// ctx stops it within one round. Each iteration of the returned sequence
// re-executes the spec from the start.
//
// Stream discards the RunResult bookkeeping; use StreamInto to observe
// rounds and still collect the final result (including spec errors, which
// end the sequence immediately and are only visible through the result).
func Stream(ctx context.Context, spec RunSpec) iter.Seq2[Round, Snapshot] {
	return func(yield func(Round, Snapshot) bool) {
		var res RunResult
		StreamInto(ctx, spec, &res)(yield)
	}
}

// StreamInto is Stream writing the run's bookkeeping into res as it goes:
// when the sequence ends — run complete, consumer break, or cancellation —
// res holds exactly what Run would have returned for the rounds executed.
// res is reset at the start of each iteration of the sequence.
//
// Panics from user-supplied code (balancers, schedules, auditors) are
// contained into res.Err, matching Run and the sweep path, so one bad spec
// cannot kill a loop over many streams; a panic in the consumer's own loop
// body is not swallowed — it propagates out of the range statement.
func StreamInto(ctx context.Context, spec RunSpec, res *RunResult) iter.Seq2[Round, Snapshot] {
	return func(yield func(Round, Snapshot) bool) {
		inYield := false
		defer func() {
			if r := recover(); r != nil {
				if inYield {
					// The panic traveled through yield: it is the consumer's,
					// not ours to report.
					panic(r)
				}
				res.Err = fmt.Errorf("analysis: run panicked: %v", r)
			}
		}()
		r, ok := prepareResult(spec)
		*res = r
		if !ok {
			return
		}
		m, err := newModel(spec)
		if err != nil {
			res.Err = err
			return
		}
		defer m.Close()
		streamEngine(ctx, spec, m, res)(func(round Round, snap Snapshot) bool {
			inYield = true
			ok := yield(round, snap)
			inYield = false
			return ok
		})
	}
}

// streamCanceledError is the round loop's cancellation report. It is a
// distinct type so the sweep path can recognize it and relabel in-flight
// cancellations with the sweep's own wording — one user action, one message.
type streamCanceledError struct{ cause error }

func (e *streamCanceledError) Error() string {
	return "analysis: stream canceled: " + e.cause.Error()
}

func (e *streamCanceledError) Unwrap() error { return e.cause }

// streamEngine drives a model already holding the spec's initial vector
// through the round loop, yielding one snapshot per observation and folding
// the full RunResult bookkeeping into res. It is the single round-loop
// implementation for every simulator — the diffusion engine and the protocol
// machines alike: Run, every streaming consumer and the sweep runner all
// drain it on a fresh model, so their results are bit-identical to each
// other.
//
// Each observation's value is spec.Metric's measure of the state, or the
// load discrepancy max − min when the spec sets no Metric. With spec.Events
// set the loop becomes the dynamic-workload harness: before each round the
// schedule's delta is injected through the model's core.Injector capability
// and recorded as a Shock, and the target — instead of stopping the run —
// defines when each shock has "recovered". spec.Topology does the same for
// fault events through core.Faultable. A spec whose schedules need a
// capability the model lacks fails through res.Err before round 0. All
// injections are pure functions of (round, state), so dynamic trajectories
// inherit the model's bit-identical determinism across worker counts and
// across the Run/Sweep/Stream entry points.
//
// A static spec on a core.Recurrent model stops stepping once the model's
// full state repeats (see recurrence): later rounds replay the cycle's
// observations through the same bookkeeping, so results and snapshots are
// those of stepping every round, the model is left at the round where the
// cycle was found, and res.Cycle reports the cycle.
func streamEngine(ctx context.Context, spec RunSpec, m core.Model, res *RunResult) iter.Seq2[Round, Snapshot] {
	return func(yield func(Round, Snapshot) bool) {
		inj, injOK := m.(core.Injector)
		flt, fltOK := m.(core.Faultable)
		if spec.Events != nil && !injOK {
			res.Err = fmt.Errorf("analysis: %T takes no workload schedules (it is not a core.Injector)", m)
			return
		}
		if spec.Topology != nil && !fltOK {
			res.Err = fmt.Errorf("analysis: %T takes no topology schedules (it is not a core.Faultable)", m)
			return
		}
		// observe measures the current state: the extrema behind every
		// snapshot, and the tracked value — the spec's metric, or the
		// discrepancy straight from the extrema without a second pass.
		observe := func() (val, lo, hi int64) {
			lo, hi = core.Extrema(m.State())
			if spec.Metric != nil {
				return spec.Metric.Measure(m.State()), lo, hi
			}
			return hi - lo, lo, hi
		}
		target, targetSet := int64(0), false
		if spec.TargetDiscrepancy != nil {
			target, targetSet = *spec.TargetDiscrepancy, true
		}
		disc, lo, hi := observe()
		best := disc
		res.MinDiscrepancy = best
		res.FinalDiscrepancy = disc
		horizon := res.Horizon

		if targetSet && disc <= target {
			// The initial vector already meets the target: a time-to-target
			// measurement is 0 rounds, not "whenever the trajectory next
			// happens to dip under it". A topology schedule, like a workload
			// one, makes the run dynamic: it continues to its horizon.
			res.ReachedTarget = true
			res.TargetRound = 0
			if spec.Events == nil && spec.Topology == nil {
				if spec.SampleEvery > 0 {
					// The stopping state joins the series here too, so a
					// sampled spec always produces a (one-point) trajectory.
					res.Series = append(res.Series, Point{Round: 0, Discrepancy: disc, Max: hi, Min: lo})
				}
				yield(0, Snapshot{Discrepancy: disc, Max: hi, Min: lo})
				return
			}
		}

		// Round 0 — the state before the first round — opens every stream.
		if !yield(0, Snapshot{Discrepancy: disc, Max: hi, Min: lo}) {
			if spec.SampleEvery > 0 {
				// A consumer break is a stopping round like any other: a
				// sampled spec always produces a (one-point) trajectory.
				res.Series = append(res.Series, Point{Round: 0, Discrepancy: disc, Max: hi, Min: lo})
			}
			return
		}

		// patienceBest/lastImprovement drive early stopping; unlike best they
		// restart at every shock and at every fault. openFrom indexes the
		// first shock still awaiting recovery — recoveries close all open
		// shocks at once, so the open ones always form a suffix of
		// res.Shocks. openFaultFrom mirrors it for fault events.
		patienceBest := disc
		lastImprovement := 0
		openFrom := 0
		openFaultFrom := 0
		var delta []int64
		if spec.Events != nil {
			delta = make([]int64, m.N())
		}
		// cyc, on a static run of a core.Recurrent model, finds the cycle the
		// full state enters; every round after that replays the cycle's
		// observation instead of stepping, so the bookkeeping below sees the
		// same values either way.
		cyc := newRecurrence(spec, m, horizon)

		closeShocks := func(round int) {
			for i := openFrom; i < len(res.Shocks); i++ {
				res.Shocks[i].RecoveryRound = round
				res.Shocks[i].RecoveryRounds = round - res.Shocks[i].Round
			}
			openFrom = len(res.Shocks)
		}

		closeFaults := func(round int) {
			for i := openFaultFrom; i < len(res.Faults); i++ {
				res.Faults[i].RecoveryRound = round
				res.Faults[i].RecoveryRounds = round - res.Faults[i].Round
			}
			openFaultFrom = len(res.Faults)
		}

		// updateFaultPeaks folds the current effective discrepancy into every
		// open fault event's peak, with the same backward-walk amortization as
		// updatePeaks below.
		updateFaultPeaks := func(eff int64) {
			for i := len(res.Faults) - 1; i >= openFaultFrom; i-- {
				if res.Faults[i].PeakDiscrepancy >= eff {
					break
				}
				res.Faults[i].PeakDiscrepancy = eff
			}
		}

		// updatePeaks folds disc into every open shock's peak. Open shocks
		// form a suffix with nested observation windows, so their peaks are
		// non-increasing in shock index — walking backward and stopping at the
		// first peak already ≥ disc updates exactly the shocks that need it,
		// keeping targetless runs with per-round schedules (arbitrarily many
		// open shocks) amortized O(1) per round instead of quadratic.
		updatePeaks := func(disc int64) {
			for i := len(res.Shocks) - 1; i >= openFrom; i-- {
				if res.Shocks[i].PeakDiscrepancy >= disc {
					break
				}
				res.Shocks[i].PeakDiscrepancy = disc
			}
		}

		// finish records the stopping state, appending the final sample when
		// the stop fell between sampling points (the interval loop alone would
		// drop the round that actually stopped the run).
		finish := func(round int, disc, lo, hi int64, sampled bool) {
			res.Rounds = round
			res.FinalDiscrepancy = disc
			res.MinDiscrepancy = best
			if spec.SampleEvery > 0 && !sampled {
				res.Series = append(res.Series, Point{Round: round, Discrepancy: disc, Max: hi, Min: lo})
			}
		}

		// inject applies the schedule's delta after `completed` rounds and
		// yields the post-injection snapshot; it reports whether the stream's
		// consumer wants to continue, finalizing the bookkeeping at the
		// post-injection state when the consumer breaks on the shock.
		inject := func(completed int) bool {
			for i := range delta {
				delta[i] = 0
			}
			if !spec.Events.DeltaInto(completed, m.State(), delta) {
				return true
			}
			var added, removed int64
			for _, d := range delta {
				if d > 0 {
					added += d
				} else {
					removed -= d
				}
			}
			if added == 0 && removed == 0 {
				return true
			}
			if err := inj.ApplyDelta(delta); err != nil {
				// Unreachable by construction (delta has N entries), but a
				// schedule bug must not pass silently.
				panic(err)
			}
			after, ilo, ihi := observe()
			// Shocks can overlap: an injection while earlier shocks are still
			// unrecovered is part of their observation window, so the
			// post-injection spike counts toward their peaks too.
			updatePeaks(after)
			res.Shocks = append(res.Shocks, Shock{
				Round: completed, Added: added, Removed: removed,
				Discrepancy: after, PeakDiscrepancy: after,
				RecoveryRound: -1, RecoveryRounds: -1,
			})
			if after < best {
				best = after
				res.MinDiscrepancy = best
			}
			patienceBest = after
			lastImprovement = completed
			if spec.SampleEvery > 0 {
				res.Series = append(res.Series, Point{
					Round: completed, Discrepancy: after, Max: ihi, Min: ilo,
					Shock: true, Injected: added - removed,
				})
			}
			if targetSet && after <= target {
				// The injection itself kept (or restored) the target: the
				// shocks recover instantly, and a first-ever reach between
				// rounds is attributed to the round just completed, mirroring
				// the round loop's bookkeeping.
				closeShocks(completed)
				if !res.ReachedTarget {
					res.ReachedTarget = true
					res.TargetRound = completed
				}
			}
			if !yield(completed, Snapshot{
				Discrepancy: after, Max: ihi, Min: ilo,
				Shock: true, Injected: added - removed,
			}) {
				// The consumer stopped on the shock: the injection is already
				// recorded (Shocks, and a Shock-marked Series point when
				// sampling), so finalize at the post-injection state without
				// appending a second sample for the same round.
				finish(completed, after, ilo, ihi, true)
				return false
			}
			return true
		}

		// last* track the most recently completed round's state so the
		// horizon-exhausted and canceled exits can finalize without an extra
		// pass over the loads.
		lastDisc, lastLo, lastHi := disc, lo, hi
		lastSampled := false

		// injectFault applies the topology schedule's delta after `completed`
		// rounds — before the same round's workload injection — records the
		// FaultEvent, and yields the post-event snapshot. It reports whether
		// the stream should continue; on a schedule error (a generator
		// addressing a node out of range) or a consumer break it finalizes
		// the bookkeeping itself.
		injectFault := func(completed int) bool {
			tdelta, fire := spec.Topology.DeltaAt(completed, spec.Balancing.Graph())
			if !fire || tdelta.Empty() {
				return true
			}
			ch, err := flt.ApplyTopologyDelta(tdelta)
			if err != nil {
				res.Err = fmt.Errorf("analysis: topology schedule at round %d: %w", completed, err)
				finish(completed, lastDisc, lastLo, lastHi, lastSampled)
				return false
			}
			if !ch.Changed() {
				return true
			}
			fdisc, flo, fhi := observe()
			_, comps := flt.Components()
			eff := flt.EffectiveDiscrepancy()
			// A redistribution (or the next fault of a flap) can spike the
			// global discrepancy inside open shock windows too.
			updatePeaks(fdisc)
			updateFaultPeaks(eff)
			res.Faults = append(res.Faults, FaultEvent{
				Round:       completed,
				FailedLinks: ch.FailedLinks, RestoredLinks: ch.RestoredLinks,
				FailedNodes: ch.FailedNodes, RestoredNodes: ch.RestoredNodes,
				Stranded: ch.Stranded, Redistributed: ch.Redistributed,
				Components:  comps,
				Gap:         spectral.FaultedGap(spec.Balancing, flt.ArcAlive()),
				Discrepancy: eff, PeakDiscrepancy: eff,
				RecoveryRound: -1, RecoveryRounds: -1,
				UnreachableLoad: flt.UnreachableLoad(),
			})
			if fdisc < best {
				best = fdisc
				res.MinDiscrepancy = best
			}
			// A fault restarts the patience clock: the pre-fault minimum is
			// not a meaningful baseline while the system re-converges on the
			// changed graph.
			patienceBest = fdisc
			lastImprovement = completed
			if spec.SampleEvery > 0 {
				res.Series = append(res.Series, Point{
					Round: completed, Discrepancy: fdisc, Max: fhi, Min: flo,
					Fault: true, FaultChange: ch, Components: comps,
				})
			}
			if targetSet && eff <= target {
				// A restore (or a stranding that removed the outliers) can
				// itself re-reach the effective target: the faults recover
				// instantly.
				closeFaults(completed)
			}
			if !yield(completed, Snapshot{
				Discrepancy: fdisc, Max: fhi, Min: flo,
				Fault: true, FaultChange: ch, Components: comps,
			}) {
				finish(completed, fdisc, flo, fhi, true)
				return false
			}
			lastDisc, lastLo, lastHi = fdisc, flo, fhi
			return true
		}

		for round := 1; round <= horizon; round++ {
			if ctx.Err() != nil {
				// Per-round cancellation: the run stops before starting
				// another round, keeping every completed round's bookkeeping.
				res.Err = &streamCanceledError{cause: context.Cause(ctx)}
				// lastSampled alone decides the final-sample append: a cancel
				// before the first round records the round-0 state, matching
				// the consumer-break-at-round-0 path — a sampled spec always
				// produces a trajectory.
				finish(round-1, lastDisc, lastLo, lastHi, lastSampled)
				return
			}
			if spec.Topology != nil && !injectFault(round-1) {
				// injectFault already finalized at the post-event state.
				return
			}
			if spec.Events != nil && !inject(round-1) {
				// inject already finalized at the post-injection state.
				return
			}
			var o observation
			if cyc.period > 0 {
				o = cyc.replay(round)
			} else {
				if err := m.Step(); err != nil {
					// The failed round did execute (state is left advanced
					// for debugging), so its value joins the bookkeeping like
					// any other stopping round.
					res.Err = err
					sdisc, slo, shi := observe()
					if sdisc < best {
						best = sdisc
					}
					finish(round, sdisc, slo, shi, false)
					yield(round, Snapshot{Discrepancy: sdisc, Max: shi, Min: slo})
					return
				}
				o.disc, o.lo, o.hi = observe()
				if cyc.rec != nil {
					if cyc.record(round, o); cyc.period > 0 {
						res.Cycle = cyc.cycle()
					}
				}
			}
			disc, lo, hi := o.disc, o.lo, o.hi
			sampled := false
			if spec.SampleEvery > 0 && round%spec.SampleEvery == 0 {
				res.Series = append(res.Series, Point{Round: round, Discrepancy: disc, Max: hi, Min: lo})
				sampled = true
			}
			if disc < best {
				best = disc
			}
			if disc < patienceBest {
				patienceBest = disc
				lastImprovement = round
			}
			updatePeaks(disc)
			// Fault recovery is judged on the effective (per-component)
			// discrepancy; computing it is only worth a components lookup
			// while fault events are actually open.
			if len(res.Faults) > openFaultFrom {
				eff := flt.EffectiveDiscrepancy()
				updateFaultPeaks(eff)
				if targetSet && eff <= target {
					closeFaults(round)
				}
			}
			if targetSet && disc <= target {
				closeShocks(round)
				if !res.ReachedTarget {
					res.ReachedTarget = true
					res.TargetRound = round
				}
				if spec.Events == nil && spec.Topology == nil {
					finish(round, disc, lo, hi, sampled)
					yield(round, Snapshot{Discrepancy: disc, Max: hi, Min: lo})
					return
				}
			}
			if spec.Patience > 0 && round-lastImprovement >= spec.Patience {
				res.StoppedEarly = true
				finish(round, disc, lo, hi, sampled)
				yield(round, Snapshot{Discrepancy: disc, Max: hi, Min: lo})
				return
			}
			lastDisc, lastLo, lastHi, lastSampled = disc, lo, hi, sampled
			if round < horizon {
				if !yield(round, Snapshot{Discrepancy: disc, Max: hi, Min: lo}) {
					finish(round, disc, lo, hi, sampled)
					return
				}
			}
		}
		// Horizon exhausted — the normal exit for every dynamic run (the
		// target defines recovery, not termination). The final state joins the
		// series like any other stopping round when it fell mid-interval.
		finish(horizon, lastDisc, lastLo, lastHi, lastSampled || horizon < 1)
		if horizon >= 1 {
			yield(horizon, Snapshot{Discrepancy: lastDisc, Max: lastHi, Min: lastLo})
		}
	}
}

package core

import (
	"fmt"
)

// Requirements declares which optional engine tracking an auditor needs.
type Requirements struct {
	// Flows requests cumulative per-arc flow counters F_t(e).
	Flows bool
	// SelfLoops requests per-self-loop token assignments from balancers.
	SelfLoops bool
}

// Auditor checks a runtime invariant after every round. prevLoads is x_t (the
// vector the round's sends were computed from), sends[u][i] the tokens sent
// over u's i-th original edge, selfLoops the per-self-loop assignments (nil
// unless requested). Returning an error aborts the run.
type Auditor interface {
	Requires() Requirements
	Observe(e *Engine, prevLoads []int64, sends, selfLoops [][]int64) error
}

// DeltaObserver is an optional Auditor extension for auditors that track
// cross-round aggregates: Engine.ApplyDelta notifies them of every injected
// load delta so subsequent rounds are audited against the adjusted state
// (e.g. the conservation total grows by the injected tokens) rather than
// misreported as violations.
type DeltaObserver interface {
	ObserveDelta(e *Engine, delta []int64)
}

// ConservationAuditor verifies that the total token count never changes
// (Section 1.3: "the total load summed over all nodes does not change").
// Between-round injections via Engine.ApplyDelta adjust the expected total
// (through DeltaObserver); each Step must still conserve exactly.
type ConservationAuditor struct {
	total int64
	seen  bool
}

// NewConservationAuditor returns a token-conservation checker.
func NewConservationAuditor() *ConservationAuditor { return &ConservationAuditor{} }

// Requires implements Auditor.
func (a *ConservationAuditor) Requires() Requirements { return Requirements{} }

// ObserveDelta implements DeltaObserver: injected tokens move the expected
// total.
func (a *ConservationAuditor) ObserveDelta(_ *Engine, delta []int64) {
	if !a.seen {
		return // total not latched yet; the first Observe sees the injected vector
	}
	for _, d := range delta {
		a.total += d
	}
}

// Observe implements Auditor.
func (a *ConservationAuditor) Observe(e *Engine, prevLoads []int64, _, _ [][]int64) error {
	var before, after int64
	for _, v := range prevLoads {
		before += v
	}
	for _, v := range e.Loads() {
		after += v
	}
	if !a.seen {
		a.total = before
		a.seen = true
	}
	if before != a.total || after != a.total {
		return fmt.Errorf("token conservation violated: initial %d, before-round %d, after-round %d",
			a.total, before, after)
	}
	return nil
}

// NonNegativeAuditor fails as soon as any node's load goes negative. The
// paper's deterministic algorithms never produce negative load (Table 1's
// "NL" column); some literature baselines do.
type NonNegativeAuditor struct{}

// NewNonNegativeAuditor returns a negative-load checker.
func NewNonNegativeAuditor() *NonNegativeAuditor { return &NonNegativeAuditor{} }

// Requires implements Auditor.
func (a *NonNegativeAuditor) Requires() Requirements { return Requirements{} }

// Observe implements Auditor.
func (a *NonNegativeAuditor) Observe(e *Engine, _ []int64, _, _ [][]int64) error {
	for u, v := range e.Loads() {
		if v < 0 {
			return fmt.Errorf("negative load %d at node %d", v, u)
		}
	}
	return nil
}

// NegativeLoadCounter records (without failing) how many node-rounds saw
// negative load; experiment tables report it for the baselines that admit it.
type NegativeLoadCounter struct {
	Events int64
	Rounds int
}

// NewNegativeLoadCounter returns a non-failing negative-load recorder.
func NewNegativeLoadCounter() *NegativeLoadCounter { return &NegativeLoadCounter{} }

// Requires implements Auditor.
func (a *NegativeLoadCounter) Requires() Requirements { return Requirements{} }

// Observe implements Auditor.
func (a *NegativeLoadCounter) Observe(e *Engine, _ []int64, _, _ [][]int64) error {
	neg := false
	for _, v := range e.Loads() {
		if v < 0 {
			a.Events++
			neg = true
		}
	}
	if neg {
		a.Rounds++
	}
	return nil
}

// CumulativeFairnessAuditor checks condition (ii) of Def 2.1: at every time t
// and node u, the cumulative flows over any two original edges of u differ by
// at most δ. With Limit < 0 it never fails and only records the largest
// deviation seen (the empirical fairness constant of Observation 2.2).
type CumulativeFairnessAuditor struct {
	// Limit is the δ to enforce; negative means record-only.
	Limit int64
	// MaxDelta is the largest per-node cumulative flow spread observed.
	MaxDelta int64
}

// NewCumulativeFairnessAuditor enforces cumulative δ-fairness with the given
// limit (negative = record only).
func NewCumulativeFairnessAuditor(limit int64) *CumulativeFairnessAuditor {
	return &CumulativeFairnessAuditor{Limit: limit}
}

// Requires implements Auditor.
func (a *CumulativeFairnessAuditor) Requires() Requirements { return Requirements{Flows: true} }

// Observe implements Auditor.
func (a *CumulativeFairnessAuditor) Observe(e *Engine, _ []int64, _, _ [][]int64) error {
	for u, fu := range e.Flows() {
		lo, hi := fu[0], fu[0]
		for _, f := range fu[1:] {
			if f < lo {
				lo = f
			}
			if f > hi {
				hi = f
			}
		}
		spread := hi - lo
		if spread > a.MaxDelta {
			a.MaxDelta = spread
		}
		if a.Limit >= 0 && spread > a.Limit {
			return fmt.Errorf("cumulative fairness violated at node %d: flow spread %d > δ=%d", u, spread, a.Limit)
		}
	}
	return nil
}

// MinShareAuditor checks condition (i) of Def 2.1: every edge of u, original
// and self-loop, receives at least ⌊x_t(u)/d⁺⌋ tokens each round.
type MinShareAuditor struct{}

// NewMinShareAuditor returns the minimum-share checker of Def 2.1(i).
func NewMinShareAuditor() *MinShareAuditor { return &MinShareAuditor{} }

// Requires implements Auditor.
func (a *MinShareAuditor) Requires() Requirements { return Requirements{SelfLoops: true} }

// Observe implements Auditor. Arcs the fault overlay marked dead are skipped:
// their sends were bounced back to the sender and zeroed, which is the
// overlay's doing, not the balancer's.
func (a *MinShareAuditor) Observe(e *Engine, prevLoads []int64, sends, selfLoops [][]int64) error {
	dplus := e.Balancing().DegreePlus()
	alive := e.ArcAlive()
	d := e.Balancing().Degree()
	for u, x := range prevLoads {
		floor := FloorShare(x, dplus)
		for i, s := range sends[u] {
			if alive != nil && !alive[u*d+i] {
				continue
			}
			if s < floor {
				return fmt.Errorf("min-share violated at node %d edge %d: sent %d < ⌊%d/%d⌋=%d", u, i, s, x, dplus, floor)
			}
		}
		if selfLoops != nil {
			for j, s := range selfLoops[u] {
				if s < floor {
					return fmt.Errorf("min-share violated at node %d self-loop %d: %d < ⌊%d/%d⌋=%d", u, j, s, x, dplus, floor)
				}
			}
		}
	}
	return nil
}

// RoundFairAuditor checks Def 3.1's round-fairness: every edge (original and
// self-loop) receives ⌊x/d⁺⌋ or ⌈x/d⁺⌉ tokens, and the whole load is
// distributed (no remainder outside the loops).
type RoundFairAuditor struct{}

// NewRoundFairAuditor returns the round-fairness checker of Def 3.1.
func NewRoundFairAuditor() *RoundFairAuditor { return &RoundFairAuditor{} }

// Requires implements Auditor.
func (a *RoundFairAuditor) Requires() Requirements { return Requirements{SelfLoops: true} }

// Observe implements Auditor. Under the fault overlay, dead arcs carry
// bounced (zeroed) sends that were each a valid {⌊x/d⁺⌋, ⌈x/d⁺⌉} share before
// the bounce, so the audit checks live arcs exactly and bounds the residual
// x − Σ_live − Σ_loops by the dead arcs' share range (with no dead arcs this
// reduces to the exact residual == 0 check).
func (a *RoundFairAuditor) Observe(e *Engine, prevLoads []int64, sends, selfLoops [][]int64) error {
	dplus := e.Balancing().DegreePlus()
	alive := e.ArcAlive()
	d := e.Balancing().Degree()
	for u, x := range prevLoads {
		floor := FloorShare(x, dplus)
		ceil := CeilShare(x, dplus)
		var sum int64
		dead := int64(0)
		for i, s := range sends[u] {
			if alive != nil && !alive[u*d+i] {
				dead++
				continue
			}
			if s < floor || s > ceil {
				return fmt.Errorf("round-fairness violated at node %d edge %d: sent %d ∉ {%d,%d}", u, i, s, floor, ceil)
			}
			sum += s
		}
		for j, s := range selfLoops[u] {
			if s < floor || s > ceil {
				return fmt.Errorf("round-fairness violated at node %d self-loop %d: %d ∉ {%d,%d}", u, j, s, floor, ceil)
			}
			sum += s
		}
		if rem := x - sum; rem < dead*floor || rem > dead*ceil {
			if dead == 0 {
				return fmt.Errorf("round-fairness violated at node %d: distributed %d of load %d", u, sum, x)
			}
			return fmt.Errorf("round-fairness violated at node %d: residual %d outside %d dead arcs' share range [%d,%d]",
				u, rem, dead, dead*floor, dead*ceil)
		}
	}
	return nil
}

// SelfPreferenceAuditor checks Def 3.1(2): with e(u) = x_t(u) − d⁺·⌊x_t(u)/d⁺⌋
// excess tokens, at least min(s, e(u)) self-loops receive ⌈x_t(u)/d⁺⌉ tokens.
type SelfPreferenceAuditor struct {
	// S is the self-preference parameter of the balancer under audit.
	S int
}

// NewSelfPreferenceAuditor returns the s-self-preference checker of Def 3.1.
func NewSelfPreferenceAuditor(s int) *SelfPreferenceAuditor {
	return &SelfPreferenceAuditor{S: s}
}

// Requires implements Auditor.
func (a *SelfPreferenceAuditor) Requires() Requirements { return Requirements{SelfLoops: true} }

// Observe implements Auditor.
func (a *SelfPreferenceAuditor) Observe(e *Engine, prevLoads []int64, sends, selfLoops [][]int64) error {
	dplus := e.Balancing().DegreePlus()
	for u, x := range prevLoads {
		if x < 0 {
			return fmt.Errorf("self-preference audit: negative load %d at node %d", x, u)
		}
		floor := FloorShare(x, dplus)
		excess := x - int64(dplus)*floor
		want := int64(a.S)
		if excess < want {
			want = excess
		}
		if want <= 0 {
			continue
		}
		ceil := floor + 1
		var got int64
		for _, s := range selfLoops[u] {
			if s >= ceil {
				got++
			}
		}
		if got < want {
			return fmt.Errorf("self-preference violated at node %d: %d self-loops got ⌈x/d⁺⌉, need min(s=%d,e=%d)=%d",
				u, got, a.S, excess, want)
		}
	}
	return nil
}

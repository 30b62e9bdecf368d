package protocol

import (
	"fmt"

	"detlb/internal/core"
)

// Four-state exact-majority encoding: each agent holds a signed opinion with
// a strength bit. Strong agents still carry their original vote; weak agents
// have met the opposition and merely lean. The signed values make the vector
// directly reusable as a diffusion load vector (the majority-vs-rotor preset
// runs the same ±2 vector through both model families).
const (
	StrongA int64 = 2  // strong positive opinion
	WeakA   int64 = 1  // weak positive opinion
	WeakB   int64 = -1 // weak negative opinion
	StrongB int64 = -2 // strong negative opinion
)

var (
	_ core.ModelBuilder = (*MajorityBuilder)(nil)
	_ core.Model        = (*Majority)(nil)
)

// MajorityBuilder constructs four-state exact-majority machines for a fixed
// population size and scheduler seed. One builder value is the unit of sweep
// grouping: specs sharing it reuse a single machine via Reset.
type MajorityBuilder struct {
	n    int
	seed uint64
}

// NewMajority returns a builder for the four-state exact-majority protocol on
// a well-mixed population of n agents: the scheduler draws uniform random
// ordered pairs, the classical complete-interaction-graph setting of the
// population-protocol literature. (Restricting interactions to a sparse
// graph's edges makes exact majority non-convergent — two surviving strong
// opposites with no edge between them can never cancel — so the scenario
// graph contributes the agent count and metadata, not the interaction
// topology, exactly as it does for Herman's ring.)
func NewMajority(n int, seed uint64) *MajorityBuilder {
	if n < 2 {
		panic(fmt.Sprintf("protocol: majority needs at least 2 agents, got %d", n))
	}
	return &MajorityBuilder{n: n, seed: seed}
}

// Name identifies the builder: "majority(seed=s)".
func (mb *MajorityBuilder) Name() string { return fmt.Sprintf("majority(seed=%d)", mb.seed) }

// DefaultHorizon returns 8n rounds (= 8n² pairwise interactions), a generous
// cap for the O(n log n)-interaction typical case; close margins are governed
// by Patience/Target rather than the horizon.
func (mb *MajorityBuilder) DefaultHorizon(n int) int { return 8 * n }

// New builds a machine initialized with a copy of x1 (entries must be one of
// ±1, ±2). workers is ignored: one round is n sequential pairwise
// interactions — interaction k+1 reads interaction k's writes — so the
// machine is inherently serial and trivially bit-identical across worker
// counts.
func (mb *MajorityBuilder) New(x1 []int64, workers int) (core.Model, error) {
	if len(x1) != mb.n {
		return nil, fmt.Errorf("protocol: majority state vector has %d entries for %d nodes", len(x1), mb.n)
	}
	if err := validateOpinions(x1); err != nil {
		return nil, err
	}
	m := &Majority{
		state:    append([]int64(nil), x1...),
		n:        mb.n,
		seed:     mb.seed,
		auditors: []Auditor{NewMarginAuditor()},
	}
	for _, a := range m.auditors {
		a.ResetState(m.state)
	}
	return m, nil
}

func validateOpinions(x []int64) error {
	for u, v := range x {
		switch v {
		case StrongA, WeakA, WeakB, StrongB:
		default:
			return badState("majority", u, v, "±1 or ±2")
		}
	}
	return nil
}

// Majority is the four-state exact-majority machine of the log-time majority
// line of work: strong opposite opinions cancel to weak ones, strong
// opinions convert opposite weak ones, and the conserved margin
// #StrongA − #StrongB decides the outcome — the protocol computes the exact
// initial majority, not an approximation. One synchronous round is n
// pairwise interactions drawn by the seeded SplitMix64 scheduler.
type Majority struct {
	state    []int64
	n        int
	seed     uint64
	round    int
	auditors []Auditor
}

// N returns the number of agents.
func (m *Majority) N() int { return m.n }

// State returns the current opinion vector. Shared; do not modify.
func (m *Majority) State() []int64 { return m.state }

// Round returns the number of completed rounds.
func (m *Majority) Round() int { return m.round }

// Step executes one round: n pairwise interactions. Interaction g (a global
// counter, so trajectories are a pure function of (x1, seed)) hashes to one
// 64-bit word; the low bits pick the initiator u, the high bits pick the
// responder uniformly among the other n−1 agents. Zero allocations.
//
//detcheck:noalloc
func (m *Majority) Step() error {
	m.round++
	n := uint64(m.n)
	base := uint64(m.round-1) * n
	for k := uint64(0); k < n; k++ {
		h := splitmix64(m.seed ^ (base+k+1)*gamma)
		u := int(h % n)
		v := int((uint64(u) + 1 + (h>>32)%(n-1)) % n)
		m.state[u], m.state[v] = interact(m.state[u], m.state[v])
	}
	for _, a := range m.auditors {
		if err := a.Observe(m.round, m.state); err != nil {
			//detcheck:allow hotalloc cold error path; an auditor violation already aborts the run
			return fmt.Errorf("protocol: round %d: %w", m.round, err)
		}
	}
	return nil
}

// interact is the four-state transition table: strong–strong opposites cancel
// to their weak forms; a strong agent converts an opposite weak one to its
// own weak sign; every other pairing is a no-op. The margin
// #StrongA − #StrongB is invariant under all six rules.
func interact(a, b int64) (int64, int64) {
	switch {
	case a == StrongA && b == StrongB:
		return WeakA, WeakB
	case a == StrongB && b == StrongA:
		return WeakB, WeakA
	case a == StrongA && b == WeakB:
		return a, WeakA
	case a == StrongB && b == WeakA:
		return a, WeakB
	case a == WeakB && b == StrongA:
		return WeakA, b
	case a == WeakA && b == StrongB:
		return WeakB, b
	}
	return a, b
}

// Reset rewinds the machine to round zero with a new opinion vector, reusing
// every allocation and re-arming the auditors; the trajectory afterwards is
// bit-identical to a fresh machine's.
func (m *Majority) Reset(x1 []int64) error {
	if len(x1) != m.n {
		return fmt.Errorf("protocol: majority reset vector has %d entries for %d nodes", len(x1), m.n)
	}
	if err := validateOpinions(x1); err != nil {
		return err
	}
	copy(m.state, x1)
	m.round = 0
	for _, a := range m.auditors {
		a.ResetState(m.state)
	}
	return nil
}

// Close is a no-op; the machine owns no worker pool.
func (m *Majority) Close() {}

// MarginAuditor pins the exact-majority conservation law: the margin
// #StrongA − #StrongB never changes, because strong opinions are only ever
// destroyed in opposite pairs. A violated margin means the transition table
// (or the scheduler feeding it) is broken.
type MarginAuditor struct {
	margin int64
}

// NewMarginAuditor returns an un-armed margin auditor; ResetState arms it.
func NewMarginAuditor() *MarginAuditor { return &MarginAuditor{} }

// ResetState records the initial margin of a fresh run.
func (a *MarginAuditor) ResetState(state []int64) { a.margin = Margin(state) }

// Observe fails if the margin moved.
func (a *MarginAuditor) Observe(round int, state []int64) error {
	if got := Margin(state); got != a.margin {
		return fmt.Errorf("majority margin not conserved: %d -> %d", a.margin, got)
	}
	return nil
}

// Margin returns #StrongA − #StrongB, the conserved quantity whose sign is
// the exact initial majority.
func Margin(state []int64) int64 {
	var m int64
	for _, v := range state {
		switch v {
		case StrongA:
			m++
		case StrongB:
			m--
		}
	}
	return m
}

// Unconverged is the majority convergence metric: the number of agents still
// holding the minority sign (min(#positive, #negative)). It reaches 0 exactly
// at consensus, making TargetDiscrepancy = 0 the time-to-consensus analogue
// of the diffusion target.
var Unconverged core.Metric = unconvergedMetric{}

type unconvergedMetric struct{}

func (unconvergedMetric) Name() string { return "unconverged" }

func (unconvergedMetric) Measure(state []int64) int64 {
	var pos, neg int64
	for _, v := range state {
		if v > 0 {
			pos++
		} else if v < 0 {
			neg++
		}
	}
	if pos < neg {
		return pos
	}
	return neg
}

package protocol

import (
	"fmt"
	"runtime"

	"detlb/internal/core"
)

var (
	_ core.ModelBuilder = (*HermanBuilder)(nil)
	_ core.Model        = (*Herman)(nil)
)

// HermanBuilder constructs Herman self-stabilization machines with a fixed
// coin seed. The protocol runs on the node-index ring i → (i+1) mod n — the
// classical setting — regardless of the scenario's graph, which contributes
// only the node count (and metadata labels).
type HermanBuilder struct {
	seed uint64
}

// NewHerman returns a builder for Herman's self-stabilizing token
// circulation: state 1 means the node holds a token; each round every token
// flips a seeded coin to stay or move one step clockwise, and two tokens
// landing on the same node annihilate. From any odd number of tokens the
// ring converges to exactly one circulating token — the stabilized
// mutual-exclusion regime.
func NewHerman(seed uint64) *HermanBuilder { return &HermanBuilder{seed: seed} }

// Name identifies the builder: "herman(seed=s)".
func (hb *HermanBuilder) Name() string { return fmt.Sprintf("herman(seed=%d)", hb.seed) }

// DefaultHorizon returns 8n², a generous multiple of the protocol's O(n²)
// expected stabilization time (the Herman-protocol conjecture territory:
// worst-case expectation ≈ 0.148 n² from three equidistant tokens).
func (hb *HermanBuilder) DefaultHorizon(n int) int { return 8 * n * n }

// New builds a machine initialized with a copy of x1: entries must be 0 or 1
// and the token count must be odd (even counts can annihilate to zero tokens,
// which the protocol never recovers from — odd configurations are the
// protocol's legal space, and the TokenAuditor pins the parity). workers
// sizes the machine's kernel; rounds are two data-parallel phases and
// bit-identical at every width.
func (hb *HermanBuilder) New(x1 []int64, workers int) (core.Model, error) {
	n := len(x1)
	if n == 0 {
		return nil, fmt.Errorf("protocol: herman needs a non-empty ring")
	}
	var tokens int64
	for u, v := range x1 {
		if v != 0 && v != 1 {
			return nil, badState("herman", u, v, "0 or 1")
		}
		tokens += v
	}
	if tokens%2 == 0 {
		return nil, fmt.Errorf("protocol: herman needs an odd token count, got %d", tokens)
	}
	m := &Herman{
		state:    append([]int64(nil), x1...),
		keep:     make([]int64, n),
		pass:     make([]int64, n),
		n:        n,
		seed:     hb.seed,
		kern:     core.NewKernel(workers),
		auditors: []Auditor{NewTokenAuditor()},
	}
	if m.kern.Width() > 1 {
		runtime.AddCleanup(m, func(k *core.Kernel) { k.Close() }, m.kern)
	}
	m.flip = m.flipPhase
	m.merge = m.mergePhase
	for _, a := range m.auditors {
		a.ResetState(m.state)
	}
	return m, nil
}

// Herman is the synchronous, seeded-coin variant of Herman's self-stabilizing
// token ring. One round is two kernel phases: every token-holding node flips
// a coin derived from (seed, round, node) and decides keep-or-pass; after the
// barrier every node XORs its kept token with its predecessor's passed one,
// so two tokens meeting annihilate. Token-count parity is conserved and the
// count is monotone non-increasing, so an odd start converges to one token.
type Herman struct {
	state []int64 // 1 = node holds a token
	keep  []int64 // phase-1 scratch: token staying at i
	pass  []int64 // phase-1 scratch: token leaving i clockwise
	n     int
	seed  uint64
	round int

	kern     *core.Kernel
	auditors []Auditor

	// flip and merge are the two phase closures, bound once at construction
	// so Step allocates nothing.
	flip, merge func(lo, hi int)
}

// N returns the ring size.
func (m *Herman) N() int { return m.n }

// State returns the current token vector. Shared; do not modify.
func (m *Herman) State() []int64 { return m.state }

// Round returns the number of completed rounds.
func (m *Herman) Round() int { return m.round }

// flipPhase decides keep-or-pass for every token on [lo, hi). The coin for
// node i in round r hashes the global counter r·n + i, so the schedule is a
// pure function of (seed, round, node) — independent of chunking.
func (m *Herman) flipPhase(lo, hi int) {
	round := uint64(m.round)
	n := uint64(m.n)
	for i := lo; i < hi; i++ {
		if m.state[i] == 0 {
			m.keep[i], m.pass[i] = 0, 0
			continue
		}
		h := splitmix64(m.seed ^ (round*n+uint64(i)+1)*gamma)
		if h&1 == 1 {
			m.keep[i], m.pass[i] = 0, 1
		} else {
			m.keep[i], m.pass[i] = 1, 0
		}
	}
}

// mergePhase combines kept tokens with the predecessor's passed ones on
// [lo, hi). XOR is the annihilation rule: a kept token meeting an arriving
// one destroys both. Reads only phase-1 results, whose completeness the
// kernel's round barrier guarantees.
func (m *Herman) mergePhase(lo, hi int) {
	for i := lo; i < hi; i++ {
		prev := i - 1
		if prev < 0 {
			prev = m.n - 1
		}
		m.state[i] = m.keep[i] ^ m.pass[prev]
	}
}

// Step executes one synchronous round: one fused kernel dispatch (flip,
// barrier, merge), then the invariant auditors. Zero allocations.
//
//detcheck:noalloc
func (m *Herman) Step() error {
	m.round++
	m.kern.RunRound(m.n, m.flip, m.merge)
	for _, a := range m.auditors {
		if err := a.Observe(m.round, m.state); err != nil {
			//detcheck:allow hotalloc cold error path; an auditor violation already aborts the run
			return fmt.Errorf("protocol: round %d: %w", m.round, err)
		}
	}
	return nil
}

// Close releases the machine's kernel; idempotent.
func (m *Herman) Close() { m.kern.Close() }

// TokenAuditor pins Herman's conservation laws: the token count never
// increases, changes only in pairs (annihilation), and never reaches zero
// from a legal (odd) start. Violation means the flip/merge phases raced or
// the coin schedule drifted.
type TokenAuditor struct {
	count int64
}

// NewTokenAuditor returns an un-armed token auditor; ResetState arms it.
func NewTokenAuditor() *TokenAuditor { return &TokenAuditor{} }

// ResetState records the token count of a fresh run.
func (a *TokenAuditor) ResetState(state []int64) { a.count = TokenCount(state) }

// Observe fails on any count increase, parity change, or extinction, then
// tracks the (possibly decreased) count for the next round.
func (a *TokenAuditor) Observe(round int, state []int64) error {
	got := TokenCount(state)
	switch {
	case got > a.count:
		return fmt.Errorf("herman token count increased: %d -> %d", a.count, got)
	case (a.count-got)%2 != 0:
		return fmt.Errorf("herman token parity changed: %d -> %d", a.count, got)
	case got < 1:
		return fmt.Errorf("herman tokens extinct: %d -> %d", a.count, got)
	}
	a.count = got
	return nil
}

// TokenCount returns the number of token-holding nodes.
func TokenCount(state []int64) int64 {
	var c int64
	for _, v := range state {
		if v != 0 {
			c++
		}
	}
	return c
}

// Tokens is the Herman convergence metric: the surviving-token count. It
// reaches 1 exactly at stabilization, making TargetDiscrepancy = 1 the
// time-to-stabilization analogue of the diffusion target.
var Tokens core.Metric = tokensMetric{}

type tokensMetric struct{}

func (tokensMetric) Name() string { return "tokens" }

func (tokensMetric) Measure(state []int64) int64 { return TokenCount(state) }

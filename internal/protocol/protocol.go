// Package protocol implements population-protocol dynamics as a second
// first-class model family on the core simulation kernel: the same flat
// per-node int64 state, deterministic synchronous rounds, and bit-identical
// results at every worker count that the token-diffusion engine provides —
// but the per-round transition is pairwise agent interaction (majority
// dynamics) or ring token circulation (Herman's self-stabilization) instead
// of load diffusion.
//
// Determinism: population protocols are probabilistic on paper (a uniformly
// random scheduler picks the interacting pair). Here every random choice is
// derived by hashing a (seed, interaction counter) pair through the
// SplitMix64 finalizer, so a machine's trajectory is a pure function of
// (initial state, seed) — replayable, archivable, and bit-identical across
// Run/Sweep/Stream and worker counts, exactly like the diffusion engine's
// rounds. Changing the seed selects a different but equally valid schedule.
//
// Each machine ships with conservation-style invariant auditors (opinion
// margin for majority, token count/parity for Herman) that run after every
// round, mirroring the core engine's Auditor discipline.
package protocol

import "fmt"

// gamma is the golden-ratio increment 2⁶⁴/φ, the standard SplitMix64 stream
// constant; the scheduler hashes seed ^ counter·gamma so consecutive
// interaction counters land in unrelated parts of the mixer's domain.
const gamma = 0x9e3779b97f4a7c15

// splitmix64 is the SplitMix64 finalizer: a bijective avalanche mixer, the
// standard choice for turning a counter into high-quality pseudorandom bits
// without any carried state. (Same mixer as the workload and topology
// schedules — kept local so the protocol layer has no dependency on them.)
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Auditor checks a protocol invariant after every completed round. Auditors
// carry per-run state (the conserved quantity they pin), armed once when the
// machine is built.
type Auditor interface {
	// ResetState arms the auditor for the run starting from state; a
	// machine's constructor calls it once, before the first round.
	ResetState(state []int64)

	// Observe checks the invariant after round round. A non-nil error fails
	// the machine's Step.
	Observe(round int, state []int64) error
}

// badState formats a package-style error for an illegal state value at a
// node, naming the model whose encoding was violated.
func badState(model string, node int, v int64, want string) error {
	return fmt.Errorf("protocol: %s state %d at node %d; want %s", model, v, node, want)
}

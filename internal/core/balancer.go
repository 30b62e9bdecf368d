// Package core implements the synchronous diffusive load-balancing framework
// of the paper (Section 1.3): load vectors, the round engine, cumulative flow
// accounting F_t(e), the fairness definitions (cumulative δ-fairness of
// Def 2.1, round-fairness, s-self-preference of Def 3.1) as runtime auditors,
// and the potential functions φ_t(c), φ′_t(c) of Section 3.
//
// The engine is built around a flat memory layout: per-arc state (sends,
// cumulative flows) lives in single contiguous backing arrays of length n·d
// indexed by arc position p = u·d+i, sub-sliced per node for the NodeBalancer
// and Auditor interfaces, and a round pushes every arc's tokens onto its
// head in one linear sweep of the graph's flat CSR adjacency. A round may
// run in chunks, one on the stepping goroutine and one per helper, each
// pushing into its own accumulator, with one barrier before the fold; its
// width can change from round to round. The load trajectories are
// bit-identical for every width, including the serial engine, because
// distribution is a pure function of (node state, x_t) over disjoint node
// ranges and token arithmetic is associative. Step performs zero heap
// allocations in steady state.
package core

import "detlb/internal/graph"

// NodeBalancer computes one node's token distribution each round.
//
// Implementations may be stateful per node (e.g. a rotor position); the
// engine guarantees Distribute is called exactly once per round per node and
// never concurrently for the same node.
type NodeBalancer interface {
	// Distribute decides where the node's current load goes this round.
	//
	// sends has length d (the node's original edges, in adjacency order) and
	// must be filled with the token count for each edge. selfLoops, when
	// non-nil, has length d° and must be filled with the per-self-loop token
	// counts; implementations must tolerate selfLoops == nil (auditing off)
	// and behave identically. Tokens not placed on any edge are the node's
	// remainder r_t(u).
	//
	// The engine derives the retained load as load − Σ sends; a distribution
	// whose sends exceed the load produces negative load, which the engine
	// permits (some baselines from the literature do this) and the auditor
	// records.
	Distribute(load int64, sends, selfLoops []int64)
}

// Balancer is a load-balancing algorithm: a factory of per-node balancers
// bound to a concrete balancing graph.
type Balancer interface {
	// Name identifies the algorithm in tables, e.g. "rotor-router".
	Name() string
	// Bind instantiates per-node state for every node of b. The returned
	// slice has length b.N().
	Bind(b *graph.Balancing) []NodeBalancer
}

// RangeDistributor is the engine's bulk fast path: a bound balancer whose
// per-node distribution runs directly on the engine's flat arrays, one
// contiguous node range at a time, with no per-node interface call.
//
// It exploits a structural property shared by every deterministic scheme in
// the paper: in any round, the tokens a node sends over its original edges
// take only two values, a per-node base q and q+1. A node's whole
// distribution therefore compresses to the pair (q, mask) — mask bit i set
// iff edge i receives the extra token. The engine decodes the pairs itself:
// every chunk of a round pushes them straight onto the arcs' heads, each
// node's base less one round-wide shift (see Engine). A node on the shift
// walks only its set mask bits; any other reads its mask a byte at a time
// through a 256-row table of per-arc extra tokens. Only flow tracking,
// auditors and faults materialize the per-arc sends array.
//
// DistributeRange must, for every node u in [lo, hi), write
//
//	bp[2u]   = q(u), the base tokens sent over every original edge,
//	bp[2u+1] = the extra-token bitmask, reinterpreted as int64,
//	kept[u]  = x[u] − Σ_i sends(u,i), the tokens u retains,
//
// such that q(u) + bit_i(mask) equals exactly what u's
// NodeBalancer.Distribute(x[u], sends, nil) would have written to sends[i].
// Mask bits lie below d, the number of original edges: a bit at or above d
// names no edge, and the push of a node on the round's shift panics on it.
// The base and mask are interleaved in one array so the apply phase touches
// a single cache line per source node. The engine guarantees ranges never
// overlap across concurrent calls. Implementations must be deterministic:
// the engine's bit-identical-to-serial contract extends to the fast path,
// and the balancer package cross-checks DistributeRange against Distribute
// in tests.
//
// The engine only engages the fast path for graphs with d ≤ 64 (the mask
// width) and falls back to Bind otherwise.
type RangeDistributor interface {
	DistributeRange(x, bp, kept []int64, lo, hi int)
}

// RangeState is an optional RangeDistributor extension exposing the bound
// state's mutable words: the rotor positions of a rotor-router, nil for a
// stateless scheme. Those words and the load vector are the engine's whole
// state, so a bulk engine whose distributor implements it is Recurrent. The
// slice is shared with the distributor and must not be modified.
type RangeState interface {
	StateWords() []int32
}

// FlatBalancer is an optional Balancer extension for algorithms that can
// bind their per-node state into flat arrays and distribute via
// RangeDistributor. BindFlat may return nil to decline (e.g. a configuration
// the flat path does not cover); the engine then falls back to Bind. The
// fast path is only used when no auditor requires per-self-loop assignments,
// since DistributeRange does not produce them.
type FlatBalancer interface {
	Balancer
	BindFlat(b *graph.Balancing) RangeDistributor
}

// RoundObserver is an optional interface for balancers that need a global
// per-round hook (e.g. the continuous-flow-mimicking baseline advances its
// continuous simulation once per round). The engine invokes BeginRound with
// the round number (1-based, matching the paper's x_t indexing) and the
// current load vector before any Distribute call of that round. The loads
// slice is read-only and only valid for the duration of the call.
type RoundObserver interface {
	BeginRound(round int, loads []int64)
}

// Stateless marks balancers whose Distribute depends only on the current
// load (Theorem 4.2's class). It is informational: auditors and experiment
// tables use it, the engine does not.
type Stateless interface {
	IsStateless() bool
}

// IsStateless reports whether balancer b declares itself stateless.
func IsStateless(b Balancer) bool {
	s, ok := b.(Stateless)
	return ok && s.IsStateless()
}

// FloorShare returns ⌊x/d⁺⌋, the per-edge minimum of Def 2.1, handling
// negative loads with floor (not truncation) semantics so invariants remain
// meaningful if a baseline drives a load negative.
func FloorShare(x int64, dplus int) int64 {
	d := int64(dplus)
	q := x / d
	if x%d != 0 && (x < 0) != (d < 0) {
		q--
	}
	return q
}

// CeilShare returns ⌈x/d⁺⌉.
func CeilShare(x int64, dplus int) int64 {
	return FloorShare(x+int64(dplus)-1, dplus)
}

// NearestShare returns [x/d⁺], rounding to the nearest integer with halves
// rounded up. |x| must stay below 2⁶² (the computation doubles x); token
// counts in this library are far smaller.
func NearestShare(x int64, dplus int) int64 {
	return FloorShare(2*x+int64(dplus), 2*dplus)
}

package core

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"

	"detlb/internal/graph"
)

// Engine runs the synchronous diffusive process of Section 1.3: in every
// round each node u applies its NodeBalancer to its current load x_t(u); the
// tokens placed on original edges move to the corresponding neighbors, all
// other tokens stay at u. Steps are deterministic and, with Workers > 1,
// computed in parallel with results bit-identical to the serial engine.
//
// Memory layout: every per-arc quantity (sends, cumulative flows) lives in a
// single flat backing array of length n·d indexed by arc position p = u*d+i,
// with per-node [][]int64 headers sub-slicing it for the NodeBalancer and
// Auditor interfaces. The apply phase reads the graph's flat reverse index
// of arc positions, so one round is two linear passes over contiguous
// memory. All state is allocated at construction; Step performs
// zero allocations.
//
// Scheduling: a round is one dispatch to a persistent worker pool — each
// worker runs the distribute phase (with flow accounting fused in) on its
// node range, meets the others at a barrier, then runs the apply phase on the
// same range. The barrier guarantees the apply phase sees every node's sends,
// which is exactly the property that makes the parallel schedule bit-identical
// to the serial one: both compute the same pure function of (node state, x_t).
type Engine struct {
	bal   *graph.Balancing
	algo  Balancer
	nodes []NodeBalancer

	// bulk, when non-nil, selects the compressed flat fast path over nodes:
	// bp holds the interleaved (base, extra-token mask) pairs it produces.
	// expandSends records whether the per-arc sends array must be
	// materialized from them every round (flow tracking and auditors read
	// it; the parallel gather also wants one load per arc). The serial
	// engine without auditing skips materialization entirely and pushes
	// inflows straight from the compressed pairs (pushExtra).
	bulk        RangeDistributor
	bp          []int64
	expandSends bool

	x    []int64 // current loads, x_{t} at the start of round t+1 (0-based storage)
	next []int64 // scratch for the apply phase

	// sendsFlat[u*d+i] = tokens over u's i-th original edge this round;
	// sends[u] is the header sendsFlat[u*d : (u+1)*d]. Both stay nil on the
	// serial bulk path without auditors or flow tracking, which pushes from
	// bp instead, until a topology delta first faults the engine
	// (ensureSends).
	sendsFlat []int64
	sends     [][]int64

	// loopsFlat/selfLoops mirror the layout for per-self-loop assignments
	// (stride d° instead of d); nil unless auditing requires them.
	loopsFlat []int64
	selfLoops [][]int64

	// flowsFlat/flows mirror sends for the cumulative F_t(e) counters; nil
	// unless tracking is enabled.
	flowsFlat []int64
	flows     [][]int64

	heads  []int32 // graph's flat CSR adjacency, cached at construction
	revPos []int32 // graph's flat reverse index, cached at construction
	d      int     // original degree, the stride of the flat arrays

	round int

	auditors []Auditor
	workers  int
	kern     *Kernel

	// topo is the fault overlay (per-arc alive mask, live degrees, stranded
	// accounting), nil until the first ApplyTopologyDelta; linkScratch is its
	// parallel-arc lookup scratch. See topology.go.
	topo        *topoState
	linkScratch []int32

	// distribute and apply are the two phase closures, bound once at
	// construction so Step allocates nothing.
	distribute phaseFunc
	apply      phaseFunc
}

// Option configures an Engine.
type Option func(*Engine)

// WithWorkers sets the number of worker goroutines in the engine's persistent
// pool. Values below 2 select the serial path; values above GOMAXPROCS are
// clamped to it (extra workers cannot run simultaneously and only add handoff
// overhead). The engine is deterministic regardless: load vectors are
// bit-identical for every worker count.
func WithWorkers(w int) Option {
	return func(e *Engine) { e.workers = w }
}

// WithFlowTracking allocates cumulative per-arc flow counters F_t(e), needed
// by the cumulative-fairness auditor and by flow-based experiments.
func WithFlowTracking() Option {
	return func(e *Engine) {
		if e.flowsFlat == nil {
			e.flowsFlat, e.flows = flatPerNode(e.bal.N(), e.bal.Degree())
		}
	}
}

// WithAuditor attaches an invariant auditor, implicitly enabling whatever
// tracking it requires.
func WithAuditor(a Auditor) Option {
	return func(e *Engine) {
		e.auditors = append(e.auditors, a)
		req := a.Requires()
		if req.Flows {
			WithFlowTracking()(e)
		}
		if req.SelfLoops && e.loopsFlat == nil {
			e.loopsFlat, e.selfLoops = flatPerNode(e.bal.N(), e.bal.SelfLoops())
		}
	}
}

// flatPerNode allocates one flat backing array of n·stride entries plus the
// n per-node headers sub-slicing it. Each header has capacity clamped to its
// own range so a misbehaving balancer cannot append into a neighbor's span.
func flatPerNode(n, stride int) ([]int64, [][]int64) {
	flat := make([]int64, n*stride)
	headers := make([][]int64, n)
	for u := range headers {
		headers[u] = flat[u*stride : (u+1)*stride : (u+1)*stride]
	}
	return flat, headers
}

// ensureSends allocates the per-arc sends array on first need.
func (e *Engine) ensureSends() {
	if e.sendsFlat == nil {
		e.sendsFlat, e.sends = flatPerNode(e.bal.N(), e.d)
	}
}

// NewEngine binds algo to the balancing graph b with initial load vector x1.
// The initial vector is copied.
//
// Engines with workers > 1 own a persistent goroutine pool. Close releases it
// deterministically; an engine that is simply dropped is also safe — a GC
// cleanup shuts the pool down when the engine becomes unreachable.
func NewEngine(b *graph.Balancing, algo Balancer, x1 []int64, opts ...Option) (*Engine, error) {
	if len(x1) != b.N() {
		return nil, fmt.Errorf("core: load vector has %d entries for %d nodes", len(x1), b.N())
	}
	e := &Engine{
		bal:    b,
		algo:   algo,
		x:      append([]int64(nil), x1...),
		next:   make([]int64, b.N()),
		heads:  b.Graph().Heads(),
		revPos: b.Graph().RevArcPos(),
		d:      b.Degree(),
	}
	for _, opt := range opts {
		opt(e)
	}
	// Prefer the flat bulk path when the balancer offers one, the degree fits
	// the extra-token mask, and no auditor needs per-self-loop assignments
	// (DistributeRange does not fill them).
	if fb, ok := algo.(FlatBalancer); ok && e.loopsFlat == nil && b.Degree() <= 64 {
		e.bulk = fb.BindFlat(b)
	}
	if e.bulk != nil {
		e.bp = make([]int64, 2*b.N())
		e.expandSends = e.flowsFlat != nil || len(e.auditors) > 0
	} else {
		e.nodes = algo.Bind(b)
		if len(e.nodes) != b.N() {
			return nil, fmt.Errorf("core: balancer %q bound %d nodes for %d-node graph", algo.Name(), len(e.nodes), b.N())
		}
	}
	// The kernel clamps pool workers to schedulable CPUs; extra workers
	// cannot run simultaneously and only add handoff overhead.
	e.kern = NewKernel(e.workers)
	if e.kern.Width() > 1 {
		runtime.AddCleanup(e, func(k *Kernel) { k.Close() }, e.kern)
	}
	if e.bulk == nil || e.expandSends || e.kern.Width() > 1 {
		e.ensureSends()
	}
	e.distribute = e.distributePhase
	e.apply = e.applyPhase
	return e, nil
}

// MustEngine is NewEngine for known-good inputs; it panics on error.
func MustEngine(b *graph.Balancing, algo Balancer, x1 []int64, opts ...Option) *Engine {
	e, err := NewEngine(b, algo, x1, opts...)
	if err != nil {
		panic(err)
	}
	return e
}

// Close releases the engine's worker pool. It is optional — the pool is also
// reclaimed when the engine is garbage collected — and idempotent; the engine
// must not Step after Close.
func (e *Engine) Close() { e.kern.Close() }

// ApplyDelta adds delta (one entry per node) to the current load vector — the
// dynamic-workload injection hook. It must be called between rounds, never
// during a Step. The addition is a single serial pass over the n-word vector:
// it allocates nothing and is bit-identical for every worker count (the
// worker pool is not involved). Auditors implementing DeltaObserver are
// notified so cross-round aggregates (the conservation total) account for the
// injected tokens; per-round invariants are unaffected because Step itself
// still conserves.
//
//detcheck:noalloc
func (e *Engine) ApplyDelta(delta []int64) error {
	if len(delta) != e.bal.N() {
		return fmt.Errorf("core: delta has %d entries for %d nodes", len(delta), e.bal.N())
	}
	for i, d := range delta {
		e.x[i] += d
	}
	for _, a := range e.auditors {
		if obs, ok := a.(DeltaObserver); ok {
			obs.ObserveDelta(e, delta)
		}
	}
	return nil
}

// Recurrent implements core.Recurrent: the engine's next state is a pure
// function of its loads and its bound balancer's words only on the bulk path
// whose distributor exposes those words (RangeState), with no auditors, no
// flow counters, no per-round observer hook and no fault overlay.
func (e *Engine) Recurrent() bool {
	if e.bulk == nil || len(e.auditors) > 0 || e.flowsFlat != nil || e.topo != nil {
		return false
	}
	if _, ok := e.algo.(RoundObserver); ok {
		return false
	}
	_, ok := e.bulk.(RangeState)
	return ok
}

// stateWords is the bound bulk state's mutable words, nil when it has none.
func (e *Engine) stateWords() []int32 {
	if s, ok := e.bulk.(RangeState); ok {
		return s.StateWords()
	}
	return nil
}

// AppendState implements core.Recurrent: the loads, then the balancer words.
func (e *Engine) AppendState(dst []int64) []int64 {
	words := e.stateWords()
	dst = append(slices.Grow(dst, len(e.x)+len(words)), e.x...)
	for _, w := range words {
		dst = append(dst, int64(w))
	}
	return dst
}

// StateEquals implements core.Recurrent.
//
//detcheck:noalloc
func (e *Engine) StateEquals(snap []int64) bool {
	words := e.stateWords()
	n := len(e.x)
	if len(snap) != n+len(words) || !slices.Equal(snap[:n], e.x) {
		return false
	}
	for i, w := range words {
		if snap[n+i] != int64(w) {
			return false
		}
	}
	return true
}

// Balancing returns the balancing graph the engine runs on.
func (e *Engine) Balancing() *graph.Balancing { return e.bal }

// N returns the number of nodes.
func (e *Engine) N() int { return e.bal.N() }

// Algorithm returns the bound balancer.
func (e *Engine) Algorithm() Balancer { return e.algo }

// Round returns the number of completed rounds (t in the paper's x_{t+1}).
func (e *Engine) Round() int { return e.round }

// Loads returns the current load vector. The slice is shared with the engine
// and must not be modified; copy it if it needs to survive a Step.
func (e *Engine) Loads() []int64 { return e.x }

// State returns the current load vector — the Model view of Loads.
func (e *Engine) State() []int64 { return e.x }

// Flows returns the cumulative per-arc flows F_t(e), or nil when flow
// tracking is disabled. flows[u][i] is the total sent over u's i-th original
// edge in rounds 1..t. Shared; do not modify.
func (e *Engine) Flows() [][]int64 { return e.flows }

// TotalLoad returns Σ_u x_t(u); it is invariant over time for any balancer.
func (e *Engine) TotalLoad() int64 {
	var sum int64
	for _, v := range e.x {
		sum += v
	}
	return sum
}

// Discrepancy returns max load − min load of the current vector.
func (e *Engine) Discrepancy() int64 { return Discrepancy(e.x) }

// distributePhase runs phase 1 on the node range [lo, hi): every node
// distributes its load — a pure function of (node state, x_t) — and the
// tokens it keeps are written to next[u] while the node's sends are still
// cache-hot (the apply phase then only adds the inflows). When flow tracking
// is on, this round's sends are folded into the cumulative F_t(e) counters
// here too. Both fusions are safe because next[u], flows[u] and sends[u] are
// written only by the worker that owns u.
func (e *Engine) distributePhase(lo, hi int) {
	faulted := e.topo != nil && e.topo.faulted
	if e.bulk != nil {
		e.bulk.DistributeRange(e.x, e.bp, e.next, lo, hi)
		// Expand (base, mask) into the per-arc sends: a uniform fill plus
		// one increment per set mask bit. The parallel apply gather always
		// reads the per-arc array; the serial step only needs it for flow
		// tracking and auditors — or to give the fault overlay's bounce pass
		// per-arc sends to mask — and otherwise pushes straight from the
		// (base, mask) pairs.
		if e.kern.Width() > 1 || e.expandSends || faulted {
			d, bp, sends := e.d, e.bp, e.sendsFlat
			for u := lo; u < hi; u++ {
				base := bp[2*u]
				su := sends[u*d : (u+1)*d]
				for i := range su {
					su[i] = base
				}
				for m := uint64(bp[2*u+1]); m != 0; m &= m - 1 {
					su[bits.TrailingZeros64(m)]++
				}
			}
		}
	} else {
		x, next := e.x, e.next
		for u := lo; u < hi; u++ {
			var loops []int64
			if e.loopsFlat != nil {
				loops = e.selfLoops[u]
				for j := range loops {
					loops[j] = 0
				}
			}
			su := e.sends[u]
			e.nodes[u].Distribute(x[u], su, loops)
			kept := x[u]
			for _, s := range su {
				kept -= s
			}
			next[u] = kept
		}
	}
	// Bounce tokens assigned to dead arcs back to their senders before the
	// flow fold, so cumulative flows only ever count tokens that moved.
	if faulted {
		e.maskDeadSends(lo, hi)
	}
	if e.flowsFlat != nil {
		flows, sends := e.flowsFlat, e.sendsFlat
		for p, end := lo*e.d, hi*e.d; p < end; p++ {
			flows[p] += sends[p]
		}
	}
}

// applyPhase runs phase 2 on the node range [lo, hi): add to the kept tokens
// (written by phase 1) the inflow over each in-arc, read through the flat
// reverse index. next[v] depends only on phase-1 results, whose completeness
// the round barrier guarantees.
func (e *Engine) applyPhase(lo, hi int) {
	d := e.d
	next := e.next
	sends := e.sendsFlat
	rev := e.revPos
	for v := lo; v < hi; v++ {
		in := next[v]
		for _, p := range rev[v*d : (v+1)*d] {
			in += sends[p]
		}
		next[v] = in
	}
}

// applySerial is the apply phase of the single-worker engine: instead of
// gathering each node's inflows through the reverse index (one random read
// per arc), it pushes every arc's tokens onto its head in one linear sweep
// of the adjacency — the random accesses then hit the n-word next array
// rather than the n·d-word sends array. int64 addition is commutative and
// associative, so the resulting vector is bit-identical to the gather's.
// When per-arc sends were never materialized it pushes straight from the
// compressed (base, mask) pairs; under faults the distribute phase has
// materialized (and masked) them, so the per-arc push runs instead.
func (e *Engine) applySerial() {
	if e.bulk != nil && !e.expandSends && !(e.topo != nil && e.topo.faulted) {
		pushExtra(e.next, e.heads, e.bp, e.d)
		return
	}
	next, sends := e.next, e.sendsFlat
	for p, h := range e.heads {
		next[h] += sends[p]
	}
}

// extraBits[b][i] is bit i of the byte b as a token count. One byte of an
// extra-token mask thus selects the row of extra tokens for eight
// consecutive arcs: pushExtra walks a mask a byte at a time with no per-arc
// shift, and a degree tail shorter than eight reads the same row.
var extraBits = func() (t [256][8]int8) {
	for b := range t {
		for i := range t[b] {
			t[b][i] = int8(b >> i & 1)
		}
	}
	return t
}()

// pushExtra adds every node's sends, compressed as the (base, mask) pairs of
// bp, onto the heads of its d out-arcs in dst: arc i of node u carries
// base + bit_i(mask). A zero mask (every send-floor and send-round node)
// takes a plain base-only loop.
//
//detcheck:noalloc
func pushExtra(dst []int64, heads []int32, bp []int64, d int) {
	for ; len(bp) >= 2; bp = bp[2:] {
		base, m := bp[0], uint64(bp[1])
		hu := heads[:d:d]
		heads = heads[d:]
		if m == 0 {
			for _, h := range hu {
				dst[h] += base
			}
			continue
		}
		for ; len(hu) >= 8; hu, m = hu[8:], m>>8 {
			row := &extraBits[uint8(m)]
			dst[hu[0]] += base + int64(row[0])
			dst[hu[1]] += base + int64(row[1])
			dst[hu[2]] += base + int64(row[2])
			dst[hu[3]] += base + int64(row[3])
			dst[hu[4]] += base + int64(row[4])
			dst[hu[5]] += base + int64(row[5])
			dst[hu[6]] += base + int64(row[6])
			dst[hu[7]] += base + int64(row[7])
		}
		row := &extraBits[uint8(m)]
		for i, h := range hu {
			dst[h] += base + int64(row[i&7])
		}
	}
}

// Step executes one synchronous round. It returns the first auditor error
// encountered, leaving the (already advanced) state available for debugging.
//
//detcheck:noalloc
func (e *Engine) Step() error {
	e.round++
	if obs, ok := e.algo.(RoundObserver); ok {
		obs.BeginRound(e.round, e.x)
	}

	// One fused dispatch: distribute (+ flow accounting) on every node range,
	// round barrier, then apply on the same ranges. The single-worker engine
	// runs the same distribute followed by the linear push variant of apply.
	if e.kern.Width() > 1 {
		e.kern.RunRound(e.bal.N(), e.distribute, e.apply)
	} else {
		e.distributePhase(0, e.bal.N())
		e.applySerial()
	}

	prev := e.x
	e.x, e.next = e.next, prev

	for _, a := range e.auditors {
		if err := a.Observe(e, prev, e.sends, e.selfLoops); err != nil {
			//detcheck:allow hotalloc cold error path; an auditor violation already aborts the run
			return fmt.Errorf("core: round %d: %w", e.round, err)
		}
	}
	return nil
}

// Run executes rounds until the predicate stop(engine) returns true or
// maxRounds is reached, returning the number of rounds executed and the
// first audit error, if any. stop is evaluated after each round; a nil stop
// runs exactly maxRounds rounds.
func (e *Engine) Run(maxRounds int, stop func(*Engine) bool) (int, error) {
	for i := 0; i < maxRounds; i++ {
		if err := e.Step(); err != nil {
			return i + 1, err
		}
		if stop != nil && stop(e) {
			return i + 1, nil
		}
	}
	return maxRounds, nil
}

// Extrema returns (min, max) of the vector, or (0, 0) for empty input.
func Extrema(x []int64) (lo, hi int64) {
	if len(x) == 0 {
		return 0, 0
	}
	lo, hi = x[0], x[0]
	for _, v := range x[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// Discrepancy returns max(x) − min(x).
func Discrepancy(x []int64) int64 {
	lo, hi := Extrema(x)
	return hi - lo
}

// Balancedness returns max(x) − ⌈avg⌉ in the paper's sense: the gap between
// the most loaded node and the average load, rounded up to an integer bound.
func Balancedness(x []int64) int64 {
	if len(x) == 0 {
		return 0
	}
	var sum, hi int64
	hi = x[0]
	for _, v := range x {
		sum += v
		if v > hi {
			hi = v
		}
	}
	avgCeil := CeilShare(sum, len(x))
	return hi - avgCeil
}

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
// other tokens stay at u. Steps are deterministic and may run in parallel,
// with results bit-identical to the serial engine.
//
// Memory layout: every per-arc quantity (sends, cumulative flows) lives in a
// single flat backing array of length n·d indexed by arc position p = u*d+i,
// with per-node [][]int64 headers sub-slicing it for the NodeBalancer and
// Auditor interfaces. A round distributes every node, then pushes its tokens
// onto its arcs' heads in one linear sweep of the adjacency. All state is
// allocated at construction (a lent helper's accumulator when it first
// attaches); Step performs zero allocations.
//
// Shift: the bulk path pushes each node's sends straight from its (base,
// mask) pair, less one round-wide shift B. Every node pushes base − B over
// its arcs plus its mask bits, then adds d·B to its own inflow once. The
// graph is d-regular and symmetric, so every node has exactly d in-arcs and
// its inflow is the same integer sum for every B, under int64 wrap-around
// too. B is node 0's base of the last round. Once the loads have converged
// nearly every node's base is B, so a round moves only its extra tokens.
//
// Scheduling: each round picks its own width. The serial round distributes
// [0, n) and pushes straight into next. A round of width w splits the nodes
// into w chunks; the stepping goroutine runs chunk 0 and a helper runs each
// other chunk. Every chunk distributes its nodes and pushes its arcs: chunk
// 0 into next itself (after clearing the other chunks' part of it), chunk c
// into its helper's private n-word accumulator, kept tokens included. After
// one barrier each chunk folds the accumulators' entries for its own nodes
// into next and clears them. Every load is the same integer
// sum in any order, so every split — one that changes every round
// included — gives bit-identical loads.
//
// An engine built WithWorkers(w > 1) owns w-1 helpers and runs every round
// at width w. Any other engine whose n·d⁺ reaches lendCost has one seat
// that a goroutine with nothing else to do can take with Help: while it is
// taken, rounds run at width 2.
type Engine struct {
	bal   *graph.Balancing
	algo  Balancer
	nodes []NodeBalancer

	// bulk, when non-nil, selects the compressed flat fast path over nodes:
	// bp holds the interleaved (base, extra-token mask) pairs it produces.
	// expandSends records whether the per-arc sends array must be
	// materialized from them every round (flow tracking and auditors read
	// it). Without them the engine skips materialization entirely and
	// pushes inflows straight from the compressed pairs (pushExtra).
	bulk        RangeDistributor
	bp          []int64
	expandSends bool
	// shift is the round's shift B (see Shift above), read by Step before
	// the round's chunks overwrite bp. It changes the push's speed, never a
	// load.
	shift int64

	x    []int64 // current loads, x_{t} at the start of round t+1 (0-based storage)
	next []int64 // x_{t+1} under construction during a round

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

	heads []int32 // graph's flat CSR adjacency, cached at construction
	d     int     // original degree, the stride of the flat arrays

	round int

	auditors []Auditor
	workers  int
	// crew runs the rounds wider than 1: the engine's own helpers under
	// WithWorkers, or the seat Help takes; nil when neither applies.
	crew *crew

	// topo is the fault overlay (per-arc alive mask, live degrees, stranded
	// accounting), nil until the first ApplyTopologyDelta; linkScratch is its
	// parallel-arc lookup scratch. See topology.go.
	topo        *topoState
	linkScratch []int32
}

// lendCost is the n·d⁺ from which an engine takes a lent helper. Ten
// alternating runs of width-1 and width-2 Steps from uniform random loads
// on lazy random 8-regular graphs, 2-CPU host (medians): n = 1024
// (n·d⁺ = 16384) rotor-router 17.2 → 12.7 µs, width 2 faster in 10/10
// runs, but send-floor 8.8 → 8.3 µs, faster in only 6/10; n = 512 (8192)
// rotor-router 9.5 → 7.7 µs (10/10) but send-floor 3.2 → 4.4 µs, slower
// in 10/10. A converged send-floor round pushes nothing (see Shift), so
// its crossover lies above n = 1024 and the rotor-router's below n = 512;
// no n·d⁺ splits both 10/10, so the cold expander family's cells
// (n·d⁺ ≤ 8192) stay serial. Larger graphs gain more, 10/10 each:
// hypercube:11 (45056) rotor-router 39.2 → 27.6 µs and send-floor 14.0 →
// 11.8 µs, hypercube:12 (98304) 72.8 → 54.6 µs and 30.7 → 21.3 µs.
const lendCost = 1 << 14

// Option configures an Engine.
type Option func(*Engine)

// WithWorkers fixes the engine's width: every round runs in w chunks, the
// stepping goroutine's and those of w-1 helper goroutines the engine owns.
// Values below 2 leave the width to the engine — serial, or 2 while a lent
// helper is attached (see Help); values above GOMAXPROCS are clamped to it
// (extra workers cannot run simultaneously and only add handoff overhead).
// The engine is deterministic regardless: load vectors are bit-identical for
// every width.
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
// Engines with workers > 1 own helper goroutines. Close releases them
// deterministically; an engine that is simply dropped is also safe — a GC
// cleanup shuts them down, and sends a lent helper home, when the engine
// becomes unreachable.
func NewEngine(b *graph.Balancing, algo Balancer, x1 []int64, opts ...Option) (*Engine, error) {
	if len(x1) != b.N() {
		return nil, fmt.Errorf("core: load vector has %d entries for %d nodes", len(x1), b.N())
	}
	e := &Engine{
		bal:   b,
		algo:  algo,
		x:     append([]int64(nil), x1...),
		next:  make([]int64, b.N()),
		heads: b.Graph().Heads(),
		d:     b.Degree(),
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
	// Fixed widths clamp to schedulable CPUs; extra workers cannot run
	// simultaneously and only add handoff overhead.
	if w := min(e.workers, runtime.GOMAXPROCS(0)); w > 1 {
		e.crew = newCrew(w, true, b.N())
	} else if Lends(b, e.workers) {
		e.crew = newCrew(2, false, b.N())
	}
	if e.crew != nil {
		runtime.AddCleanup(e, func(c *crew) { c.close() }, e.crew)
	}
	if e.bulk == nil || e.expandSends {
		e.ensureSends()
	}
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

// Close releases the engine's helpers: its own goroutines exit before Close
// returns, and a lent helper's Help returns. It is optional — the helpers
// are also released when the engine is garbage collected — and idempotent;
// the engine must not Step after Close.
func (e *Engine) Close() {
	if e.crew != nil {
		e.crew.close()
	}
}

// Lends reports whether an engine on b built WithWorkers(workers) has a
// seat for Help: its width is not fixed (workers, clamped to GOMAXPROCS, is
// at most 1) and its n·d⁺ reaches lendCost.
func Lends(b *graph.Balancing, workers int) bool {
	return min(workers, runtime.GOMAXPROCS(0)) <= 1 && b.N()*b.DegreePlus() >= lendCost
}

// TakesHelper reports whether the engine has a seat for Help (see Lends).
func (e *Engine) TakesHelper() bool { return e.crew != nil && !e.crew.fixed }

// Help lends the calling goroutine to the engine's rounds: it takes the
// engine's helper seat and runs the second chunk of every round the engine
// steps, at width 2, until the engine is closed; then it returns true. It
// returns false at once when the engine takes no lent helper (a fixed
// width, or n·d⁺ below lendCost), is closed, already has one, or when the
// process's helper budget (GOMAXPROCS simulation goroutines, see Occupy)
// is used up. The goroutine holds a budget slot while seated, and rounds
// fall back to width 1 while more goroutines are counted than the budget
// allows. A round's width never changes its result.
func (e *Engine) Help() bool {
	if !e.TakesHelper() || !tryOccupy() {
		return false
	}
	defer Release()
	return e.crew.help()
}

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

// faulted reports whether the fault overlay has dead arcs this round.
func (e *Engine) faulted() bool { return e.topo != nil && e.topo.faulted }

// distributePhase distributes the node range [lo, hi): every node
// distributes its load — a pure function of (node state, x_t) — and the
// tokens it keeps are written to kept[u]. When flow tracking is on, this
// round's sends are folded into the cumulative F_t(e) counters here too.
// Both are safe on any split because kept[u], flows[u] and sends[u] are
// written only by the chunk that owns u.
func (e *Engine) distributePhase(kept []int64, lo, hi int) {
	faulted := e.faulted()
	if e.bulk != nil {
		e.bulk.DistributeRange(e.x, e.bp, kept, lo, hi)
		// Expand (base, mask) into the per-arc sends: a uniform fill plus
		// one increment per set mask bit. Only flow tracking and auditors
		// read them — or the fault overlay's bounce pass, which masks them;
		// otherwise the push reads the (base, mask) pairs directly.
		if e.expandSends || faulted {
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
		x := e.x
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
			left := x[u]
			for _, s := range su {
				left -= s
			}
			kept[u] = left
		}
	}
	// Bounce tokens assigned to dead arcs back to their senders before the
	// flow fold, so cumulative flows only ever count tokens that moved.
	if faulted {
		e.maskDeadSends(kept, lo, hi)
	}
	if e.flowsFlat != nil {
		flows, sends := e.flowsFlat, e.sendsFlat
		for p, end := lo*e.d, hi*e.d; p < end; p++ {
			flows[p] += sends[p]
		}
	}
}

// push adds the tokens of the arcs of nodes [lo, hi) onto their heads in
// dst, in one linear sweep of the adjacency: the random accesses hit the
// n-word dst rather than the n·d-word sends array. It pushes straight from
// the compressed (base, mask) pairs when per-arc sends were never
// materialized: each node's offset from the round's shift B over its arcs,
// then d·B onto each of the chunk's own nodes, which stands for the B every
// one of its d in-arcs left out. With auditors, flow tracking or faults the
// distribute phase has materialized (and masked) the sends, and the per-arc
// push runs instead.
func (e *Engine) push(dst []int64, lo, hi int) {
	d := e.d
	heads := e.heads[lo*d : hi*d]
	if e.bulk != nil && !e.expandSends && !e.faulted() {
		pushExtra(dst, heads, e.bp[2*lo:2*hi], d, e.shift)
		if dB := int64(d) * e.shift; dB != 0 {
			own := dst[lo:hi]
			for i := range own {
				own[i] += dB
			}
		}
		return
	}
	sends := e.sendsFlat[lo*d : hi*d]
	for p, h := range heads {
		dst[h] += sends[p]
	}
}

// phase1 is chunk c's share of a wide round: distribute its nodes and push
// its arcs. Chunk 0 runs on the stepping goroutine and writes next itself,
// clearing the other chunks' part first; chunk c > 0 writes its helper's
// accumulator, which is all zeros between rounds, so the kept tokens land
// on zeros too.
func (e *Engine) phase1(c, lo, hi int) {
	dst := e.next
	if c > 0 {
		dst = e.crew.seats[c].acc
	} else {
		clear(dst[hi:])
	}
	e.distributePhase(dst, lo, hi)
	e.push(dst, lo, hi)
}

// phase2 folds every helper accumulator's entries for chunk c's nodes into
// next and clears them, once the barrier has seen every push land.
func (e *Engine) phase2(c, lo, hi int) {
	next := e.next[lo:hi]
	for s := 1; s < e.crew.width; s++ {
		acc := e.crew.seats[s].acc[lo:hi]
		for i, v := range acc {
			next[i] += v
		}
		clear(acc)
	}
}

// extraBits[b][i] is bit i of the byte b as a token count. One byte of an
// extra-token mask thus selects the row of extra tokens for eight
// consecutive arcs: pushExtra walks the mask of a node off the shift a byte
// at a time with no per-arc shift, and a degree tail shorter than eight
// reads the same row.
var extraBits = func() (t [256][8]int8) {
	for b := range t {
		for i := range t[b] {
			t[b][i] = int8(b >> i & 1)
		}
	}
	return t
}()

// pushExtra adds every node's sends less shift, compressed as the (base,
// mask) pairs of bp, onto the heads of its d out-arcs in dst: arc i of node
// u carries base − shift + bit_i(mask). A node whose base is the shift — in
// a converged round almost every node — walks only its set mask bits, so a
// zero mask pushes nothing. Any other node with a zero mask (send-floor and
// send-round) takes a plain base-only loop, and the rest the byte table. A
// mask bit at or above d breaks the RangeDistributor contract and indexes
// past the node's arcs.
//
//detcheck:noalloc
func pushExtra(dst []int64, heads []int32, bp []int64, d int, shift int64) {
	for ; len(bp) >= 2; bp = bp[2:] {
		base, m := bp[0]-shift, uint64(bp[1])
		hu := heads[:d:d]
		heads = heads[d:]
		if base == 0 {
			for ; m != 0; m &= m - 1 {
				dst[hu[bits.TrailingZeros64(m)]]++
			}
			continue
		}
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

	if e.bulk != nil {
		e.shift = e.bp[0]
	}

	// The round's width: the engine's own helpers, or a lent one while the
	// helper budget is not overbooked; a serial round otherwise.
	n := e.bal.N()
	if w := e.width(); w > 1 {
		e.crew.run(n, w, e)
	} else {
		e.distributePhase(e.next, 0, n)
		e.push(e.next, 0, n)
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

// width returns the number of chunks the next round runs in.
func (e *Engine) width() int {
	c := e.crew
	if c == nil || c.seated.Load() == 0 || (!c.fixed && overbooked()) {
		return 1
	}
	return c.chunks(e.bal.N())
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

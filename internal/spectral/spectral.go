// Package spectral computes the spectral quantities the paper's analysis is
// phrased in: the transition matrix P of the balancing graph G+, its second
// largest eigenvalue λ₂, the eigenvalue gap µ = 1 − λ₂, and the balancing
// time T = O(log(Kn)/µ) after which the theorems' discrepancy bounds apply.
//
// For a d-regular graph G with d° self-loops per node,
//
//	P(u,v) = 1/d⁺ for (u,v) ∈ E, P(u,u) = d°/d⁺, d⁺ = d + d°,
//
// so P = (d°/d⁺)·I + (d/d⁺)·(A/d) and every eigenvalue of P is
// λ = (d° + d·ν)/d⁺ for an eigenvalue ν of the normalized adjacency A/d.
// This affine correspondence lets the package reuse a family's analytic ν₂
// (recorded on graph.Graph by its constructor) and fall back to a
// deterministic Lanczos solver otherwise: the three-term recurrence on two
// vectors of length n, so O(n) memory, with the top Ritz value found by a
// lazily decided bisection on the Sturm count. Solver results are memoized
// per (graph, d°) pair behind weak references, so harness sweeps pay the
// solve once per graph rather than once per run.
package spectral

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"weak"

	"detlb/internal/graph"
)

// Operator is the transition matrix P of a balancing graph, exposed as a
// matrix-free matvec so that no O(n²) storage is required.
type Operator struct {
	b *graph.Balancing
}

// NewOperator wraps the balancing graph's transition matrix.
func NewOperator(b *graph.Balancing) *Operator {
	return &Operator{b: b}
}

// N returns the dimension of the operator.
func (op *Operator) N() int { return op.b.N() }

// Apply computes dst = P·x. dst and x must have length N and must not alias.
// It is the matvec the gap solver runs (applyP).
func (op *Operator) Apply(dst, x []float64) {
	n := op.b.N()
	if len(dst) != n || len(x) != n {
		panic(fmt.Sprintf("spectral: dimension mismatch: n=%d len(dst)=%d len(x)=%d", n, len(dst), len(x)))
	}
	clear(dst)
	applyP(op.b, nil, dst, x, 0)
}

// Entry returns P(u,v), counting parallel edges. O(d).
func (op *Operator) Entry(u, v int) float64 {
	if u == v {
		return float64(op.b.SelfLoops()) / float64(op.b.DegreePlus())
	}
	cnt := 0
	for _, w := range op.b.Graph().Neighbors(u) {
		if int(w) == v {
			cnt++
		}
	}
	return float64(cnt) / float64(op.b.DegreePlus())
}

// Lambda2 returns the second largest eigenvalue of P (by value, not modulus).
// It uses the family's analytic ν₂ when available, else Lanczos on P
// restricted to the space orthogonal to the all-ones vector (see
// lanczosLambda2), which agrees with the dense reference SpectrumDense to
// within 1e-11 (typically ~1e-13) on the tested graphs.
//
// Solver results are memoized per (graph, d°) pair: the solver is
// deterministic (fixed-seed start vector), so a sweep running many specs on
// the same balancing graph pays its ~ms cost exactly once, and distinct
// Balancing wrappers over the same Graph share the entry. The cache holds
// only weak references — an entry is evicted when its graph is garbage
// collected, so long-lived processes generating graphs on the fly do not
// accumulate it.
func Lambda2(b *graph.Balancing) float64 {
	d := float64(b.Degree())
	dplus := float64(b.DegreePlus())
	self := float64(b.SelfLoops())
	if nu2, ok := b.Graph().Nu2(); ok {
		return (self + d*nu2) / dplus
	}
	return cachedLambda2(b)
}

// Gap returns the eigenvalue gap µ = 1 − λ₂ of the balancing graph,
// memoized per (graph, d°) pair (see Lambda2).
func Gap(b *graph.Balancing) float64 {
	return gapOf(Lambda2(b))
}

// GapFresh recomputes the gap from scratch, bypassing the per-graph cache.
// It exists for benchmarking the solver and for tests; Gap is equal
// (bit-identical: the solver is deterministic) and cheaper.
func GapFresh(b *graph.Balancing) float64 {
	d := float64(b.Degree())
	dplus := float64(b.DegreePlus())
	self := float64(b.SelfLoops())
	if nu2, ok := b.Graph().Nu2(); ok {
		return gapOf((self + d*nu2) / dplus)
	}
	lambda2, _ := lanczosLambda2(b, nil)
	return gapOf(lambda2)
}

// gapOf returns µ = 1 − λ₂, clamped at 0: on a partitioned graph λ₂ = 1 to
// within round-off, which can land just above 1.
func gapOf(lambda2 float64) float64 {
	if mu := 1 - lambda2; mu > 0 {
		return mu
	}
	return 0
}

// lambda2Key identifies one memoized solver result. The weak graph
// pointer keeps the cache from pinning graphs: weak.Make returns equal
// pointers for the same object, so lookups for live graphs always hit, and
// the per-graph cleanup removes the entry once the graph is collected.
//
// Keying on the graph pointer is sound because graph.Graph is immutable
// after construction — the engine's fault overlay (core.ApplyTopologyDelta)
// never touches the CSR arrays, it layers an aliveness mask over them.
// Results for faulted topologies therefore must NOT come through this key:
// FaultedGap extends it with a hash of the alive mask, so one graph shared
// by many fault schedules (or many epochs of one schedule) yields distinct,
// correctly memoized entries, and flapping schedules that revisit a mask hit
// the cache instead of re-solving.
type lambda2Key struct {
	g         weak.Pointer[graph.Graph]
	selfLoops int
	// maskHash is 0 for the pristine graph and a 64-bit hash of the packed
	// per-arc alive mask otherwise (offset so an all-alive mask still hashes
	// nonzero and cannot collide with the pristine entry).
	maskHash uint64
}

// lambda2Entry is a once-guarded cache slot: concurrent sweep workers asking
// for the same graph's λ₂ share one solve instead of racing to compute
// duplicates. A solve that panics leaves its panic value, which every lookup
// raises again, so no caller reads a zero λ₂ left behind by the unwound solve.
type lambda2Entry struct {
	once     sync.Once
	val      float64
	panicked any
}

var (
	lambda2Mu    sync.Mutex
	lambda2Cache = map[lambda2Key]*lambda2Entry{}
)

func cachedLambda2(b *graph.Balancing) float64 {
	key := lambda2Key{g: weak.Make(b.Graph()), selfLoops: b.SelfLoops()}
	return memoLambda2(b, nil, key)
}

// memoLambda2 resolves key through the once-guarded cache, solving for λ₂
// of b under the alive mask on first use and evicting when b's graph is
// collected.
func memoLambda2(b *graph.Balancing, alive []bool, key lambda2Key) float64 {
	lambda2Mu.Lock()
	e, ok := lambda2Cache[key]
	if !ok {
		e = &lambda2Entry{}
		lambda2Cache[key] = e
		runtime.AddCleanup(b.Graph(), func(k lambda2Key) {
			lambda2Mu.Lock()
			delete(lambda2Cache, k)
			lambda2Mu.Unlock()
		}, key)
	}
	lambda2Mu.Unlock()
	e.once.Do(func() {
		defer func() { e.panicked = recover() }()
		e.val, _ = lanczosLambda2(b, alive)
	})
	if e.panicked != nil {
		panic(e.panicked)
	}
	return e.val
}

// FaultedGap returns the eigenvalue gap µ of the balancing graph under a
// fault overlay: alive is the engine's per-arc alive mask (Engine.ArcAlive),
// nil meaning pristine. A dead arc behaves as an extra self-loop — exactly
// the engine's bounce-back semantics — so the faulted transition matrix is
//
//	P'(u,v) = (#live arcs u→v)/d⁺,  P'(u,u) = (d° + #dead arcs at u)/d⁺,
//
// which is again symmetric and doubly stochastic (link and node failures
// kill arcs in mirrored pairs). The gap comes from the same Lanczos solver
// and matvec as Gap and is memoized per (graph, d°, mask hash): a flapping
// schedule revisiting a mask pays the solve once. For a partitioned or
// node-failed graph the operator has a second eigenvalue at 1 and the
// returned gap is 0 or within round-off of it — the global process no
// longer converges, and per-component metrics (Engine.EffectiveDiscrepancy)
// carry the signal instead.
func FaultedGap(b *graph.Balancing, alive []bool) float64 {
	if alive == nil {
		return Gap(b)
	}
	key := lambda2Key{g: weak.Make(b.Graph()), selfLoops: b.SelfLoops(), maskHash: maskHash(alive)}
	return gapOf(memoLambda2(b, alive, key))
}

// maskHash hashes the packed alive bits with an FNV-1a/SplitMix combination.
// The +1 offset keeps an all-alive mask distinct from the pristine (hash 0)
// cache key.
func maskHash(alive []bool) uint64 {
	h := uint64(1469598103934665603) // FNV offset basis
	var word uint64
	bit := 0
	for _, a := range alive {
		if a {
			word |= 1 << uint(bit)
		}
		if bit++; bit == 64 {
			h = splitmixRound(h ^ word)
			word, bit = 0, 0
		}
	}
	if bit > 0 {
		h = splitmixRound(h ^ word)
	}
	h = splitmixRound(h ^ uint64(len(alive)))
	if h == 0 {
		h = 1
	}
	return h
}

// splitmixRound is the SplitMix64 finalizer used as the hash's mixing round.
func splitmixRound(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Lanczos parameters. lanczosTol is the stopping step |Δλ| between successive
// top Ritz values; lanczosBreakdown is the residual norm below which the
// Krylov space is invariant and its Ritz values exact; lanczosMaxSteps bounds
// the matvecs on pathologically slow spectra.
const (
	lanczosTol       = 1e-13
	lanczosBreakdown = 1e-12
	lanczosMaxSteps  = 200000
)

// lanczosLambda2 returns λ₂ of the balancing graph's transition matrix (of
// its fault overlay when alive is non-nil) and the number of Lanczos steps
// taken: λ₂ is the largest eigenvalue of P restricted to the complement of
// the all-ones vector, P's eigenvector for λ₁ = 1. P is symmetric, so λ₂ is
// the top of the spectrum Lanczos sees there, by value — a negative spectrum
// (d° = 0) needs no shift.
//
// The solver runs the plain three-term recurrence (lanczosRecurrence) on two
// vectors of length n, so its memory is O(n) plus the tridiagonal T_k.
// Without reorthogonalisation the Lanczos vectors lose orthogonality once a
// Ritz value converges, but that only adds copies of converged Ritz values;
// the extreme ones still converge at working precision (Paige 1980).
//
// After step k, θ_k is the largest eigenvalue of T_k as a one-level
// bisection on the Sturm count finds it from T_k's Gershgorin interval down
// to adjacent floats (the tests' topRitzValue), bit for bit. The solver
// stops when |θ_k − θ_{k−1}| ≤ lanczosTol or when the residual β_k
// vanishes. Each θ is a resumable bracket (ritzBracket), refined only until
// the stop test is decided; the θ returned is finished to adjacent floats.
// The start vector is a fixed-seed Gaussian, so the result is bit-identical
// on every call.
func lanczosLambda2(b *graph.Balancing, alive []bool) (lambda2 float64, steps int) {
	switch n := b.N(); {
	case n == 0:
		panic("spectral: eigenvalue gap of an empty graph")
	case n == 1:
		return 0, 0
	}
	rec := newLanczosRecurrence(b, alive)
	var alpha, beta []float64
	var prev ritzBracket
	for steps = 1; ; steps++ {
		a, residual := rec.step()
		alpha = append(alpha, a)
		cur := newRitzBracket(alpha, beta)
		if steps > 1 && converged(&cur, &prev, alpha, beta) ||
			residual <= lanczosBreakdown || steps == lanczosMaxSteps {
			return cur.value(alpha, beta), steps
		}
		beta = append(beta, residual)
		prev = cur
	}
}

// lanczosRecurrence is the three-term Lanczos recurrence
//
//	β_k·v_{k+1} = P·v_k − α_k·v_k − β_{k−1}·v_{k−1},  α_k = v_kᵀ·P·v_k,
//
// on the complement of the all-ones vector, which every step projects out of
// the residual again (rounding would otherwise let the λ = 1 direction
// back in). It holds two vectors: v = v_k, and u = v_{k−1} until the next
// step's matvec overwrites it with the residual.
type lanczosRecurrence struct {
	b     *graph.Balancing
	alive []bool
	v, u  []float64
	beta  float64 // β_{k−1}; 0 before the first step
}

// newLanczosRecurrence starts the recurrence from the fixed-seed Gaussian
// vector, projected and normalized.
func newLanczosRecurrence(b *graph.Balancing, alive []bool) *lanczosRecurrence {
	rng := rand.New(rand.NewSource(1))
	v := make([]float64, b.N())
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	projectAndNormalize(v)
	return &lanczosRecurrence{b: b, alive: alive, v: v, u: make([]float64, len(v))}
}

// step runs one Lanczos step and returns α_k and the residual norm β_k.
// Unless β_k ≤ lanczosBreakdown, it then advances to v_{k+1}.
func (l *lanczosRecurrence) step() (alpha, beta float64) {
	v, u := l.v, l.u
	applyP(l.b, l.alive, u, v, l.beta)
	alpha = dot(u, v)
	axpy(u, -alpha, v)
	removeMean(u)
	beta = math.Sqrt(dot(u, u))
	if beta > lanczosBreakdown {
		for i, ui := range u {
			u[i], v[i] = v[i], ui/beta
		}
	}
	l.beta = beta
	return alpha, beta
}

// converged reports whether |θ_k − θ_{k−1}| ≤ lanczosTol, as computed in
// floating point, for the top Ritz values held by cur and prev. Rounding is
// monotone, so the brackets bound the rounded difference; the wider bracket
// is refined until the bounds decide the test, which at the latest happens
// once both are finished and the difference is the exact rounded one.
func converged(cur, prev *ritzBracket, alpha, beta []float64) bool {
	for {
		a1, a2 := cur.bounds()
		b1, b2 := prev.bounds()
		hiDiff, loDiff := a2-b1, a1-b2
		switch {
		case hiDiff <= lanczosTol && loDiff >= -lanczosTol:
			return true
		case loDiff > lanczosTol || hiDiff < -lanczosTol:
			return false
		case !cur.done && (prev.done || a2-a1 >= b2-b1):
			cur.refine(alpha, beta)
		default:
			prev.refine(alpha, beta)
		}
	}
}

// ritzBracket is a resumable bisection for the largest eigenvalue of the
// tridiagonal T_k with diagonal alpha[:k] and off-diagonal beta[:k−1],
// starting from its Gershgorin interval. Its midpoints are those of the
// one-level bisection, so a finished bracket's hi is bit-identical to that
// bisection's result, and an unfinished one holds the result in [lo, hi].
type ritzBracket struct {
	k      int
	lo, hi float64
	done   bool
}

// newRitzBracket opens the bracket for the tridiagonal (alpha, beta), with
// len(beta) = len(alpha)−1.
func newRitzBracket(alpha, beta []float64) ritzBracket {
	k := len(alpha)
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, a := range alpha {
		r := 0.0
		if i > 0 {
			r += math.Abs(beta[i-1])
		}
		if i < k-1 {
			r += math.Abs(beta[i])
		}
		lo, hi = math.Min(lo, a-r), math.Max(hi, a+r)
	}
	return ritzBracket{k: k, lo: lo, hi: hi}
}

// bounds returns an interval holding the bracket's final value.
func (r *ritzBracket) bounds() (lo, hi float64) {
	if r.done {
		return r.hi, r.hi
	}
	return r.lo, r.hi
}

// value finishes the bisection down to adjacent floats and returns the
// largest eigenvalue. alpha and beta may have grown since the bracket was
// opened; it reads only its own k entries.
func (r *ritzBracket) value(alpha, beta []float64) float64 {
	for !r.done {
		r.refine(alpha, beta)
	}
	return r.hi
}

// refine advances the bisection by up to two levels in one pass over T_k.
// The pass takes the Sturm test at the midpoint and at both quarter points,
// three independent division chains; the quarter point on the side the
// midpoint's test keeps is, bit for bit, the midpoint the next level of the
// one-level loop would take.
func (r *ritzBracket) refine(alpha, beta []float64) {
	lo, hi := r.lo, r.hi
	mid := lo + (hi-lo)/2
	if mid <= lo || mid >= hi {
		r.done = true
		return
	}
	q1, q3 := lo+(mid-lo)/2, mid+(hi-mid)/2
	belowMid, belowQ1, belowQ3 := topBelow3(alpha[:r.k], beta, mid, q1, q3)
	next, belowNext := q3, belowQ3
	if belowMid {
		hi, next, belowNext = mid, q1, belowQ1
	} else {
		lo = mid
	}
	if next <= lo || next >= hi {
		r.lo, r.hi, r.done = lo, hi, true
		return
	}
	if belowNext {
		hi = next
	} else {
		lo = next
	}
	r.lo, r.hi = lo, hi
}

// topBelow3 reports, for each of x0, x1 and x2, whether every eigenvalue of
// the tridiagonal (alpha, beta) lies below it: whether all LDLᵀ pivots of
// T − x·I are negative, the Sturm count being the number of negative
// pivots. A zero pivot is nudged negative, as in LAPACK's dstebz. The three
// pivot recurrences are independent, so their divisions overlap.
func topBelow3(alpha, beta []float64, x0, x1, x2 float64) (below0, below1, below2 bool) {
	a := alpha[0]
	q0, q1, q2 := sturmPivot(a-x0), sturmPivot(a-x1), sturmPivot(a-x2)
	below0, below1, below2 = q0 < 0, q1 < 0, q2 < 0
	for i := 1; i < len(alpha) && (below0 || below1 || below2); i++ {
		a, bb := alpha[i], beta[i-1]*beta[i-1]
		q0 = sturmPivot(a - x0 - bb/q0)
		q1 = sturmPivot(a - x1 - bb/q1)
		q2 = sturmPivot(a - x2 - bb/q2)
		below0 = below0 && q0 < 0
		below1 = below1 && q1 < 0
		below2 = below2 && q2 < 0
	}
	return below0, below1, below2
}

// sturmPivot nudges a zero pivot to −1e-300.
func sturmPivot(q float64) float64 {
	if math.Abs(q) < 1e-300 {
		return -1e-300
	}
	return q
}

// applyP computes dst = P·x − c·dst, walking the graph's flat CSR adjacency
// — one contiguous int32 array — rather than the ragged per-node neighbor
// slices; c = 0 over a cleared dst is the plain matvec. A non-nil alive mask
// applies the fault overlay: a dead arc contributes x[u] (a self-loop)
// instead of x[heads[p]], matching the engine's bounce-back.
func applyP(b *graph.Balancing, alive []bool, dst, x []float64, c float64) {
	g := b.Graph()
	n := g.N()
	d := g.Degree()
	heads := g.Heads()
	dplus := float64(b.DegreePlus())
	self := float64(b.SelfLoops())
	for u, p := 0, 0; u < n; u++ {
		sum := self * x[u]
		if alive == nil {
			for end := p + d; p < end; p++ {
				sum += x[heads[p]]
			}
		} else {
			for end := p + d; p < end; p++ {
				if alive[p] {
					sum += x[heads[p]]
				} else {
					sum += x[u]
				}
			}
		}
		dst[u] = sum/dplus - c*dst[u]
	}
}

// removeMean projects x onto the complement of the all-ones vector.
func removeMean(x []float64) {
	mean := 0.0
	for _, v := range x {
		mean += v
	}
	mean /= float64(len(x))
	for i := range x {
		x[i] -= mean
	}
}

// projectAndNormalize removes the all-ones component and rescales to unit
// 2-norm (re-seeding deterministically if the vector collapses).
func projectAndNormalize(x []float64) {
	removeMean(x)
	norm := math.Sqrt(dot(x, x))
	if norm < 1e-300 {
		// Degenerate start: seed with an alternating vector.
		for i := range x {
			if i%2 == 0 {
				x[i] = 1
			} else {
				x[i] = -1
			}
		}
		projectAndNormalize(x)
		return
	}
	for i := range x {
		x[i] /= norm
	}
}

// axpy computes y += a·x.
func axpy(y []float64, a float64, x []float64) {
	y = y[:len(x)]
	for i, xi := range x {
		y[i] += a * xi
	}
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// BalancingTime returns the paper's T = ⌈16·ln(nK)/µ⌉ (the time after which
// Theorem 2.3's discrepancy bounds hold), with K the initial discrepancy.
// K < 1 is treated as 1 so that an already-balanced input yields a small
// positive horizon.
func BalancingTime(n int, initialDiscrepancy int, mu float64) int {
	if mu <= 0 {
		panic(fmt.Sprintf("spectral: non-positive eigenvalue gap %v", mu))
	}
	k := initialDiscrepancy
	if k < 1 {
		k = 1
	}
	t := 16 * math.Log(float64(n)*float64(k)) / mu
	return int(math.Ceil(t))
}

// MixingTime returns t_µ = 6·ln(n)/µ, the quantity the proofs of Section 2
// phase their interval arguments in.
func MixingTime(n int, mu float64) int {
	if mu <= 0 {
		panic(fmt.Sprintf("spectral: non-positive eigenvalue gap %v", mu))
	}
	return int(math.Ceil(6 * math.Log(float64(n)) / mu))
}

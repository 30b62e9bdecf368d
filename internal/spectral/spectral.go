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
// deterministic Lanczos solver otherwise; solver results are memoized per
// (graph, d°) pair behind weak references, so harness sweeps pay the solve
// once per graph rather than once per run.
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
	applyP(op.b, nil, dst, x)
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
	return gapOf(lanczosLambda2(b, nil, lanczosBasis))
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
	return memoLambda2(b.Graph(), key, func() float64 { return lanczosLambda2(b, nil, lanczosBasis) })
}

// memoLambda2 resolves key through the once-guarded cache, computing via
// compute on first use and evicting when g is collected.
func memoLambda2(g *graph.Graph, key lambda2Key, compute func() float64) float64 {
	lambda2Mu.Lock()
	e, ok := lambda2Cache[key]
	if !ok {
		e = &lambda2Entry{}
		lambda2Cache[key] = e
		runtime.AddCleanup(g, func(k lambda2Key) {
			lambda2Mu.Lock()
			delete(lambda2Cache, k)
			lambda2Mu.Unlock()
		}, key)
	}
	lambda2Mu.Unlock()
	e.once.Do(func() {
		defer func() { e.panicked = recover() }()
		e.val = compute()
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
	g := b.Graph()
	key := lambda2Key{g: weak.Make(g), selfLoops: b.SelfLoops(), maskHash: maskHash(alive)}
	return gapOf(memoLambda2(g, key, func() float64 { return lanczosLambda2(b, alive, lanczosBasis) }))
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

// Lanczos parameters. lanczosBasis caps the Krylov basis, so the solver
// holds at most lanczosBasis vectors of length n however large the graph;
// lanczosTol is the stopping step |Δλ| between successive top Ritz values;
// lanczosBreakdown is the residual norm below which the Krylov space is
// invariant and its Ritz values exact; lanczosMaxSteps bounds the matvecs
// on pathologically slow spectra.
const (
	lanczosBasis     = 128
	lanczosTol       = 1e-13
	lanczosBreakdown = 1e-12
	lanczosMaxSteps  = 200000
)

// lanczosLambda2 returns λ₂ of the balancing graph's transition matrix (of
// its fault overlay when alive is non-nil): the largest eigenvalue of P
// restricted to the complement of the all-ones vector, P's eigenvector for
// λ₁ = 1. P is symmetric, so λ₂ is the top of the spectrum Lanczos sees
// there, by value — a negative spectrum (d° = 0) needs no shift.
//
// Each step is one CSR matvec w = P·v_k followed by full
// reorthogonalisation, done twice: both passes project out the all-ones
// vector and then every basis vector v₀…v_k (classical Gram–Schmidt twice
// is enough to keep the basis orthogonal to working precision; projecting
// the ones vector in one pass only lets the λ = 1 direction creep back in).
// The largest Ritz value comes from Sturm bisection on the tridiagonal T_k
// and rises monotonically in k; the solver stops when a step moves it by at
// most lanczosTol, or when the residual vanishes. A full basis of basisCap
// vectors restarts explicitly from the top Ritz vector, so memory stays
// O(basisCap·n); basis vectors are allocated as the basis first grows, so a
// solve that converges in k steps holds only k of them. The start vector is a fixed-seed Gaussian, so the result
// is bit-identical on every call.
func lanczosLambda2(b *graph.Balancing, alive []bool, basisCap int) float64 {
	n := b.N()
	if n == 1 {
		return 0
	}
	m := min(basisCap, n-1) // the complement of the ones vector has dimension n−1
	basis := make([][]float64, 1, m)
	w := make([]float64, n)
	coef := make([]float64, m)
	alpha := make([]float64, 0, m)
	beta := make([]float64, 0, m)

	rng := rand.New(rand.NewSource(1))
	v0 := make([]float64, n)
	for i := range v0 {
		v0[i] = rng.NormFloat64()
	}
	projectAndNormalize(v0)
	basis[0] = v0

	prev, theta := math.Inf(-1), 0.0
	for step := 0; step < lanczosMaxSteps; step++ {
		k := len(alpha)
		vk := basis[k]
		applyP(b, alive, w, vk)
		alpha = append(alpha, dot(w, vk))
		for pass := 0; pass < 2; pass++ {
			removeMean(w)
			orthogonalize(w, basis[:k+1], coef[:k+1])
		}
		theta = topRitzValue(alpha, beta)
		if math.Abs(theta-prev) <= lanczosTol {
			return theta
		}
		prev = theta
		norm := math.Sqrt(dot(w, w))
		if norm <= lanczosBreakdown {
			return theta
		}
		if k+1 == m {
			// Basis full: restart from the top Ritz vector y = V·s. Its
			// Rayleigh quotient is θ itself, so convergence is judged
			// afresh from the second step after the restart.
			s := topRitzVector(alpha, beta, theta)
			clear(w)
			for j, sj := range s {
				axpy(w, sj, basis[j])
			}
			copy(v0, w)
			projectAndNormalize(v0)
			alpha, beta = alpha[:0], beta[:0]
			prev = math.Inf(-1)
			continue
		}
		beta = append(beta, norm)
		if len(basis) == k+1 {
			basis = append(basis, make([]float64, n))
		}
		next := basis[k+1]
		for i, wi := range w {
			next[i] = wi / norm
		}
	}
	return theta
}

// applyP computes dst = P·x, walking the graph's flat CSR adjacency — one
// contiguous int32 array — rather than the ragged per-node neighbor slices.
// A non-nil alive mask applies the fault overlay: a dead arc contributes
// x[u] (a self-loop) instead of x[heads[p]], matching the engine's
// bounce-back.
func applyP(b *graph.Balancing, alive []bool, dst, x []float64) {
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
		dst[u] = sum / dplus
	}
}

// orthogonalize makes w orthogonal to the basis vectors by one classical
// Gram–Schmidt pass; coef receives the projections. Vectors go four at a
// time, so each sweep over w serves four of them.
func orthogonalize(w []float64, basis [][]float64, coef []float64) {
	j := 0
	for ; j+4 <= len(basis); j += 4 {
		v0, v1, v2, v3 := basis[j][:len(w)], basis[j+1][:len(w)], basis[j+2][:len(w)], basis[j+3][:len(w)]
		var s0, s1, s2, s3 float64
		for i, wi := range w {
			s0 += wi * v0[i]
			s1 += wi * v1[i]
			s2 += wi * v2[i]
			s3 += wi * v3[i]
		}
		coef[j], coef[j+1], coef[j+2], coef[j+3] = s0, s1, s2, s3
	}
	for ; j < len(basis); j++ {
		coef[j] = dot(w, basis[j])
	}
	j = 0
	for ; j+4 <= len(basis); j += 4 {
		v0, v1, v2, v3 := basis[j][:len(w)], basis[j+1][:len(w)], basis[j+2][:len(w)], basis[j+3][:len(w)]
		c0, c1, c2, c3 := coef[j], coef[j+1], coef[j+2], coef[j+3]
		for i := range w {
			w[i] -= c0*v0[i] + c1*v1[i] + c2*v2[i] + c3*v3[i]
		}
	}
	for ; j < len(basis); j++ {
		axpy(w, -coef[j], basis[j])
	}
}

// topRitzValue returns the largest eigenvalue of the symmetric tridiagonal
// matrix with diagonal alpha and off-diagonal beta (len(beta) ≥
// len(alpha)−1), by bisection on the Sturm count inside the Gershgorin
// interval, down to adjacent floats.
func topRitzValue(alpha, beta []float64) float64 {
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
	for {
		mid := lo + (hi-lo)/2
		if mid <= lo || mid >= hi {
			return hi
		}
		if eigenvaluesBelow(alpha, beta, mid) == k {
			hi = mid
		} else {
			lo = mid
		}
	}
}

// eigenvaluesBelow is the Sturm count: the number of eigenvalues below x of
// the tridiagonal (alpha, beta), read off the signs of the LDLᵀ pivots of
// T − x·I. A zero pivot is nudged negative, as in LAPACK's dstebz.
func eigenvaluesBelow(alpha, beta []float64, x float64) int {
	count := 0
	q := 1.0
	for i, a := range alpha {
		if i == 0 {
			q = a - x
		} else {
			q = a - x - beta[i-1]*beta[i-1]/q
		}
		if math.Abs(q) < 1e-300 {
			q = -1e-300
		}
		if q < 0 {
			count++
		}
	}
	return count
}

// topRitzVector returns the unit eigenvector of the tridiagonal (alpha,
// beta) for its largest eigenvalue theta, by inverse iteration on σI − T
// with σ just above theta: σI − T is then positive definite, so its LDLᵀ
// factorization needs no pivoting.
func topRitzVector(alpha, beta []float64, theta float64) []float64 {
	k := len(alpha)
	sigma := theta + 1e-10*math.Max(1, math.Abs(theta))
	// σI − T = L·D·Lᵀ with unit lower bidiagonal L (subdiagonal l) and
	// diagonal D (piv).
	piv := make([]float64, k)
	l := make([]float64, k)
	for i := range k {
		piv[i] = sigma - alpha[i]
		if i > 0 {
			l[i] = -beta[i-1] / piv[i-1]
			piv[i] += l[i] * beta[i-1]
		}
		if piv[i] < 1e-300 {
			piv[i] = 1e-300
		}
	}
	s := make([]float64, k)
	for i := range s {
		s[i] = 1
	}
	for range 3 {
		for i := 1; i < k; i++ {
			s[i] -= l[i] * s[i-1]
		}
		for i := range s {
			s[i] /= piv[i]
		}
		for i := k - 2; i >= 0; i-- {
			s[i] -= l[i+1] * s[i+1]
		}
		norm := math.Sqrt(dot(s, s))
		for i := range s {
			s[i] /= norm
		}
	}
	return s
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

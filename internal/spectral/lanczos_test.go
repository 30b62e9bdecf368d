package spectral

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"detlb/internal/graph"
)

// denseLambda2 is the reference λ₂: the second largest eigenvalue of the
// dense (faulted, for a non-nil mask) transition matrix by Jacobi rotations;
// for a nil mask this is SpectrumDense(b)[1].
func denseLambda2(b *graph.Balancing, alive []bool) float64 {
	return symmetricSpectrum(denseTransition(b, alive))[1]
}

// TestLambda2MatchesDense holds the Lanczos solver to the dense Jacobi
// reference on random regular graphs — lazy, with one self-loop, and with
// none (d° = 0 gives a spectrum reaching below zero) — and on a faulted
// mask.
func TestLambda2MatchesDense(t *testing.T) {
	const tol = 1e-11
	check := func(name string, b *graph.Balancing, alive []bool) {
		t.Helper()
		want := denseLambda2(b, alive)
		got, _ := lanczosLambda2(b, alive)
		if !almostEqual(got, want, tol) {
			t.Errorf("%s: Lanczos λ₂ = %.17g, dense %.17g (diff %.3g)", name, got, want, got-want)
		}
	}
	for _, n := range []int{32, 64, 128} {
		for _, d := range []int{3, 4, 8} {
			if n*d%2 != 0 {
				continue
			}
			for seed := int64(1); seed <= 3; seed++ {
				g := graph.RandomRegular(n, d, seed)
				for _, loops := range []int{d, 1, 0} {
					check(fmt.Sprintf("random:%d,%d,%d d°=%d", n, d, seed, loops), graph.WithLoops(g, loops), nil)
				}
			}
		}
	}
	b := graph.Lazy(graph.RandomRegular(64, 4, 2))
	check("random:64,4,2 faulted", b, failArcs(t, b, [][2]int{{0, int(b.Graph().Neighbors(0)[0])}, {5, int(b.Graph().Neighbors(5)[1])}}))
}

// TestLambda2RestartsMatchDense holds the solver to the dense reference on
// three slowly converging graphs, on which the three-term recurrence runs
// long past the loss of orthogonality; plain cycle:40's clustered spectrum
// is the hardest of them. (It keeps the name it had when the solver
// restarted a capped basis.)
func TestLambda2RestartsMatchDense(t *testing.T) {
	for _, b := range []*graph.Balancing{
		graph.Lazy(graph.RandomRegular(64, 4, 1)),
		graph.WithLoops(graph.RandomRegular(96, 3, 2), 0),
		graph.Lazy(withoutNu2(graph.Cycle(40))),
	} {
		want := denseLambda2(b, nil)
		if got, steps := lanczosLambda2(b, nil); !almostEqual(got, want, 1e-11) {
			t.Errorf("%s: Lanczos λ₂ = %.17g after %d steps, dense %.17g", b.Name(), got, steps, want)
		}
	}
}

// FuzzLambda2Dense draws a small random regular graph, its self-loop count
// and a fault mask from the input and holds the solver to the dense
// reference. µ must lie in [0, n/(n−1)]: λ₂ ≥ −1/(n−1) because the
// eigenvalues on the complement of the ones vector sum to trace(P) − 1 ≥ −1,
// and the bound is reached by K_n without self-loops.
func FuzzLambda2Dense(f *testing.F) {
	f.Add(uint8(16), uint8(3), int64(1), uint8(3), uint64(0))
	f.Add(uint8(24), uint8(8), int64(7), uint8(0), uint64(0b1011))
	f.Add(uint8(10), uint8(9), int64(2), uint8(0), uint64(0))
	f.Add(uint8(12), uint8(3), int64(5), uint8(1), uint64(1<<63|0xff))
	f.Fuzz(func(t *testing.T, nIn, dIn uint8, seed int64, loopsIn uint8, failBits uint64) {
		n := 4 + int(nIn)%21    // 4..24
		d := 3 + int(dIn)%(n-3) // 3..n-1
		if n*d%2 != 0 {
			d++ // n and d odd, so d+1 ≤ n−1
		}
		loops := int(loopsIn) % (d + 1)
		b := graph.WithLoops(graph.RandomRegular(n, d, seed), loops)
		// Bit u of failBits fails the link from u to its (u mod d)-th
		// neighbor; duplicates are skipped.
		var links [][2]int
		seen := map[[2]int]bool{}
		for u := 0; u < n && u < 64; u++ {
			if failBits>>uint(u)&1 == 0 {
				continue
			}
			v := int(b.Graph().Neighbors(u)[u%d])
			key := [2]int{min(u, v), max(u, v)}
			if !seen[key] {
				seen[key] = true
				links = append(links, key)
			}
		}
		var alive []bool
		if len(links) > 0 {
			alive = failArcs(t, b, links)
		}
		lambda2, _ := lanczosLambda2(b, alive)
		mu := gapOf(lambda2)
		if mu < 0 || mu > float64(n)/float64(n-1)+1e-12 {
			t.Fatalf("µ = %v out of [0, n/(n−1)]", mu)
		}
		want := gapOf(denseLambda2(b, alive))
		if !almostEqual(mu, want, 1e-10) {
			t.Fatalf("n=%d d=%d d°=%d links=%v: µ = %.17g, dense %.17g", n, d, loops, links, mu, want)
		}
	})
}

// withoutNu2 rebuilds g's adjacency without its analytic ν₂, so Lambda2
// has to solve for it.
func withoutNu2(g *graph.Graph) *graph.Graph {
	adj := make([][]int, g.N())
	for u := range adj {
		for _, v := range g.Neighbors(u) {
			adj[u] = append(adj[u], int(v))
		}
	}
	return graph.MustNew("plain-"+g.Name(), adj)
}

// topRitzValue is the one-level reference bisection: the largest eigenvalue
// of the symmetric tridiagonal matrix with diagonal alpha and off-diagonal
// beta (len(beta) ≥ len(alpha)−1), by bisection on the Sturm count inside
// the Gershgorin interval, down to adjacent floats.
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

// TestBisectionMatchesTopRitzValue: the resumable two-level bisection ends
// on the same float64 bits as the one-level reference, on random
// tridiagonals of every small order, on tridiagonals with repeated and
// zero entries, and when a bracket is finished in several resumed pieces.
func TestBisectionMatchesTopRitzValue(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	check := func(name string, alpha, beta []float64) {
		t.Helper()
		want := topRitzValue(alpha, beta)
		whole := newRitzBracket(alpha, beta)
		if got := whole.value(alpha, beta); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: bracket θ = %.17g, reference %.17g", name, got, want)
		}
		// Resumed one pass at a time, with the tridiagonal grown behind it.
		grown := append(append([]float64(nil), alpha...), rng.NormFloat64())
		grownBeta := append(append([]float64(nil), beta...), rng.NormFloat64())
		r := newRitzBracket(alpha, beta)
		for !r.done {
			lo, hi := r.bounds()
			if want < lo || want > hi {
				t.Fatalf("%s: reference θ = %.17g outside the bracket [%.17g, %.17g]", name, want, lo, hi)
			}
			r.refine(grown, grownBeta)
		}
		if got := r.value(grown, grownBeta); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: resumed bracket θ = %.17g, reference %.17g", name, got, want)
		}
	}
	for trial := range 2000 {
		k := 1 + rng.Intn(60)
		alpha, beta := make([]float64, k), make([]float64, k-1)
		scale := math.Pow(10, float64(rng.Intn(7)-3))
		for i := range alpha {
			alpha[i] = scale * rng.NormFloat64()
		}
		for i := range beta {
			beta[i] = scale * rng.NormFloat64()
			if rng.Intn(8) == 0 {
				beta[i] = 0
			}
		}
		check(fmt.Sprintf("trial %d (k=%d)", trial, k), alpha, beta)
	}
	check("constant diagonal", []float64{0.5, 0.5, 0.5, 0.5}, []float64{0.25, 0.25, 0.25})
	check("zero matrix", []float64{0, 0, 0}, []float64{0, 0})
	check("order one", []float64{0.75}, nil)
}

// referenceLanczos is the solver's loop with a full one-level bisection at
// every step: the stop rule lanczosLambda2 must reproduce exactly.
func referenceLanczos(b *graph.Balancing, alive []bool) (theta float64, steps int) {
	rec := newLanczosRecurrence(b, alive)
	var alpha, beta []float64
	prev := math.Inf(-1)
	for steps = 1; ; steps++ {
		a, residual := rec.step()
		alpha = append(alpha, a)
		theta = topRitzValue(alpha, beta)
		if math.Abs(theta-prev) <= lanczosTol || residual <= lanczosBreakdown || steps == lanczosMaxSteps {
			return theta, steps
		}
		prev = theta
		beta = append(beta, residual)
	}
}

// TestLanczosMatchesFullBisection: the lazily decided stop test stops at the
// same step as full bisection at every step, and returns the same θ to the
// bit, on lazy, loop-free, faulted and slowly converging graphs.
func TestLanczosMatchesFullBisection(t *testing.T) {
	type tc struct {
		name  string
		b     *graph.Balancing
		alive []bool
	}
	var cases []tc
	for _, n := range []int{2, 3, 16, 64, 256} {
		for _, d := range []int{3, 8} {
			if d >= n || n*d%2 != 0 {
				continue
			}
			g := graph.RandomRegular(n, d, int64(n+d))
			for _, loops := range []int{d, 1, 0} {
				b := graph.WithLoops(g, loops)
				cases = append(cases, tc{fmt.Sprintf("random:%d,%d d°=%d", n, d, loops), b, nil})
			}
		}
	}
	cases = append(cases,
		tc{"K2", graph.WithLoops(withoutNu2(graph.Complete(2)), 0), nil},
		tc{"plain cycle:40", graph.Lazy(withoutNu2(graph.Cycle(40))), nil},
		tc{"plain cycle:41 d°=0", graph.WithLoops(withoutNu2(graph.Cycle(41)), 0), nil},
	)
	b := graph.Lazy(graph.RandomRegular(64, 4, 2))
	cases = append(cases, tc{"random:64,4,2 faulted", b,
		failArcs(t, b, [][2]int{{0, int(b.Graph().Neighbors(0)[0])}, {5, int(b.Graph().Neighbors(5)[1])}})})
	for _, c := range cases {
		wantTheta, wantSteps := referenceLanczos(c.b, c.alive)
		gotTheta, gotSteps := lanczosLambda2(c.b, c.alive)
		if gotSteps != wantSteps || math.Float64bits(gotTheta) != math.Float64bits(wantTheta) {
			t.Errorf("%s: lazy solver stops at step %d with θ = %.17g, full bisection at step %d with %.17g",
				c.name, gotSteps, gotTheta, wantSteps, wantTheta)
		}
	}
}

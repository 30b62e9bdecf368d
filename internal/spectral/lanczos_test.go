package spectral

import (
	"fmt"
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
		got := lanczosLambda2(b, alive, lanczosBasis)
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

// TestLambda2RestartsMatchDense shrinks the basis cap so every solve runs
// through several explicit restarts from the top Ritz vector.
func TestLambda2RestartsMatchDense(t *testing.T) {
	for _, b := range []*graph.Balancing{
		graph.Lazy(graph.RandomRegular(64, 4, 1)),
		graph.WithLoops(graph.RandomRegular(96, 3, 2), 0),
		graph.Lazy(withoutNu2(graph.Cycle(40))),
	} {
		want := denseLambda2(b, nil)
		if got := lanczosLambda2(b, nil, 6); !almostEqual(got, want, 1e-11) {
			t.Errorf("%s: restarted Lanczos λ₂ = %.17g, dense %.17g", b.Name(), got, want)
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
		mu := gapOf(lanczosLambda2(b, alive, lanczosBasis))
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

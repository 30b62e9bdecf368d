package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// sameGraph fails t unless got and want agree on every constructed field.
func sameGraph(t testing.TB, got, want *Graph) {
	t.Helper()
	if got.Name() != want.Name() || got.N() != want.N() || got.Degree() != want.Degree() {
		t.Fatalf("got %s (n=%d d=%d), want %s (n=%d d=%d)",
			got.Name(), got.N(), got.Degree(), want.Name(), want.N(), want.Degree())
	}
	if !slices.Equal(got.Heads(), want.Heads()) {
		t.Fatalf("%s: Heads differ", want.Name())
	}
	if !slices.Equal(got.RevArcSrc(), want.RevArcSrc()) {
		t.Fatalf("%s: RevArcSrc differ", want.Name())
	}
	gotNu2, gotOK := got.Nu2()
	wantNu2, wantOK := want.Nu2()
	if gotNu2 != wantNu2 || gotOK != wantOK {
		t.Fatalf("%s: Nu2 = %v %v, want %v %v", want.Name(), gotNu2, gotOK, wantNu2, wantOK)
	}
}

// sampled is one side's outcome of sampling a random regular graph: the
// graph or the panic value, and the next draw of its source afterwards.
type sampled struct {
	g     *Graph
	panic any
	next  int64
}

func sample(seed int64, f func(rng *rand.Rand) *Graph) (s sampled) {
	rng := rand.New(rand.NewSource(seed))
	defer func() {
		if s.panic = recover(); s.panic != nil {
			s.next = rng.Int63()
		}
	}()
	s.g = f(rng)
	s.next = rng.Int63()
	return s
}

// checkRandomRegular holds RandomRegular's sampler to the map-based
// reference at (n, d, seed): the same graph, or the same panic, and the
// same next draw of the seeded source.
func checkRandomRegular(t testing.TB, n, d int, seed int64) {
	t.Helper()
	got := sample(seed, func(rng *rand.Rand) *Graph { return sampleRegular(n, d, seed, rng) })
	want := sample(seed, func(rng *rand.Rand) *Graph { return refRandomRegular(n, d, seed, rng) })
	if fmt.Sprint(got.panic) != fmt.Sprint(want.panic) {
		t.Fatalf("n=%d d=%d seed=%d: panic %v, reference panic %v", n, d, seed, got.panic, want.panic)
	}
	if got.next != want.next {
		t.Fatalf("n=%d d=%d seed=%d: next draw %d, reference %d", n, d, seed, got.next, want.next)
	}
	if got.panic == nil {
		sameGraph(t, got.g, want.g)
	}
}

// TestRandomRegularMatchesReference samples 200 seeds, each at an (n, d)
// drawn from n = 4…600, 3 ≤ d < n with n·d even — every degree for n ≤ 64,
// up to 32 above that — and holds the map-free repair to the map-based one.
func TestRandomRegularMatchesReference(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		r := rand.New(rand.NewSource(-seed))
		n := 4 + r.Intn(597)
		d := 3 + r.Intn(min(n-3, 30))
		if n <= 64 {
			d = 3 + r.Intn(n-3)
		}
		if n*d%2 != 0 {
			if d+1 < n {
				d++
			} else {
				d--
			}
		}
		checkRandomRegular(t, n, d, seed)
	}
	// Argument panics, degree 1 and complete shapes.
	for _, c := range [][2]int{{5, 3}, {4, 4}, {3, 0}, {2, 1}, {8, 1}, {4, 3}, {6, 5}, {10, 9}, {34, 33}, {40, 38}} {
		checkRandomRegular(t, c[0], c[1], 7)
	}
}

// FuzzRandomRegularMatchesReference is the same check at fuzzed (n, d,
// seed): n in 2…129, d in 1…min(n-1, 32), n·d made even by growing n. The
// degree cap keeps near-complete shapes, whose repair the map-based
// reference takes seconds over, to n ≤ 34. The checked-in corpus under
// testdata/fuzz keeps sparse, complete and odd-product shapes in the seed
// set.
func FuzzRandomRegularMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, nb, db uint8, seed int64) {
		n := 2 + int(nb)%128
		d := 1 + int(db)%min(n-1, 32)
		if n*d%2 != 0 {
			n++
		}
		checkRandomRegular(t, n, d, seed)
	})
}

// TestFamiliesMatchAdjacency holds every family constructor, which writes
// the flat heads array directly, to New over the rows it used to build.
func TestFamiliesMatchAdjacency(t *testing.T) {
	type pair struct{ got, want func() *Graph }
	var cases []pair
	add := func(got, want func() *Graph) { cases = append(cases, pair{got, want}) }
	for _, n := range []int{3, 4, 17, 64} {
		add(func() *Graph { return Cycle(n) }, func() *Graph { return refCycle(n) })
	}
	for _, n := range []int{2, 3, 9} {
		add(func() *Graph { return Complete(n) }, func() *Graph { return refComplete(n) })
	}
	for _, r := range []int{1, 2, 5, 10} {
		add(func() *Graph { return Hypercube(r) }, func() *Graph { return refHypercube(r) })
	}
	for _, c := range [][2]int{{1, 3}, {2, 5}, {3, 4}, {2, 3}} {
		add(func() *Graph { return Torus(c[0], c[1]) }, func() *Graph { return refTorus(c[0], c[1]) })
	}
	for _, c := range []struct {
		n       int
		offsets []int
	}{{9, []int{1}}, {8, []int{1, 4}}, {10, []int{1, 9}}, {12, []int{1, 6}}, {32, []int{3, 1, 2}}} {
		add(func() *Graph { return Circulant(c.n, c.offsets) }, func() *Graph { return refCirculant(c.n, c.offsets) })
	}
	for _, c := range [][2]int{{40, 4}, {32, 9}, {16, 4}, {5, 2}} {
		add(func() *Graph { return CliqueCirculant(c[0], c[1]) }, func() *Graph { return refCliqueCirculant(c[0], c[1]) })
	}
	for _, c := range [][2]int{{5, 2}, {3, 1}, {12, 5}} {
		add(func() *Graph { return GeneralizedPetersen(c[0], c[1]) }, func() *Graph { return refGeneralizedPetersen(c[0], c[1]) })
	}
	add(Petersen, refPetersen)
	for _, k := range []int{1, 2, 7} {
		add(func() *Graph { return CompleteBipartite(k) }, func() *Graph { return refCompleteBipartite(k) })
	}
	for _, c := range cases {
		sameGraph(t, c.got(), c.want())
	}
}

// TestCheckSymmetricMatchesReference holds the counting-pass symmetry check
// to the row-sorting one on 20,000 small random adjacencies, ragged,
// asymmetric, out-of-range and self-arced ones among them: the same error
// message, or none on both sides.
func TestCheckSymmetricMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		n := 1 + r.Intn(6)
		adj := make([][]int, n)
		for u := range adj {
			for range r.Intn(5) {
				adj[u] = append(adj[u], r.Intn(n+2)-1)
			}
		}
		// Mirror most arcs, so that many inputs are symmetric or nearly so.
		if r.Intn(2) == 0 {
			for u := range adj {
				for _, v := range adj[u] {
					if v >= 0 && v < n && v != u && r.Intn(8) > 0 {
						adj[v] = append(adj[v], u)
					}
				}
			}
		}
		if got, want := fmt.Sprint(CheckSymmetric(adj)), fmt.Sprint(refCheckSymmetric(adj)); got != want {
			t.Fatalf("CheckSymmetric(%v) = %s, reference %s", adj, got, want)
		}
	}
}

package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewRejectsEmpty(t *testing.T) {
	if _, err := New("empty", nil); err == nil {
		t.Fatal("expected error for empty adjacency list")
	}
}

func TestNewRejectsIrregular(t *testing.T) {
	adj := [][]int{{1, 2}, {0}, {0}}
	if _, err := New("irregular", adj); err == nil {
		t.Fatal("expected error for non-regular graph")
	}
}

func TestNewRejectsSelfArc(t *testing.T) {
	adj := [][]int{{0, 1}, {0, 0}}
	if _, err := New("selfarc", adj); err == nil {
		t.Fatal("expected error for self-arc")
	}
}

func TestNewRejectsAsymmetric(t *testing.T) {
	// 0 -> 1 twice but 1 -> 0 once.
	adj := [][]int{{1, 1}, {0, 2}, {1, 1}}
	if _, err := New("asym", adj); err == nil {
		t.Fatal("expected error for asymmetric arc multiset")
	}
}

// TestValidateNamesSmallestAsymmetricPair: with several offending pairs the
// error always names the smallest one, so the message never depends on
// iteration order.
func TestValidateNamesSmallestAsymmetricPair(t *testing.T) {
	// 0->1 twice but 1->0 once; 3->2 twice but 2->3 once.
	adj := [][]int{{1, 1}, {0, 2}, {1, 3}, {2, 2}}
	const want = "graph asym: asymmetric arc multiset: 2 arcs 0->1 but 1 arcs 1->0"
	for i := 0; i < 50; i++ {
		_, err := New("asym", adj)
		if err == nil || err.Error() != want {
			t.Fatalf("attempt %d: got %v, want %q", i, err, want)
		}
	}
}

func TestNewRejectsOutOfRange(t *testing.T) {
	adj := [][]int{{1, 5}, {0, 0}}
	if _, err := New("oob", adj); err == nil {
		t.Fatal("expected error for out-of-range neighbor")
	}
}

func TestNewCopiesAdjacency(t *testing.T) {
	adj := [][]int{{1, 1}, {0, 0}}
	g, err := New("multi", adj)
	if err != nil {
		t.Fatal(err)
	}
	adj[0][0] = 99
	if g.Neighbors(0)[0] != 1 {
		t.Fatal("graph must copy the adjacency input")
	}
}

func TestCycleBasics(t *testing.T) {
	for _, n := range []int{3, 4, 5, 16, 33} {
		g := Cycle(n)
		if g.N() != n {
			t.Fatalf("cycle(%d): n = %d", n, g.N())
		}
		if g.Degree() != 2 {
			t.Fatalf("cycle(%d): degree = %d", n, g.Degree())
		}
		if got, want := g.Diameter(), n/2; got != want {
			t.Fatalf("cycle(%d): diameter = %d, want %d", n, got, want)
		}
		if got, want := g.IsBipartite(), n%2 == 0; got != want {
			t.Fatalf("cycle(%d): bipartite = %v, want %v", n, got, want)
		}
		wantGirth := 0
		if n%2 == 1 {
			wantGirth = n
		}
		if got := g.OddGirth(); got != wantGirth {
			t.Fatalf("cycle(%d): odd girth = %d, want %d", n, got, wantGirth)
		}
	}
}

func TestCyclePanicsOnTiny(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for cycle(2)")
		}
	}()
	Cycle(2)
}

func TestCompleteBasics(t *testing.T) {
	g := Complete(8)
	if g.Degree() != 7 {
		t.Fatalf("degree = %d", g.Degree())
	}
	if g.Diameter() != 1 {
		t.Fatalf("diameter = %d", g.Diameter())
	}
	if g.OddGirth() != 3 {
		t.Fatalf("odd girth = %d", g.OddGirth())
	}
	if g.Phi() != 1 {
		t.Fatalf("phi = %d", g.Phi())
	}
}

func TestHypercubeBasics(t *testing.T) {
	for r := 1; r <= 8; r++ {
		g := Hypercube(r)
		if g.N() != 1<<r {
			t.Fatalf("Q%d: n = %d", r, g.N())
		}
		if g.Degree() != r {
			t.Fatalf("Q%d: degree = %d", r, g.Degree())
		}
		if g.Diameter() != r {
			t.Fatalf("Q%d: diameter = %d", r, g.Diameter())
		}
		if !g.IsBipartite() {
			t.Fatalf("Q%d must be bipartite", r)
		}
	}
}

func TestTorusBasics(t *testing.T) {
	g := Torus(2, 5)
	if g.N() != 25 {
		t.Fatalf("n = %d", g.N())
	}
	if g.Degree() != 4 {
		t.Fatalf("degree = %d", g.Degree())
	}
	// 5x5 torus: max distance is 2+2.
	if g.Diameter() != 4 {
		t.Fatalf("diameter = %d", g.Diameter())
	}
	if g.IsBipartite() {
		t.Fatal("odd-side torus is not bipartite")
	}
	g2 := Torus(2, 4)
	if !g2.IsBipartite() {
		t.Fatal("even-side torus is bipartite")
	}
	g3 := Torus(3, 3)
	if g3.N() != 27 || g3.Degree() != 6 {
		t.Fatalf("3d torus: n=%d d=%d", g3.N(), g3.Degree())
	}
}

func TestCirculantMatchesCycle(t *testing.T) {
	c := Circulant(9, []int{1})
	if c.Degree() != 2 {
		t.Fatalf("degree = %d", c.Degree())
	}
	if c.Diameter() != 4 {
		t.Fatalf("diameter = %d", c.Diameter())
	}
}

func TestCirculantAntipodal(t *testing.T) {
	// n even with offset n/2 contributes a single neighbor: degree 2·1+1.
	g := Circulant(8, []int{1, 4})
	if g.Degree() != 3 {
		t.Fatalf("degree = %d, want 3", g.Degree())
	}
}

func TestCliqueCirculantHasClique(t *testing.T) {
	d := 8
	g := CliqueCirculant(40, d)
	if g.Degree() != d {
		t.Fatalf("degree = %d", g.Degree())
	}
	// Nodes 0..d/2-1 must form a clique.
	c := d / 2
	for u := 0; u < c; u++ {
		for v := 0; v < c; v++ {
			if u == v {
				continue
			}
			found := false
			for _, w := range g.Neighbors(u) {
				if int(w) == v {
					found = true
				}
			}
			if !found {
				t.Fatalf("clique edge %d-%d missing", u, v)
			}
		}
	}
}

func TestCliqueCirculantOddDegree(t *testing.T) {
	g := CliqueCirculant(32, 9)
	if g.Degree() != 9 {
		t.Fatalf("degree = %d, want 9", g.Degree())
	}
}

func TestPetersen(t *testing.T) {
	g := Petersen()
	if g.N() != 10 || g.Degree() != 3 {
		t.Fatalf("petersen: n=%d d=%d", g.N(), g.Degree())
	}
	if g.Diameter() != 2 {
		t.Fatalf("diameter = %d", g.Diameter())
	}
	if g.OddGirth() != 5 {
		t.Fatalf("odd girth = %d, want 5", g.OddGirth())
	}
	if g.Phi() != 2 {
		t.Fatalf("phi = %d, want 2", g.Phi())
	}
}

func TestCompleteBipartite(t *testing.T) {
	g := CompleteBipartite(5)
	if g.N() != 10 || g.Degree() != 5 {
		t.Fatalf("n=%d d=%d", g.N(), g.Degree())
	}
	if !g.IsBipartite() {
		t.Fatal("K(5,5) must be bipartite")
	}
	if g.OddGirth() != 0 {
		t.Fatalf("odd girth = %d, want 0", g.OddGirth())
	}
	if g.Diameter() != 2 {
		t.Fatalf("diameter = %d", g.Diameter())
	}
}

func TestRandomRegularValid(t *testing.T) {
	for _, tc := range []struct{ n, d int }{
		{16, 3}, {32, 4}, {64, 8}, {128, 8}, {50, 5}, {256, 16},
	} {
		g := RandomRegular(tc.n, tc.d, 7)
		if g.N() != tc.n || g.Degree() != tc.d {
			t.Fatalf("(%d,%d): got n=%d d=%d", tc.n, tc.d, g.N(), g.Degree())
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("(%d,%d): %v", tc.n, tc.d, err)
		}
		if !g.IsConnected() {
			t.Fatalf("(%d,%d): disconnected", tc.n, tc.d)
		}
		// Simplicity: no repeated neighbors.
		for u := 0; u < g.N(); u++ {
			seen := map[int32]bool{}
			for _, v := range g.Neighbors(u) {
				if seen[v] {
					t.Fatalf("(%d,%d): parallel edge at %d", tc.n, tc.d, u)
				}
				seen[v] = true
			}
		}
	}
}

func TestRandomRegularDeterministic(t *testing.T) {
	a := RandomRegular(64, 6, 42)
	b := RandomRegular(64, 6, 42)
	if !slices.Equal(a.Heads(), b.Heads()) {
		t.Fatal("same seed must give the same graph")
	}
	c := RandomRegular(64, 6, 43)
	if slices.Equal(a.Heads(), c.Heads()) {
		t.Fatal("different seeds produced identical graphs (suspicious)")
	}
}

func TestRandomRegularOddProductPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for odd n*d")
		}
	}()
	RandomRegular(5, 3, 1)
}

func TestBFSAndEccentricity(t *testing.T) {
	g := Cycle(8)
	dist := g.BFS(0)
	want := []int{0, 1, 2, 3, 4, 3, 2, 1}
	for i := range want {
		if dist[i] != want[i] {
			t.Fatalf("dist[%d] = %d, want %d", i, dist[i], want[i])
		}
	}
	if g.Eccentricity(0) != 4 {
		t.Fatalf("ecc = %d", g.Eccentricity(0))
	}
}

// TestReverseIndexConsistent checks the flat reverse index: every node has
// in-degree d, and its bucket lists the tails of its in-arcs, found by
// scanning Heads, in ascending order.
func TestReverseIndexConsistent(t *testing.T) {
	gs := []*Graph{Cycle(12), Hypercube(4), Petersen(), RandomRegular(48, 4, 3)}
	for _, g := range gs {
		d, src := g.Degree(), g.RevArcSrc()
		in := make([][]int32, g.N())
		for p, v := range g.Heads() {
			in[v] = append(in[v], int32(p/d))
		}
		for v, tails := range in {
			if len(tails) != d {
				t.Fatalf("%s: in-degree of %d is %d", g.Name(), v, len(tails))
			}
			if !slices.Equal(src[v*d:(v+1)*d], tails) {
				t.Fatalf("%s: reverse index of %d is %v, want the in-arc tails %v", g.Name(), v, src[v*d:(v+1)*d], tails)
			}
			if !slices.IsSorted(tails) {
				t.Fatalf("%s: in-arc tails of %d not ascending: %v", g.Name(), v, tails)
			}
		}
	}
}

func TestOddGirthProperty(t *testing.T) {
	// Property: on random regular graphs, OddGirth is 0 iff bipartite, and
	// when non-zero there really is an odd closed walk of that length.
	f := func(seedRaw int64) bool {
		rng := rand.New(rand.NewSource(seedRaw))
		n := 10 + 2*rng.Intn(20)
		d := 3 + rng.Intn(3)
		if n*d%2 != 0 {
			n++
		}
		g := RandomRegular(n, d, seedRaw)
		og := g.OddGirth()
		if (og == 0) != g.IsBipartite() {
			return false
		}
		return og == 0 || og%2 == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestOddClosedWalk: on vertex-transitive graphs every source attains the
// odd girth, and a bipartite graph has no odd closed walk at all.
func TestOddClosedWalk(t *testing.T) {
	for _, tc := range []struct {
		g    *Graph
		want int
	}{{Petersen(), 5}, {Cycle(7), 7}, {Complete(4), 3}, {Hypercube(3), -1}} {
		for src := 0; src < tc.g.N(); src++ {
			if got := tc.g.OddClosedWalk(src); got != tc.want {
				t.Fatalf("%s: OddClosedWalk(%d) = %d, want %d", tc.g.Name(), src, got, tc.want)
			}
		}
	}
}

func TestNu2Hints(t *testing.T) {
	for _, g := range []*Graph{Cycle(17), Hypercube(5), Torus(2, 7), Complete(9), Petersen()} {
		if _, ok := g.Nu2(); !ok {
			t.Fatalf("%s: expected analytic ν₂", g.Name())
		}
	}
	if _, ok := RandomRegular(16, 3, 1).Nu2(); ok {
		t.Fatal("random regular should not carry an analytic ν₂")
	}
}

func TestBalancingGraph(t *testing.T) {
	g := Cycle(10)
	b := Lazy(g)
	if b.Degree() != 2 || b.SelfLoops() != 2 || b.DegreePlus() != 4 {
		t.Fatalf("lazy: d=%d d°=%d d⁺=%d", b.Degree(), b.SelfLoops(), b.DegreePlus())
	}
	if !b.IsLazy() {
		t.Fatal("lazy graph must report IsLazy")
	}
	b1 := WithLoops(g, 1)
	if b1.IsLazy() {
		t.Fatal("d°=1 < d=2 must not be lazy")
	}
	if b1.DegreePlus() != 3 {
		t.Fatalf("d⁺ = %d", b1.DegreePlus())
	}
	if _, err := NewBalancing(nil, 2); err == nil {
		t.Fatal("expected error for nil graph")
	}
	if _, err := NewBalancing(g, -1); err == nil {
		t.Fatal("expected error for negative self-loops")
	}
	if b.Name() == "" || b.N() != 10 || b.Graph() != g {
		t.Fatal("balancing accessors broken")
	}
}

func TestGeneralizedPetersen(t *testing.T) {
	g := GeneralizedPetersen(5, 2)
	if g.N() != 10 || g.Degree() != 3 {
		t.Fatalf("gp(5,2): n=%d d=%d", g.N(), g.Degree())
	}
	if g.OddGirth() != 5 {
		t.Fatalf("gp(5,2) is the Petersen graph; odd girth = %d, want 5", g.OddGirth())
	}
	// GP(7,2): 3-regular, non-bipartite (odd outer cycle).
	g72 := GeneralizedPetersen(7, 2)
	if err := g72.Validate(); err != nil {
		t.Fatal(err)
	}
	if g72.IsBipartite() {
		t.Fatal("gp(7,2) has an odd outer cycle")
	}
	// GP(8,3) is the Möbius–Kantor graph: bipartite, girth 6.
	g83 := GeneralizedPetersen(8, 3)
	if !g83.IsBipartite() {
		t.Fatal("gp(8,3) (Möbius–Kantor) is bipartite")
	}
	for _, bad := range [][2]int{{2, 1}, {6, 3}, {5, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("gp(%d,%d) should panic", bad[0], bad[1])
				}
			}()
			GeneralizedPetersen(bad[0], bad[1])
		}()
	}
}

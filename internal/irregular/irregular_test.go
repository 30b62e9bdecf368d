package irregular

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// star returns a hub-and-spoke graph with k spokes: the canonical irregular
// fixture (hub degree k, leaves degree 1).
func star(k int) *Graph {
	adj := make([][]int, k+1)
	for i := 1; i <= k; i++ {
		adj[0] = append(adj[0], i)
		adj[i] = []int{0}
	}
	return MustNew("star", adj)
}

// barbell returns two cliques of size k joined by one bridge edge.
func barbell(k int) *Graph {
	n := 2 * k
	adj := make([][]int, n)
	for side := 0; side < 2; side++ {
		base := side * k
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				if i != j {
					adj[base+i] = append(adj[base+i], base+j)
				}
			}
		}
	}
	adj[k-1] = append(adj[k-1], k)
	adj[k] = append(adj[k], k-1)
	return MustNew("barbell", adj)
}

func TestNewValidation(t *testing.T) {
	if _, err := New("empty", nil); err == nil {
		t.Fatal("expected error for empty graph")
	}
	if _, err := New("self", [][]int{{0}}); err == nil {
		t.Fatal("expected error for self-arc")
	}
	if _, err := New("asym", [][]int{{1}, {}}); err == nil {
		t.Fatal("expected error for asymmetric arcs")
	}
	if _, err := New("oob", [][]int{{5}, {0}}); err == nil {
		t.Fatal("expected error for out-of-range neighbor")
	}
}

// TestNewAsymmetricErrorIsDeterministic: with several asymmetric pairs the
// error names the smallest one, the same on every call.
func TestNewAsymmetricErrorIsDeterministic(t *testing.T) {
	// 0->1 twice but 1->0 once; 0->2 once but 2->0 twice.
	adj := [][]int{{1, 1, 2}, {0}, {0, 0}}
	const want = "irregular asym: asymmetric arc multiset: 2 arcs 0->1 but 1 arcs 1->0"
	for i := 0; i < 100; i++ {
		if _, err := New("asym", adj); err == nil || err.Error() != want {
			t.Fatalf("call %d: got %v, want %q", i, err, want)
		}
	}
}

func TestStarBasics(t *testing.T) {
	g := star(5)
	if g.Degree(0) != 5 || g.Degree(3) != 1 {
		t.Fatalf("degrees: hub %d leaf %d", g.Degree(0), g.Degree(3))
	}
	if g.MaxDegree() != 5 {
		t.Fatalf("max degree %d", g.MaxDegree())
	}
	if !g.IsConnected() {
		t.Fatal("star is connected")
	}
}

func TestFairShareSumsToTotal(t *testing.T) {
	b := Lazy(star(7))
	share := b.FairShare(1000)
	sum := 0.0
	for _, s := range share {
		sum += s
	}
	if math.Abs(sum-1000) > 1e-9 {
		t.Fatalf("fair share sums to %v", sum)
	}
	// Hub (d⁺ = 14) gets 7× a leaf (d⁺ = 2).
	if math.Abs(share[0]-7*share[1]) > 1e-9 {
		t.Fatalf("hub %v vs leaf %v", share[0], share[1])
	}
}

func TestWithLoopsValidation(t *testing.T) {
	g := star(3)
	if _, err := WithLoops(g, []int{1, 1}); err == nil {
		t.Fatal("expected length error")
	}
	if _, err := WithLoops(g, []int{1, -1, 1, 1}); err == nil {
		t.Fatal("expected negativity error")
	}
}

func TestContinuousConvergesToFairShare(t *testing.T) {
	for _, g := range []*Graph{star(6), barbell(5)} {
		b := Lazy(g)
		x1 := make([]int64, g.N())
		x1[0] = 10000
		c := NewContinuous(b, x1)
		for i := 0; i < 20000 && c.MaxDeviation() > 1e-6; i++ {
			c.Step()
		}
		if dev := c.MaxDeviation(); dev > 1e-6 {
			t.Fatalf("%s: continuous diffusion did not reach the fair share (dev %v)", g.Name(), dev)
		}
	}
}

func TestEngineConservesOnIrregular(t *testing.T) {
	g := barbell(6)
	b := Lazy(g)
	x1 := make([]int64, g.N())
	x1[0] = 4321
	eng := MustEngine(b, RotorRouter{}, x1)
	eng.Run(500)
	if eng.TotalLoad() != 4321 {
		t.Fatalf("total %d", eng.TotalLoad())
	}
}

func TestRotorReachesFairShareOnStar(t *testing.T) {
	g := star(8)
	b := Lazy(g)
	x1 := make([]int64, g.N())
	x1[3] = 900 // all tokens on one leaf
	eng := MustEngine(b, RotorRouter{}, x1)
	eng.Run(4000)
	// Fair share: hub 900·16/32 = 450, each leaf 900·2/32 = 56.25. The
	// discrete process should land within O(maxdeg) of it.
	if dev := b.DeviationFromFairShare(eng.Loads()); dev > float64(4*g.MaxDegree()) {
		t.Fatalf("deviation %v from fair share, loads %v", dev, eng.Loads())
	}
	if rd := b.RelativeDiscrepancy(eng.Loads()); rd > 4 {
		t.Fatalf("relative discrepancy %v", rd)
	}
}

func TestSendFloorStableOnIrregular(t *testing.T) {
	g := barbell(5)
	b := Lazy(g)
	x1 := make([]int64, g.N())
	x1[0] = 2000
	eng := MustEngine(b, SendFloor{}, x1)
	eng.Run(6000)
	if dev := b.DeviationFromFairShare(eng.Loads()); dev > float64(6*g.MaxDegree()) {
		t.Fatalf("deviation %v from fair share", dev)
	}
	// Non-negativity: SendFloor never oversends.
	for u, v := range eng.Loads() {
		if v < 0 {
			t.Fatalf("negative load %d at %d", v, u)
		}
	}
}

func TestEngineRejectsBadVector(t *testing.T) {
	b := Lazy(star(3))
	if _, err := NewEngine(b, SendFloor{}, make([]int64, 2)); err == nil {
		t.Fatal("expected error")
	}
}

// TestConservationProperty: random irregular graphs (random trees plus
// random extra edges), random workloads — tokens always conserved, rotor
// loads never negative.
func TestConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(20)
		adj := make([][]int, n)
		// Random tree.
		for v := 1; v < n; v++ {
			u := rng.Intn(v)
			adj[u] = append(adj[u], v)
			adj[v] = append(adj[v], u)
		}
		// A few extra edges.
		for k := 0; k < n/3; k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			adj[u] = append(adj[u], v)
			adj[v] = append(adj[v], u)
		}
		g, err := New("random-irregular", adj)
		if err != nil {
			return false
		}
		b := Lazy(g)
		x1 := make([]int64, n)
		var total int64
		for u := range x1 {
			x1[u] = rng.Int63n(200)
			total += x1[u]
		}
		eng := MustEngine(b, RotorRouter{}, x1)
		eng.Run(200)
		if eng.TotalLoad() != total {
			return false
		}
		for _, v := range eng.Loads() {
			if v < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

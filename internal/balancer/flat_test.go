package balancer

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"detlb/internal/core"
	"detlb/internal/graph"
)

// crossCheckFlat runs a FlatBalancer's DistributeRange against the per-node
// Distribute of an identically configured instance for several rounds of
// pseudo-random loads, asserting that the expanded (base, mask) pairs equal
// the per-node sends exactly and that kept matches load − Σ sends. Both
// instances carry their own state (e.g. rotors), so agreement over many
// rounds also proves the state machines advance identically.
func crossCheckFlat(t *testing.T, name string, b *graph.Balancing, algo core.Balancer, allowNegative bool) {
	t.Helper()
	fb, ok := algo.(core.FlatBalancer)
	if !ok {
		t.Fatalf("%s does not implement FlatBalancer", name)
	}
	rd := fb.BindFlat(b)
	if rd == nil {
		t.Fatalf("%s: BindFlat declined for %s", name, b.Name())
	}
	nodes := algo.Bind(b)

	n, d := b.N(), b.Degree()
	rng := rand.New(rand.NewSource(42))
	x := make([]int64, n)
	bp := make([]int64, 2*n)
	kept := make([]int64, n)
	sends := make([]int64, d)

	for round := 0; round < 60; round++ {
		for u := range x {
			x[u] = rng.Int63n(1 << 20)
			if allowNegative && rng.Intn(8) == 0 {
				x[u] = -rng.Int63n(1 << 10)
			}
		}
		checkFlatRound(t, name, round, rd, nodes, x, bp, kept, sends)
	}
}

// checkFlatRound distributes one round of loads x through rd, split unevenly
// to exercise arbitrary [lo, hi) chunks, and through the per-node balancers,
// and fails on the first edge, stray mask bit or kept count where they
// differ. sends has one entry per original edge.
func checkFlatRound(t *testing.T, name string, round int, rd core.RangeDistributor, nodes []core.NodeBalancer, x, bp, kept, sends []int64) {
	t.Helper()
	n, d := len(x), len(sends)
	mid := n / 3
	rd.DistributeRange(x, bp, kept, 0, mid)
	rd.DistributeRange(x, bp, kept, mid, n)

	for u := 0; u < n; u++ {
		nodes[u].Distribute(x[u], sends, nil)
		base, mask := bp[2*u], uint64(bp[2*u+1])
		var sum int64
		for i := 0; i < d; i++ {
			want := sends[i]
			got := base + int64((mask>>uint(i))&1)
			if got != want {
				t.Fatalf("%s: round %d node %d edge %d: flat %d, per-node %d (load %d)",
					name, round, u, i, got, want, x[u])
			}
			sum += want
		}
		if mask>>uint(d) != 0 {
			t.Fatalf("%s: round %d node %d: mask has bits at or above degree %d: %b", name, round, u, d, mask)
		}
		if kept[u] != x[u]-sum {
			t.Fatalf("%s: round %d node %d: kept %d, want %d", name, round, u, kept[u], x[u]-sum)
		}
	}
}

func TestFlatRotorRouterMatchesPerNode(t *testing.T) {
	for _, b := range []*graph.Balancing{
		graph.Lazy(graph.RandomRegular(48, 8, 5)),         // d⁺ = 16, power of two
		graph.WithLoops(graph.Cycle(31), 3),               // d⁺ = 5, odd
		graph.WithLoops(graph.Hypercube(3), 0),            // d° = 0, Theorem 4.3 regime
		graph.WithLoops(graph.RandomRegular(20, 4, 2), 7), // d° > d
	} {
		crossCheckFlat(t, "rotor-router/"+b.Name(), b, NewRotorRouter(), true)
	}
}

func TestFlatRotorRouterInitialRotor(t *testing.T) {
	g := graph.Cycle(16)
	b := graph.Lazy(g)
	init := make([]int, g.N())
	for u := range init {
		init[u] = u % b.DegreePlus()
	}
	crossCheckFlat(t, "rotor-router/initial-rotor", b, &RotorRouter{InitialRotor: init}, false)
}

func TestFlatRotorRouterDeclinesCustomOrder(t *testing.T) {
	g := graph.Cycle(8)
	b := graph.Lazy(g)
	order := make([][]int, g.N())
	for u := range order {
		order[u] = []int{3, 2, 1, 0}
	}
	r := &RotorRouter{Order: order}
	if r.BindFlat(b) != nil {
		t.Fatal("BindFlat should decline custom slot orders")
	}
}

func TestFlatSendFloorMatchesPerNode(t *testing.T) {
	for _, b := range []*graph.Balancing{
		graph.Lazy(graph.RandomRegular(48, 8, 5)),
		graph.WithLoops(graph.Cycle(31), 3),
	} {
		crossCheckFlat(t, "send-floor/"+b.Name(), b, NewSendFloor(), true)
	}
}

func TestFlatSendRoundMatchesPerNode(t *testing.T) {
	for _, b := range []*graph.Balancing{
		graph.Lazy(graph.RandomRegular(48, 8, 5)),         // d⁺ = 2d
		graph.WithLoops(graph.RandomRegular(20, 4, 2), 9), // d⁺ > 2d, odd
	} {
		crossCheckFlat(t, "send-round/"+b.Name(), b, NewSendRound(), false)
	}
}

func TestFlatGoodSMatchesPerNode(t *testing.T) {
	for _, s := range []int{1, 3, 8} {
		b := graph.Lazy(graph.RandomRegular(48, 8, 5))
		crossCheckFlat(t, "good-s/"+b.Name(), b, NewGoodS(s), true)
	}
}

// TestFlatBiasedRoundingMatchesPerNode covers the low-bits mask on a lazy
// expander, a lazy hypercube and a d° > d graph, where x mod d⁺ can exceed d
// and the surplus stays on the self-loops; then checks whole engine
// trajectories, flat against per-node, at every pool width, and that a flat
// biased Step allocates nothing.
func TestFlatBiasedRoundingMatchesPerNode(t *testing.T) {
	graphs := []*graph.Balancing{
		graph.Lazy(graph.RandomRegular(48, 8, 5)),         // d⁺ = 16, power of two
		graph.Lazy(graph.Hypercube(5)),                    // d⁺ = 10
		graph.WithLoops(graph.RandomRegular(20, 4, 2), 7), // d° > d
	}
	for _, b := range graphs {
		crossCheckFlat(t, "biased/"+b.Name(), b, NewBiasedRounding(), true)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	rng := rand.New(rand.NewSource(7))
	for _, b := range []*graph.Balancing{
		graph.Lazy(graph.RandomRegular(256, 8, 3)),
		graph.WithLoops(graph.RandomRegular(128, 4, 2), 7),
	} {
		x1 := make([]int64, b.N())
		for u := range x1 {
			x1[u] = rng.Int63n(1 << 16)
			if rng.Intn(16) == 0 {
				x1[u] = -rng.Int63n(1 << 8)
			}
		}
		for _, width := range []int{0, 1, 2, 8} {
			flat := core.MustEngine(b, NewBiasedRounding(), x1, core.WithWorkers(width))
			perNode := core.MustEngine(b, perNodeOnly{NewBiasedRounding()}, x1, core.WithWorkers(width))
			for round := 1; round <= 40; round++ {
				if err := flat.Step(); err != nil {
					t.Fatal(err)
				}
				if err := perNode.Step(); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(flat.Loads(), perNode.Loads()) {
					t.Fatalf("%s width %d round %d: flat and per-node trajectories diverge", b.Name(), width, round)
				}
			}
			flat.Close()
			perNode.Close()
		}
	}

	b := graphs[0]
	eng := core.MustEngine(b, NewBiasedRounding(), make([]int64, b.N()))
	if allocs := testing.AllocsPerRun(100, func() { _ = eng.Step() }); allocs != 0 {
		t.Fatalf("flat biased Engine.Step allocates %v times per round", allocs)
	}
}

// perNodeOnly hides a balancer's BindFlat, forcing the engine's per-node
// Distribute path.
type perNodeOnly struct{ core.Balancer }

// TestDividerMatchesFloorShare pins the power-of-two shortcut against the
// reference floor division, including negative loads.
func TestDividerMatchesFloorShare(t *testing.T) {
	for _, by := range []int{1, 2, 3, 5, 8, 16, 21, 64} {
		dv := newDivider(by)
		for _, x := range []int64{-1 << 40, -17, -1, 0, 1, 7, 15, 16, 1 << 40} {
			if got, want := dv.floor(x), core.FloorShare(x, by); got != want {
				t.Fatalf("divider(%d).floor(%d) = %d, want %d", by, x, got, want)
			}
			if x >= 0 {
				q, r := dv.split(x)
				if q != core.FloorShare(x, by) || int64(r) != x-q*int64(by) {
					t.Fatalf("divider(%d).split(%d) = (%d,%d)", by, x, q, r)
				}
			}
		}
	}
}

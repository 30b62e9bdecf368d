package balancer

import (
	"slices"
	"testing"

	"detlb/internal/core"
	"detlb/internal/graph"
)

func TestEdgeColoringIsProper(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Hypercube(4), graph.Cycle(9), graph.Petersen(), graph.RandomRegular(32, 4, 1),
		graph.Circulant(10, []int{1, 9}), graph.Circulant(12, []int{1, 6}),
	} {
		sched := EdgeColoringScheduler(g)
		if len(sched.Rounds) < g.Degree() || len(sched.Rounds) > 2*g.Degree()-1 {
			t.Fatalf("%s: %d color classes for degree %d", g.Name(), len(sched.Rounds), g.Degree())
		}
		total := 0
		for round, arcs := range sched.Rounds {
			seen := make(map[int]bool)
			for _, p := range arcs {
				u, v := int(p)/g.Degree(), int(g.Heads()[p])
				if seen[u] || seen[v] {
					t.Fatalf("%s: color %d is not a matching", g.Name(), round)
				}
				seen[u] = true
				seen[v] = true
				total++
			}
		}
		if total != g.N()*g.Degree()/2 {
			t.Fatalf("%s: colored %d edges, want %d", g.Name(), total, g.N()*g.Degree()/2)
		}
	}
}

func TestHypercubeColoringUsesExactlyD(t *testing.T) {
	g := graph.Hypercube(5)
	sched := EdgeColoringScheduler(g)
	if len(sched.Rounds) != 5 {
		t.Fatalf("hypercube coloring used %d classes, want 5", len(sched.Rounds))
	}
}

// TestMatchingBalancesDoubledCycle: on the 10-cycle with every edge doubled,
// the balancing circuit averages each matched pair over one copy. Both
// copies in one matching would swap the pair's loads instead, and the point
// mass would never move below K.
func TestMatchingBalancesDoubledCycle(t *testing.T) {
	g := graph.Circulant(10, []int{1, 9})
	algo := NewMatchingBalancer(EdgeColoringScheduler(g), false, 1)
	eng := runAudited(t, graph.Lazy(g), algo, pointMass(10, 512), 160, core.NewConservationAuditor())
	if d := eng.Discrepancy(); d >= 512 {
		t.Fatalf("matching on %s stuck at discrepancy %d = K", g.Name(), d)
	}
}

func TestRandomMatchingIsMatching(t *testing.T) {
	g := graph.RandomRegular(40, 6, 2)
	sched := NewRandomMatchingScheduler(g, 3)
	for round := 1; round <= 20; round++ {
		arcs := sched.Matching(round)
		seen := make(map[int]bool)
		for _, p := range arcs {
			u, v := int(p)/g.Degree(), int(g.Heads()[p])
			if seen[u] || seen[v] {
				t.Fatalf("round %d: not a matching", round)
			}
			seen[u] = true
			seen[v] = true
		}
		// Greedy maximal matching on a connected graph matches ≥ n/3 nodes.
		if len(arcs) < g.N()/3/2 {
			t.Fatalf("round %d: suspiciously small matching (%d arcs)", round, len(arcs))
		}
	}
}

// TestRandomMatchingRestartsAtRoundOne: a run that starts at round 1 draws
// the matchings of a freshly built scheduler, whatever ran on it before.
func TestRandomMatchingRestartsAtRoundOne(t *testing.T) {
	g := graph.RandomRegular(40, 6, 2)
	draw := func(s *RandomMatchingScheduler) [][]int32 {
		var out [][]int32
		for round := 1; round <= 5; round++ {
			out = append(out, slices.Clone(s.Matching(round)))
		}
		return out
	}
	sched := NewRandomMatchingScheduler(g, 3)
	want := draw(NewRandomMatchingScheduler(g, 3))
	for run := range 2 {
		if got := draw(sched); !slices.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("run %d draws different matchings than a fresh scheduler", run)
		}
	}
}

func TestMatchingBalancerConserves(t *testing.T) {
	g := graph.Hypercube(5)
	b := graph.Lazy(g)
	algo := NewMatchingBalancer(EdgeColoringScheduler(g), false, 1)
	runAudited(t, b, algo, pointMass(32, 3203), 400,
		core.NewConservationAuditor(), core.NewNonNegativeAuditor())
}

func TestMatchingCircuitBeatsDiffusiveFloor(t *testing.T) {
	// The balancing circuit reaches O(1) discrepancy on the hypercube.
	g := graph.Hypercube(6)
	b := graph.Lazy(g)
	algo := NewMatchingBalancer(EdgeColoringScheduler(g), false, 1)
	eng := core.MustEngine(b, algo, pointMass(64, 64*11+3))
	for i := 0; i < 600; i++ {
		if err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if eng.Discrepancy() > 2 {
		t.Fatalf("balancing circuit stuck at discrepancy %d", eng.Discrepancy())
	}
}

func TestRandomMatchingBalances(t *testing.T) {
	g := graph.RandomRegular(64, 6, 4)
	b := graph.Lazy(g)
	algo := NewMatchingBalancer(NewRandomMatchingScheduler(g, 7), true, 7)
	eng := core.MustEngine(b, algo, pointMass(64, 64*9+5))
	for i := 0; i < 800; i++ {
		if err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if eng.Discrepancy() > 4 {
		t.Fatalf("random matching stuck at discrepancy %d", eng.Discrepancy())
	}
}

// TestReverseArcIndex: every arc's reverse points back at its tail, and the
// k-th parallel copy of u -> v pairs with the k-th copy of v -> u, so the
// pairing is a bijection on a multigraph too.
func TestReverseArcIndex(t *testing.T) {
	multi := graph.MustNew("multi", [][]int{{1, 1, 2}, {0, 3, 0}, {3, 0, 3}, {2, 1, 2}})
	for _, g := range []*graph.Graph{graph.Petersen(), multi} {
		d, heads := g.Degree(), g.Heads()
		for p := range heads {
			r := reverseArcPos(g, p)
			if int(heads[r]) != p/d || r/d != int(heads[p]) {
				t.Fatalf("%s: reverse of arc %d (%d->%d) is arc %d (%d->%d)",
					g.Name(), p, p/d, heads[p], r, r/d, heads[r])
			}
			if back := reverseArcPos(g, r); back != p {
				t.Fatalf("%s: reverse of reverse of arc %d is %d", g.Name(), p, back)
			}
		}
	}
}

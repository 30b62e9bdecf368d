package topology

import (
	"reflect"
	"testing"

	"detlb/internal/core"
	"detlb/internal/graph"
)

func TestOneShotGenerators(t *testing.T) {
	g := graph.Cycle(8)
	cases := []struct {
		name string
		s    Schedule
		fire int
		want core.TopologyDelta
	}{
		{"fail-links", FailLinks{Round: 3, Links: [][2]int{{0, 1}}}, 3,
			core.TopologyDelta{FailLinks: [][2]int{{0, 1}}}},
		{"restore-links", RestoreLinks{Round: 5, Links: [][2]int{{2, 3}}}, 5,
			core.TopologyDelta{RestoreLinks: [][2]int{{2, 3}}}},
		{"fail-nodes", FailNodes{Round: 0, Nodes: []int{4}, Redistribute: true}, 0,
			core.TopologyDelta{FailNodes: []core.NodeFault{{Node: 4, Redistribute: true}}}},
		{"restore-nodes", RestoreNodes{Round: 9, Nodes: []int{4, 5}}, 9,
			core.TopologyDelta{RestoreNodes: []int{4, 5}}},
	}
	for _, tc := range cases {
		for r := 0; r <= 12; r++ {
			delta, ok := tc.s.DeltaAt(r, g)
			if r == tc.fire {
				if !ok || !reflect.DeepEqual(delta, tc.want) {
					t.Fatalf("%s round %d: got (%+v, %v), want %+v", tc.name, r, delta, ok, tc.want)
				}
			} else if ok {
				t.Fatalf("%s fired at round %d (configured %d)", tc.name, r, tc.fire)
			}
		}
	}
}

func TestPeriodicPairsFailWithRestore(t *testing.T) {
	g := graph.CliqueCirculant(16, 4)
	p := Periodic{Every: 5, Down: 3, Seed: 42}
	fails := map[int][2]int{}
	for r := 0; r <= 100; r++ {
		delta, ok := p.DeltaAt(r, g)
		if !ok {
			continue
		}
		for _, l := range delta.FailLinks {
			fails[r] = l
		}
		for _, l := range delta.RestoreLinks {
			failed, seen := fails[r-3]
			if !seen || failed != l {
				t.Fatalf("round %d restores %v, but round %d failed %v (seen=%v)", r, l, r-3, failed, seen)
			}
		}
	}
	if len(fails) != 20 {
		t.Fatalf("fired %d times over 100 rounds with Every=5, want 20", len(fails))
	}
	// Every chosen pair must be an actual edge of the graph.
	for r, l := range fails {
		found := false
		for _, v := range g.Neighbors(l[0]) {
			if int(v) == l[1] {
				found = true
			}
		}
		if !found {
			t.Fatalf("round %d picked non-edge %v", r, l)
		}
	}
}

func TestPeriodicIsPure(t *testing.T) {
	g := graph.CliqueCirculant(16, 4)
	p := Periodic{Every: 4, Down: 2, Seed: 7}
	for r := 0; r <= 60; r++ {
		a, okA := p.DeltaAt(r, g)
		b, okB := p.DeltaAt(r, g)
		if okA != okB || !reflect.DeepEqual(a, b) {
			t.Fatalf("round %d: repeated call differs: (%+v,%v) vs (%+v,%v)", r, a, okA, b, okB)
		}
	}
}

func TestFlapDutyCycle(t *testing.T) {
	g := graph.Cycle(8)
	f := Flap{Link: [2]int{0, 1}, From: 10, Period: 6, Duty: 2}
	for r := 0; r <= 40; r++ {
		delta, ok := f.DeltaAt(r, g)
		switch {
		case r >= 10 && (r-10)%6 == 0:
			if !ok || len(delta.FailLinks) != 1 {
				t.Fatalf("round %d: expected failure, got (%+v, %v)", r, delta, ok)
			}
		case r >= 10 && (r-10)%6 == 2:
			if !ok || len(delta.RestoreLinks) != 1 {
				t.Fatalf("round %d: expected restore, got (%+v, %v)", r, delta, ok)
			}
		default:
			if ok {
				t.Fatalf("round %d: unexpected event %+v", r, delta)
			}
		}
	}
}

func TestFlapDefaultsDutyToHalfPeriod(t *testing.T) {
	g := graph.Cycle(8)
	f := Flap{Link: [2]int{0, 1}, From: 0, Period: 8}
	if _, ok := f.DeltaAt(4, g); !ok {
		t.Fatal("default duty should restore at period/2")
	}
}

func TestPartitionCutsAndHeals(t *testing.T) {
	g := graph.Cycle(8)
	p := Partition{Round: 5, Boundary: 4, Heal: 20}
	delta, ok := p.DeltaAt(5, g)
	if !ok || len(delta.FailLinks) != 2 {
		t.Fatalf("cycle cut at boundary 4 has 2 crossing links, got %+v", delta)
	}
	for _, l := range delta.FailLinks {
		if (l[0] < 4) == (l[1] < 4) {
			t.Fatalf("link %v does not cross the boundary", l)
		}
	}
	heal, ok := p.DeltaAt(20, g)
	if !ok || !reflect.DeepEqual(heal.RestoreLinks, delta.FailLinks) {
		t.Fatalf("heal %+v does not restore the cut %+v", heal, delta)
	}
	for _, r := range []int{0, 4, 6, 19, 21} {
		if _, ok := p.DeltaAt(r, g); ok {
			t.Fatalf("partition fired at round %d", r)
		}
	}
}

func TestPartitionActuallyDisconnects(t *testing.T) {
	g := graph.CliqueCirculant(16, 4)
	b := graph.Lazy(g)
	eng := core.MustEngine(b, keepAll{}, make([]int64, 16))
	delta, ok := Partition{Round: 0, Boundary: 8}.DeltaAt(0, g)
	if !ok {
		t.Fatal("partition did not fire")
	}
	if _, err := eng.ApplyTopologyDelta(delta); err != nil {
		t.Fatal(err)
	}
	if _, count := eng.Components(); count != 2 {
		t.Fatalf("partitioned graph has %d live components, want 2", count)
	}
}

// keepAll is a minimal keep-everything balancer: schedule tests only
// exercise structure, never distribution.
type keepAll struct{}

func (keepAll) Name() string { return "keep-all" }

func (keepAll) Bind(b *graph.Balancing) []core.NodeBalancer {
	nodes := make([]core.NodeBalancer, b.N())
	for u := range nodes {
		nodes[u] = keepAllNode{}
	}
	return nodes
}

type keepAllNode struct{}

func (keepAllNode) Distribute(load int64, sends, selfLoops []int64) {
	for i := range sends {
		sends[i] = 0
	}
}

func TestComposeMergesAndPreservesOrder(t *testing.T) {
	g := graph.Cycle(8)
	c := Compose{
		FailLinks{Round: 2, Links: [][2]int{{0, 1}}},
		nil,
		RestoreLinks{Round: 2, Links: [][2]int{{0, 1}}},
		FailNodes{Round: 2, Nodes: []int{5}},
	}
	delta, ok := c.DeltaAt(2, g)
	if !ok {
		t.Fatal("compose did not fire")
	}
	want := core.TopologyDelta{
		FailLinks:    [][2]int{{0, 1}},
		RestoreLinks: [][2]int{{0, 1}},
		FailNodes:    []core.NodeFault{{Node: 5}},
	}
	if !reflect.DeepEqual(delta, want) {
		t.Fatalf("merged delta %+v, want %+v", delta, want)
	}
	if _, ok := c.DeltaAt(3, g); ok {
		t.Fatal("compose fired on a quiet round")
	}
	// Engine semantics: restores apply before failures, so the round-2 net
	// effect on link {0,1} is failed.
	b := graph.Lazy(g)
	eng := core.MustEngine(b, keepAll{}, make([]int64, 8))
	if _, err := eng.ApplyTopologyDelta(delta); err != nil {
		t.Fatal(err)
	}
	alive := eng.ArcAlive()
	d := g.Degree()
	for i := 0; i < d; i++ {
		if int(g.Heads()[0*d+i]) == 1 && alive[0*d+i] {
			t.Fatal("fail must win over restore within one delta")
		}
	}
}

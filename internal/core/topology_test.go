package core

import (
	"strings"
	"testing"

	"detlb/internal/graph"
)

// flatEvenSplit is evenSplit with the flat bulk path, so the fault overlay's
// interaction with the compressed (base, mask) serial step is under test.
type flatEvenSplit struct{ evenSplit }

func (flatEvenSplit) BindFlat(b *graph.Balancing) RangeDistributor {
	return flatEvenSplitRange{d: b.Degree(), dplus: b.DegreePlus()}
}

type flatEvenSplitRange struct{ d, dplus int }

func (r flatEvenSplitRange) DistributeRange(x, bp, kept []int64, lo, hi int) {
	for u := lo; u < hi; u++ {
		share := FloorShare(x[u], r.dplus)
		bp[2*u] = share
		bp[2*u+1] = 0
		kept[u] = x[u] - int64(r.d)*share
	}
}

func TestApplyTopologyDeltaValidation(t *testing.T) {
	b := graph.Lazy(graph.Cycle(8))
	eng := MustEngine(b, evenSplit{}, pointMass(8, 100))
	cases := []TopologyDelta{
		{FailLinks: [][2]int{{0, 8}}},
		{FailLinks: [][2]int{{-1, 0}}},
		{FailLinks: [][2]int{{3, 3}}},
		{RestoreLinks: [][2]int{{2, 2}}},
		{FailNodes: []NodeFault{{Node: 99}}},
		{RestoreNodes: []int{-3}},
	}
	for i, delta := range cases {
		if _, err := eng.ApplyTopologyDelta(delta); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
	if eng.TopologyEpoch() != 0 || eng.ArcAlive() != nil {
		t.Fatal("rejected deltas must leave the engine pristine")
	}
}

func TestTopologyEpochSemantics(t *testing.T) {
	b := graph.Lazy(graph.Cycle(8))
	eng := MustEngine(b, evenSplit{}, pointMass(8, 100))

	if ch, err := eng.ApplyTopologyDelta(TopologyDelta{}); err != nil || ch.Changed() {
		t.Fatalf("empty delta: ch=%+v err=%v", ch, err)
	}
	ch, err := eng.ApplyTopologyDelta(TopologyDelta{FailLinks: [][2]int{{0, 1}}})
	if err != nil || ch.FailedLinks != 1 || ch.Epoch != 1 {
		t.Fatalf("first failure: ch=%+v err=%v", ch, err)
	}
	// Failing a dead link, restoring an alive one, failing a non-edge: no-ops.
	ch, err = eng.ApplyTopologyDelta(TopologyDelta{
		FailLinks:    [][2]int{{0, 1}, {0, 4}},
		RestoreLinks: [][2]int{{2, 3}},
	})
	if err != nil || ch.Changed() {
		t.Fatalf("no-op delta changed state: %+v (err=%v)", ch, err)
	}
	if eng.TopologyEpoch() != 1 {
		t.Fatalf("no-op delta bumped epoch to %d", eng.TopologyEpoch())
	}
	ch, err = eng.ApplyTopologyDelta(TopologyDelta{RestoreLinks: [][2]int{{1, 0}}})
	if err != nil || ch.RestoredLinks != 1 || eng.TopologyEpoch() != 2 {
		t.Fatalf("restore: ch=%+v err=%v epoch=%d", ch, err, eng.TopologyEpoch())
	}
	for _, a := range eng.ArcAlive() {
		if !a {
			t.Fatal("fully restored graph still has dead arcs")
		}
	}
}

func TestLinkFailureBouncesAndConserves(t *testing.T) {
	for _, algo := range []Balancer{evenSplit{}, flatEvenSplit{}} {
		b := graph.Lazy(graph.Cycle(16))
		eng := MustEngine(b, algo, pointMass(16, 1000),
			WithAuditor(NewConservationAuditor()), WithFlowTracking())
		if _, err := eng.ApplyTopologyDelta(TopologyDelta{FailLinks: [][2]int{{0, 1}}}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			if err := eng.Step(); err != nil {
				t.Fatalf("%s: %v", algo.Name(), err)
			}
		}
		if got := eng.TotalLoad(); got != 1000 {
			t.Fatalf("%s: total load %d after link failure, want 1000", algo.Name(), got)
		}
		// No token may have crossed the dead link in either direction.
		d := b.Degree()
		heads := b.Graph().Heads()
		flows := eng.Flows()
		for _, u := range []int{0, 1} {
			for i := 0; i < d; i++ {
				v := int(heads[u*d+i])
				if (u == 0 && v == 1) || (u == 1 && v == 0) {
					if flows[u][i] != 0 {
						t.Fatalf("%s: dead arc %d→%d carried flow %d", algo.Name(), u, v, flows[u][i])
					}
				}
			}
		}
	}
}

func TestFaultedDeterminismAcrossWorkers(t *testing.T) {
	for _, algo := range []Balancer{evenSplit{}, flatEvenSplit{}} {
		x1 := make([]int64, 32)
		x1[0], x1[7], x1[19] = 900, 250, 77
		run := func(workers int) []int64 {
			b := graph.Lazy(graph.CliqueCirculant(32, 4))
			eng := MustEngine(b, algo, x1, WithWorkers(workers))
			for r := 1; r <= 40; r++ {
				switch r {
				case 5:
					mustDelta(t, eng, TopologyDelta{FailLinks: [][2]int{{0, 1}, {2, 3}}})
				case 12:
					mustDelta(t, eng, TopologyDelta{FailNodes: []NodeFault{{Node: 7, Redistribute: true}}})
				case 20:
					mustDelta(t, eng, TopologyDelta{RestoreLinks: [][2]int{{0, 1}}, RestoreNodes: []int{7}})
				}
				if err := eng.Step(); err != nil {
					t.Fatal(err)
				}
			}
			return append([]int64(nil), eng.Loads()...)
		}
		ref := run(0)
		for _, w := range []int{1, 2, 8} {
			got := run(w)
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("%s: workers=%d loads[%d]=%d, serial %d", algo.Name(), w, i, got[i], ref[i])
				}
			}
		}
	}
}

func mustDelta(t *testing.T, eng *Engine, delta TopologyDelta) TopologyChange {
	t.Helper()
	ch, err := eng.ApplyTopologyDelta(delta)
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

func TestNodeFailureStranding(t *testing.T) {
	b := graph.Lazy(graph.Cycle(8))
	eng := MustEngine(b, evenSplit{}, []int64{10, 20, 30, 40, 50, 60, 70, 80},
		WithAuditor(NewConservationAuditor()))
	if err := eng.Step(); err != nil { // latch the auditor's total first
		t.Fatal(err)
	}
	load3 := eng.Loads()[3]
	ch := mustDelta(t, eng, TopologyDelta{FailNodes: []NodeFault{{Node: 3}}})
	if ch.Stranded != load3 || ch.Redistributed != 0 || ch.FailedNodes != 1 {
		t.Fatalf("stranding change %+v, want Stranded=%d", ch, load3)
	}
	if eng.StrandedLoad() != load3 || eng.Loads()[3] != 0 {
		t.Fatalf("stranded=%d x[3]=%d", eng.StrandedLoad(), eng.Loads()[3])
	}
	if got := eng.TotalLoad(); got != 360-load3 {
		t.Fatalf("total %d, want %d", got, 360-load3)
	}
	// The conservation auditor must have followed the stranded load out.
	for i := 0; i < 20; i++ {
		if err := eng.Step(); err != nil {
			t.Fatalf("conservation misfired after stranding: %v", err)
		}
	}
	if eng.NodeAlive(3) || eng.LiveNodes() != 7 {
		t.Fatal("node 3 should be dead")
	}
}

func TestNodeFailureRedistribution(t *testing.T) {
	b := graph.Lazy(graph.Cycle(8))
	eng := MustEngine(b, evenSplit{}, []int64{0, 0, 0, 101, 0, 0, 0, 0},
		WithAuditor(NewConservationAuditor()))
	if err := eng.Step(); err != nil {
		t.Fatal(err)
	}
	before := eng.TotalLoad()
	load3 := eng.Loads()[3]
	x2, x4 := eng.Loads()[2], eng.Loads()[4]
	ch := mustDelta(t, eng, TopologyDelta{FailNodes: []NodeFault{{Node: 3, Redistribute: true}}})
	if ch.Redistributed != load3 || ch.Stranded != 0 {
		t.Fatalf("redistribution change %+v, want Redistributed=%d", ch, load3)
	}
	if eng.TotalLoad() != before || eng.Loads()[3] != 0 {
		t.Fatalf("total %d (want %d), x[3]=%d", eng.TotalLoad(), before, eng.Loads()[3])
	}
	// Cycle node 3's neighbors are 2 and 4; the remainder goes to the lowest
	// arc index. The split must be exact: floor share + remainder tokens.
	got2, got4 := eng.Loads()[2]-x2, eng.Loads()[4]-x4
	if got2+got4 != load3 || got2 < got4 && got2-got4 != -1 || got2 > got4+1 {
		t.Fatalf("neighbors received %d and %d of %d", got2, got4, load3)
	}
	for i := 0; i < 20; i++ {
		if err := eng.Step(); err != nil {
			t.Fatalf("conservation misfired after redistribution: %v", err)
		}
	}
}

func TestRedistributeWithNoLiveNeighborsStrands(t *testing.T) {
	b := graph.Lazy(graph.Cycle(8))
	eng := MustEngine(b, evenSplit{}, []int64{0, 0, 0, 80, 0, 0, 0, 0})
	mustDelta(t, eng, TopologyDelta{FailLinks: [][2]int{{2, 3}, {3, 4}}})
	ch := mustDelta(t, eng, TopologyDelta{FailNodes: []NodeFault{{Node: 3, Redistribute: true}}})
	if ch.Stranded != 80 || ch.Redistributed != 0 {
		t.Fatalf("isolated redistribute should strand: %+v", ch)
	}
}

func TestSequentialNodeFailuresSeeEarlierDeaths(t *testing.T) {
	// Failing 2 then 3 in one delta: 3's redistribution must not target the
	// already-dead 2, so everything lands on 4.
	b := graph.Lazy(graph.Cycle(8))
	eng := MustEngine(b, evenSplit{}, []int64{0, 0, 0, 60, 0, 0, 0, 0})
	ch := mustDelta(t, eng, TopologyDelta{FailNodes: []NodeFault{
		{Node: 2, Redistribute: true},
		{Node: 3, Redistribute: true},
	}})
	if ch.Redistributed != 60 {
		t.Fatalf("change %+v", ch)
	}
	if eng.Loads()[4] != 60 || eng.Loads()[2] != 0 {
		t.Fatalf("loads %v: node 3's load must all reach node 4", eng.Loads())
	}
}

func TestComponentsAndEffectiveDiscrepancy(t *testing.T) {
	b := graph.Lazy(graph.Cycle(8))
	eng := MustEngine(b, evenSplit{}, []int64{100, 100, 100, 100, 0, 0, 0, 0})
	labels, count := eng.Components()
	if count != 1 {
		t.Fatalf("pristine cycle has %d components", count)
	}
	// Cut the cycle into {0..3} and {4..7}.
	mustDelta(t, eng, TopologyDelta{FailLinks: [][2]int{{3, 4}, {7, 0}}})
	labels, count = eng.Components()
	if count != 2 {
		t.Fatalf("partitioned cycle has %d components", count)
	}
	for u := 0; u < 8; u++ {
		want := int32(0)
		if u >= 4 {
			want = 1
		}
		if labels[u] != want {
			t.Fatalf("labels=%v", labels)
		}
	}
	// Each side is internally balanced: global discrepancy 100, effective 0.
	if eng.Discrepancy() != 100 {
		t.Fatalf("global discrepancy %d", eng.Discrepancy())
	}
	if got := eng.EffectiveDiscrepancy(); got != 0 {
		t.Fatalf("effective discrepancy %d, want 0", got)
	}
	// 400 tokens over 8 nodes is fair at 50/node; component {0..3} holds 400,
	// 200 above its fair total.
	if got := eng.UnreachableLoad(); got != 200 {
		t.Fatalf("unreachable load %d, want 200", got)
	}
	// Dead nodes are labeled −1 and their death splits their segment: the
	// {4..7} ring arc becomes {4} and {6,7}.
	mustDelta(t, eng, TopologyDelta{FailNodes: []NodeFault{{Node: 5}}})
	labels, count = eng.Components()
	if labels[5] != -1 || count != 3 || labels[4] != 1 || labels[6] != 2 || labels[7] != 2 {
		t.Fatalf("after node death: labels=%v count=%d", labels, count)
	}
}

func TestIncrementalPatchMatchesRebuild(t *testing.T) {
	links := [][2]int{{0, 1}, {2, 3}, {5, 6}, {8, 9}, {10, 11}}
	x1 := make([]int64, 16)
	x1[0] = 500

	// a: one link per delta — small touches take the incremental patch path.
	ba := graph.Lazy(graph.CliqueCirculant(16, 4))
	a := MustEngine(ba, evenSplit{}, x1)
	for _, uv := range links {
		mustDelta(t, a, TopologyDelta{FailLinks: [][2]int{uv}})
	}
	// b: same links in one delta that also carries a (no-op) node restore,
	// which forces the full epoch rebuild.
	bb := graph.Lazy(graph.CliqueCirculant(16, 4))
	be := MustEngine(bb, evenSplit{}, x1)
	mustDelta(t, be, TopologyDelta{FailLinks: links, RestoreNodes: []int{0}})

	ta, tb := a.topo, be.topo
	for p := range ta.arcAlive {
		if ta.arcAlive[p] != tb.arcAlive[p] {
			t.Fatalf("arcAlive[%d] differs: patch=%v rebuild=%v", p, ta.arcAlive[p], tb.arcAlive[p])
		}
	}
	for u := range ta.liveDeg {
		if ta.liveDeg[u] != tb.liveDeg[u] {
			t.Fatalf("liveDeg[%d] differs: patch=%d rebuild=%d", u, ta.liveDeg[u], tb.liveDeg[u])
		}
		if ta.deadMask[u] != tb.deadMask[u] {
			t.Fatalf("deadMask[%d] differs: patch=%b rebuild=%b", u, ta.deadMask[u], tb.deadMask[u])
		}
	}
	if ta.deadArcs != tb.deadArcs || ta.faulted != tb.faulted {
		t.Fatalf("deadArcs/faulted differ: (%d,%v) vs (%d,%v)", ta.deadArcs, ta.faulted, tb.deadArcs, tb.faulted)
	}
	// And the two engines must walk identical trajectories from here.
	for i := 0; i < 30; i++ {
		if err := a.Step(); err != nil {
			t.Fatal(err)
		}
		if err := be.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for u := range x1 {
		if a.Loads()[u] != be.Loads()[u] {
			t.Fatalf("loads[%d]: patch=%d rebuild=%d", u, a.Loads()[u], be.Loads()[u])
		}
	}
}

func TestDeadNodeStrandsInjectedLoad(t *testing.T) {
	// Load injected (ApplyDelta) at a dead node cannot leave: all its arcs
	// bounce. After restore it rejoins and drains into the ring.
	b := graph.Lazy(graph.Cycle(8))
	eng := MustEngine(b, evenSplit{}, make([]int64, 8))
	mustDelta(t, eng, TopologyDelta{FailNodes: []NodeFault{{Node: 2}}})
	delta := make([]int64, 8)
	delta[2] = 64
	if err := eng.ApplyDelta(delta); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if eng.Loads()[2] != 64 {
		t.Fatalf("dead node leaked load: x[2]=%d", eng.Loads()[2])
	}
	mustDelta(t, eng, TopologyDelta{RestoreNodes: []int{2}})
	for i := 0; i < 200; i++ {
		if err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if eng.Loads()[2] == 64 || eng.TotalLoad() != 64 {
		t.Fatalf("restored node did not rejoin: loads=%v", eng.Loads())
	}
}

func TestFairnessAuditorsTolerateDeadArcs(t *testing.T) {
	b := graph.Lazy(graph.Cycle(8))
	eng := MustEngine(b, evenSplit{}, []int64{4, 4, 4, 4, 4, 4, 4, 4},
		WithAuditor(NewMinShareAuditor()), WithAuditor(NewRoundFairAuditor()))
	mustDelta(t, eng, TopologyDelta{FailLinks: [][2]int{{0, 1}}})
	for i := 0; i < 50; i++ {
		if err := eng.Step(); err != nil {
			t.Fatalf("fairness auditor misfired on dead arc: %v", err)
		}
	}
	// The audits must still catch genuinely unfair balancers under faults.
	eng2 := MustEngine(b, hoarder{}, []int64{100, 0, 0, 0, 0, 0, 0, 0},
		WithAuditor(NewMinShareAuditor()))
	mustDelta(t, eng2, TopologyDelta{FailLinks: [][2]int{{4, 5}}})
	err := eng2.Step()
	if err == nil || !strings.Contains(err.Error(), "min-share") {
		t.Fatalf("hoarder must still violate min-share on live arcs: %v", err)
	}
}

func TestFaultedStepAllocates(t *testing.T) {
	b := graph.Lazy(graph.CliqueCirculant(64, 6))
	eng := MustEngine(b, flatEvenSplit{}, pointMass(64, 10000))
	mustDelta(t, eng, TopologyDelta{FailLinks: [][2]int{{0, 1}, {10, 11}}})
	allocs := testing.AllocsPerRun(100, func() {
		if err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("faulted Step allocates %v per round, want 0", allocs)
	}
}

// TestSendsAllocatedWhereRead pins where the engine keeps the n·d per-arc
// sends array: not on the bulk path without auditors or flow tracking, at
// any width, which pushes from the (base, mask) pairs, but at construction
// for the per-node path, auditors and flow tracking, and on the first
// topology delta that can fault it.
func TestSendsAllocatedWhereRead(t *testing.T) {
	b := graph.Lazy(graph.CliqueCirculant(64, 6))
	x := pointMass(64, 10000)
	for _, c := range []struct {
		name string
		eng  *Engine
		want bool
	}{
		{"serial bulk", MustEngine(b, flatEvenSplit{}, x), false},
		{"per-node", MustEngine(b, evenSplit{}, x), true},
		{"width 2", MustEngine(b, flatEvenSplit{}, x, WithWorkers(2)), false},
		{"auditor", MustEngine(b, flatEvenSplit{}, x, WithAuditor(NewMinShareAuditor())), true},
		{"flows", MustEngine(b, flatEvenSplit{}, x, WithFlowTracking()), true},
	} {
		if got := c.eng.sendsFlat != nil; got != c.want {
			t.Errorf("%s: sends allocated = %v, want %v", c.name, got, c.want)
		}
		c.eng.Close()
	}
	eng := MustEngine(b, flatEvenSplit{}, x)
	mustDelta(t, eng, TopologyDelta{})
	if eng.sendsFlat != nil {
		t.Fatal("an empty delta on a pristine engine allocated the sends array")
	}
	mustDelta(t, eng, TopologyDelta{FailLinks: [][2]int{{0, 1}}})
	if eng.sendsFlat == nil {
		t.Fatal("a faulting delta left the sends array unallocated")
	}
}

package spectral

import (
	"testing"

	"detlb/internal/core"
	"detlb/internal/graph"
)

// failArcs builds the per-arc alive mask of g with the given undirected
// links dead, through the engine's own overlay so the test exercises exactly
// the mask FaultedGap receives in production.
func failArcs(t *testing.T, b *graph.Balancing, links [][2]int) []bool {
	t.Helper()
	eng := core.MustEngine(b, spectralKeepAll{}, make([]int64, b.N()))
	if _, err := eng.ApplyTopologyDelta(core.TopologyDelta{FailLinks: links}); err != nil {
		t.Fatal(err)
	}
	return eng.ArcAlive()
}

type spectralKeepAll struct{}

func (spectralKeepAll) Name() string { return "keep-all" }

func (spectralKeepAll) Bind(b *graph.Balancing) []core.NodeBalancer {
	nodes := make([]core.NodeBalancer, b.N())
	for u := range nodes {
		nodes[u] = spectralKeepAllNode{}
	}
	return nodes
}

type spectralKeepAllNode struct{}

func (spectralKeepAllNode) Distribute(load int64, sends, selfLoops []int64) {
	for i := range sends {
		sends[i] = 0
	}
}

func TestFaultedGapDiffersFromBoundTimeGap(t *testing.T) {
	// The regression the memoization satellite pins: after a fault the gap
	// must be re-estimated, not served from the pristine graph's cache entry.
	b := graph.Lazy(graph.CliqueCirculant(24, 4))
	bound := Gap(b)
	alive := failArcs(t, b, [][2]int{{0, 1}, {0, 23}, {5, 6}})
	faulted := FaultedGap(b, alive)
	if faulted >= bound {
		t.Fatalf("faulted gap %v not below bound-time gap %v", faulted, bound)
	}
	if faulted <= 0 {
		t.Fatalf("still-connected faulted graph must keep a positive gap, got %v", faulted)
	}
	// The pristine entry must be untouched by the faulted computation.
	if again := Gap(b); again != bound {
		t.Fatalf("pristine gap changed from %v to %v after faulted query", bound, again)
	}
}

func TestFaultedGapNilMaskIsGap(t *testing.T) {
	b := graph.Lazy(graph.Cycle(12))
	if FaultedGap(b, nil) != Gap(b) {
		t.Fatal("nil mask must take the pristine path")
	}
}

func TestFaultedGapMemoizesPerMask(t *testing.T) {
	// The masks must give non-isomorphic graphs: the circulant's rotation
	// maps one failed link onto any other of the same offset, and the two
	// graphs then share their gap exactly.
	b := graph.Lazy(graph.CliqueCirculant(16, 4))
	aliveA := append([]bool(nil), failArcs(t, b, [][2]int{{0, 1}})...)
	aliveB := failArcs(t, b, [][2]int{{0, 1}, {2, 3}})
	gA1 := FaultedGap(b, aliveA)
	gB := FaultedGap(b, aliveB)
	gA2 := FaultedGap(b, aliveA)
	if gA1 != gA2 {
		t.Fatalf("same mask gave different gaps: %v vs %v (memo miss or instability)", gA1, gA2)
	}
	if gA1 == gB {
		t.Fatalf("distinct masks collided in the memo: both %v", gA1)
	}
}

func TestFaultedGapPartitionedIsNearZero(t *testing.T) {
	// Cutting the cycle in two leaves a second eigenvalue at 1: the global
	// process no longer converges and the gap must collapse.
	b := graph.Lazy(graph.Cycle(16))
	alive := failArcs(t, b, [][2]int{{7, 8}, {15, 0}})
	if gap := FaultedGap(b, alive); gap < 0 || gap > 1e-12 {
		t.Fatalf("partitioned gap %v, want 0 ≤ µ ≤ 1e-12", gap)
	}
}

func TestMaskHashDistinguishesMasks(t *testing.T) {
	a := make([]bool, 130)
	bm := make([]bool, 130)
	for i := range a {
		a[i], bm[i] = true, true
	}
	bm[129] = false
	if maskHash(a) == maskHash(bm) {
		t.Fatal("masks differing in the tail word must hash apart")
	}
	if maskHash(a) == 0 || maskHash(bm) == 0 {
		t.Fatal("mask hash must never be 0 (reserved for pristine)")
	}
	c := append([]bool(nil), a...)
	if maskHash(a) != maskHash(c) {
		t.Fatal("equal masks must hash equal")
	}
}

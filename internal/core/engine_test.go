package core

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"detlb/internal/graph"
)

// evenSplit is a minimal in-package balancer: send ⌊x/d⁺⌋ per original edge
// (the SEND(⌊x/d⁺⌋) rule, reimplemented here to keep core's tests free of an
// import cycle with the balancer package).
type evenSplit struct{}

func (evenSplit) Name() string { return "even-split" }

func (evenSplit) IsStateless() bool { return true }

func (evenSplit) Bind(b *graph.Balancing) []NodeBalancer {
	nodes := make([]NodeBalancer, b.N())
	shared := evenSplitNode{d: b.Degree(), selfLoops: b.SelfLoops(), dplus: b.DegreePlus()}
	for u := range nodes {
		nodes[u] = shared
	}
	return nodes
}

type evenSplitNode struct{ d, selfLoops, dplus int }

func (n evenSplitNode) Distribute(load int64, sends, selfLoops []int64) {
	share := FloorShare(load, n.dplus)
	for i := range sends {
		sends[i] = share
	}
	if selfLoops == nil || n.selfLoops == 0 {
		return
	}
	rest := load - int64(n.d)*share
	base := FloorShare(rest, n.selfLoops)
	extra := rest - base*int64(n.selfLoops)
	for j := range selfLoops {
		selfLoops[j] = base
		if int64(j) < extra {
			selfLoops[j]++
		}
	}
}

// hoarder keeps everything — a degenerate but legal balancer.
type hoarder struct{}

func (hoarder) Name() string { return "hoarder" }

func (hoarder) Bind(b *graph.Balancing) []NodeBalancer {
	nodes := make([]NodeBalancer, b.N())
	for u := range nodes {
		nodes[u] = hoarderNode{}
	}
	return nodes
}

type hoarderNode struct{}

func (hoarderNode) Distribute(load int64, sends, selfLoops []int64) {
	for i := range sends {
		sends[i] = 0
	}
}

func pointMass(n int, total int64) []int64 {
	x := make([]int64, n)
	x[0] = total
	return x
}

func TestEngineRejectsWrongVectorLength(t *testing.T) {
	b := graph.Lazy(graph.Cycle(8))
	if _, err := NewEngine(b, evenSplit{}, make([]int64, 7)); err == nil {
		t.Fatal("expected length-mismatch error")
	}
}

func TestEngineConservesTokens(t *testing.T) {
	b := graph.Lazy(graph.Cycle(16))
	eng := MustEngine(b, evenSplit{}, pointMass(16, 1000),
		WithAuditor(NewConservationAuditor()))
	for i := 0; i < 200; i++ {
		if err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if eng.TotalLoad() != 1000 {
		t.Fatalf("total = %d", eng.TotalLoad())
	}
}

func TestEngineHoarderIsFixedPoint(t *testing.T) {
	b := graph.Lazy(graph.Hypercube(3))
	x1 := []int64{5, 0, 3, 0, 9, 0, 0, 1}
	eng := MustEngine(b, hoarder{}, x1)
	for i := 0; i < 10; i++ {
		if err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for u, v := range eng.Loads() {
		if v != x1[u] {
			t.Fatalf("hoarder moved load at %d: %d != %d", u, v, x1[u])
		}
	}
}

func TestEngineReducesDiscrepancy(t *testing.T) {
	b := graph.Lazy(graph.Hypercube(5))
	eng := MustEngine(b, evenSplit{}, pointMass(32, 3200))
	start := eng.Discrepancy()
	for i := 0; i < 500; i++ {
		if err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if eng.Discrepancy() >= start/10 {
		t.Fatalf("discrepancy barely moved: %d -> %d", start, eng.Discrepancy())
	}
}

func TestEngineParallelMatchesSerial(t *testing.T) {
	g := graph.RandomRegular(96, 6, 5)
	b := graph.Lazy(g)
	x1 := make([]int64, 96)
	for i := range x1 {
		x1[i] = int64((i * 37) % 211)
	}
	serial := MustEngine(b, evenSplit{}, x1)
	par := MustEngine(b, evenSplit{}, x1, WithWorkers(8))
	for i := 0; i < 300; i++ {
		if err := serial.Step(); err != nil {
			t.Fatal(err)
		}
		if err := par.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for u := range x1 {
		if serial.Loads()[u] != par.Loads()[u] {
			t.Fatalf("parallel/serial divergence at node %d: %d vs %d",
				u, par.Loads()[u], serial.Loads()[u])
		}
	}
}

func TestEngineFlowTracking(t *testing.T) {
	b := graph.Lazy(graph.Cycle(6))
	eng := MustEngine(b, evenSplit{}, pointMass(6, 600), WithFlowTracking())
	var wantSent int64
	for i := 0; i < 50; i++ {
		loads := append([]int64(nil), eng.Loads()...)
		if err := eng.Step(); err != nil {
			t.Fatal(err)
		}
		for _, x := range loads {
			wantSent += 2 * FloorShare(x, 4) // d = 2 edges per node
		}
	}
	var got int64
	for _, fu := range eng.Flows() {
		for _, f := range fu {
			got += f
		}
	}
	if got != wantSent {
		t.Fatalf("cumulative flow %d, want %d", got, wantSent)
	}
}

func TestDiscrepancyAndBalancedness(t *testing.T) {
	if Discrepancy(nil) != 0 {
		t.Fatal("empty discrepancy")
	}
	if got := Discrepancy([]int64{3, -2, 7}); got != 9 {
		t.Fatalf("discrepancy = %d", got)
	}
	// avg of {0,0,9} is 3 → ceil 3; max 9 → balancedness 6.
	if got := Balancedness([]int64{0, 0, 9}); got != 6 {
		t.Fatalf("balancedness = %d", got)
	}
	if Balancedness(nil) != 0 {
		t.Fatal("empty balancedness")
	}
}

func TestShareHelpers(t *testing.T) {
	cases := []struct {
		x                 int64
		d                 int
		floor, ceil, near int64
	}{
		{10, 4, 2, 3, 3},  // 2.5 rounds (ties up) to 3
		{9, 4, 2, 3, 2},   // 2.25 -> 2
		{11, 4, 2, 3, 3},  // 2.75 -> 3
		{8, 4, 2, 2, 2},   // exact
		{0, 4, 0, 0, 0},   //
		{-1, 4, -1, 0, 0}, // floor semantics for negatives
		{-5, 4, -2, -1, -1},
	}
	for _, c := range cases {
		if got := FloorShare(c.x, c.d); got != c.floor {
			t.Errorf("FloorShare(%d,%d) = %d, want %d", c.x, c.d, got, c.floor)
		}
		if got := CeilShare(c.x, c.d); got != c.ceil {
			t.Errorf("CeilShare(%d,%d) = %d, want %d", c.x, c.d, got, c.ceil)
		}
		if got := NearestShare(c.x, c.d); got != c.near {
			t.Errorf("NearestShare(%d,%d) = %d, want %d", c.x, c.d, got, c.near)
		}
	}
}

func TestShareHelperProperties(t *testing.T) {
	f := func(xRaw int64, dRaw uint8) bool {
		// Token counts are documented to stay below 2^40; NearestShare
		// doubles its argument internally, so the full int64 range is out of
		// contract.
		x := xRaw % (1 << 40)
		d := int(dRaw%31) + 1
		fl, ce := FloorShare(x, d), CeilShare(x, d)
		if fl > ce || ce-fl > 1 {
			return false
		}
		if fl*int64(d) > x || ce*int64(d) < x {
			return false
		}
		near := NearestShare(x, d)
		return near == fl || near == ce
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIsStateless(t *testing.T) {
	if !IsStateless(evenSplit{}) {
		t.Fatal("evenSplit declares statelessness")
	}
	if IsStateless(hoarder{}) {
		t.Fatal("hoarder does not declare statelessness")
	}
}

// TestEngineConservationProperty: any balancer built from non-negative sends
// bounded by the load conserves total tokens on any graph (property test
// across random graphs and workloads).
func TestEngineConservationProperty(t *testing.T) {
	f := func(seed int64, totalRaw uint16) bool {
		n := 24
		g := graph.RandomRegular(n, 4, seed)
		b := graph.Lazy(g)
		x1 := make([]int64, n)
		x1[int(uint64(seed)%uint64(n))] = int64(totalRaw)
		eng := MustEngine(b, evenSplit{}, x1)
		for i := 0; i < 50; i++ {
			if err := eng.Step(); err != nil {
				return false
			}
		}
		return eng.TotalLoad() == int64(totalRaw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestExtraBitsRows pins every row of the mask decoder's table to the bits of
// its byte: extraBits[b][i] is 1 exactly when bit i of b is set.
func TestExtraBitsRows(t *testing.T) {
	for b := range extraBits {
		for i, v := range extraBits[b] {
			if want := int8(b>>i) & 1; v != want {
				t.Fatalf("extraBits[%#02x][%d] = %d, want %d", b, i, v, want)
			}
		}
	}
}

// TestPushExtraMatchesBits holds pushExtra to a per-bit reference at every
// degree the mask covers, including the full-row (d = 8, 16, …, 64),
// row-and-tail (d = 12) and tail-only (d < 8) shapes, on random masks of d
// bits, random bases, zero masks and a full mask. Every node heads exactly d
// arcs, as on every graph, so for each shift B — zero, the modal base, a
// base no node has, a negative one and one that wraps every offset —
// pushExtra(B) plus d·B per node must equal the reference. The distribute
// phase's per-arc expansion is held to the per-node path by the determinism
// tests at widths 2 and 8 and with auditors.
func TestPushExtraMatchesBits(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	const n, modal = 7, 37
	for d := 1; d <= 64; d++ {
		full := ^uint64(0) >> uint(64-d)
		bp := make([]int64, 2*n)
		for u := 0; u < n; u++ {
			bp[2*u] = rng.Int64N(2001) - 1000
			if u%2 == 0 { // nodes 0, 2, 4 and 6 share the modal base
				bp[2*u] = modal
			}
			switch u {
			case 3, 4: // zero masks: the base-only loop, and on the shift no push
			case 6:
				bp[2*u+1] = int64(full)
			default:
				bp[2*u+1] = int64(rng.Uint64() & full)
			}
		}
		heads := make([]int32, n*d)
		for p := range heads {
			heads[p] = int32(p % n)
		}
		rng.Shuffle(len(heads), func(i, j int) { heads[i], heads[j] = heads[j], heads[i] })
		want := make([]int64, n)
		for u := 0; u < n; u++ {
			for i := 0; i < d; i++ {
				want[heads[u*d+i]] += bp[2*u] + int64(uint64(bp[2*u+1])>>uint(i)&1)
			}
		}
		for _, shift := range []int64{0, modal, 5000, -977, math.MinInt64} {
			got := make([]int64, n)
			pushExtra(got, heads, bp, d, shift)
			for v := range got {
				got[v] += int64(d) * shift
			}
			if !slices.Equal(got, want) {
				t.Fatalf("d=%d shift=%d: pushExtra + d·shift = %v, want %v", d, shift, got, want)
			}
		}
	}
}

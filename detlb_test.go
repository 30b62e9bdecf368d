package detlb_test

import (
	"testing"

	"detlb"
)

// TestFacadeEndToEnd exercises the public API exactly the way README's
// quickstart does.
func TestFacadeEndToEnd(t *testing.T) {
	g := detlb.Cycle(16)
	b := detlb.Lazy(g)
	x1 := detlb.PointMass(g.N(), 0, 1003)
	eng := detlb.MustEngine(b, detlb.NewRotorRouter(), x1,
		detlb.WithAuditor(detlb.NewConservationAuditor()),
		detlb.WithAuditor(detlb.NewCumulativeFairnessAuditor(1)),
	)
	for i := 0; i < 4000 && eng.Discrepancy() > 4; i++ {
		if err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if eng.Discrepancy() > 4 {
		t.Fatalf("discrepancy %d", eng.Discrepancy())
	}
	if eng.TotalLoad() != 1003 {
		t.Fatalf("total %d", eng.TotalLoad())
	}
}

func TestFacadeSpectral(t *testing.T) {
	b := detlb.Lazy(detlb.Hypercube(6))
	mu := detlb.SpectralGap(b)
	if mu <= 0 || mu >= 1 {
		t.Fatalf("µ = %v", mu)
	}
	if detlb.BalancingTime(b.N(), 100, mu) <= 0 {
		t.Fatal("T must be positive")
	}
}

func TestFacadeHarness(t *testing.T) {
	b := detlb.Lazy(detlb.Hypercube(5))
	res := detlb.Run(detlb.RunSpec{
		Balancing: b,
		Algorithm: detlb.NewSendRound(),
		Initial:   detlb.PointMass(b.N(), 0, 507),
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.FinalDiscrepancy > 4*int64(b.Degree()) {
		t.Fatalf("discrepancy %d", res.FinalDiscrepancy)
	}
}

func TestFacadeLowerBounds(t *testing.T) {
	if _, err := detlb.StatelessTrap(detlb.NewSendFloor(), 32, 8, 50); err != nil {
		t.Fatal(err)
	}
	g := detlb.Cycle(9)
	if _, _, err := detlb.RotorAlternatingInstance(g, 10); err != nil {
		t.Fatal(err)
	}
	fixedB := detlb.Lazy(detlb.Cycle(11))
	flow, x1 := detlb.SteadyFlowInstance(fixedB)
	if flow == nil || len(x1) != 11 {
		t.Fatal("steady flow construction broken")
	}
}

func TestFacadeActor(t *testing.T) {
	b := detlb.Lazy(detlb.Hypercube(4))
	nw, err := detlb.NewActorNetwork(b, detlb.NewGoodS(2), detlb.PointMass(16, 0, 643))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	nw.Run(300)
	if nw.Discrepancy() > 8 {
		t.Fatalf("actor discrepancy %d", nw.Discrepancy())
	}
}

func TestFacadePotentials(t *testing.T) {
	x := []int64{0, 10, 20}
	if detlb.Phi(x, 1, 4) != 6+16 {
		t.Fatalf("φ = %d", detlb.Phi(x, 1, 4))
	}
	if detlb.Discrepancy(x) != 20 {
		t.Fatal("discrepancy")
	}
	if detlb.Balancedness(x) != 10 {
		t.Fatalf("balancedness = %d", detlb.Balancedness(x))
	}
}

func TestFacadeIrregular(t *testing.T) {
	adj := [][]int{{1, 2, 3}, {0}, {0}, {0}}
	g, err := detlb.NewIrregularGraph("claw", adj)
	if err != nil {
		t.Fatal(err)
	}
	b := detlb.IrregularLazy(g)
	x1 := []int64{0, 0, 0, 120}
	eng, err := detlb.NewIrregularEngine(b, detlb.IrregularRotorRouter{}, x1)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(2000)
	if eng.TotalLoad() != 120 {
		t.Fatalf("total %d", eng.TotalLoad())
	}
	if rd := b.RelativeDiscrepancy(eng.Loads()); rd > 4 {
		t.Fatalf("relative discrepancy %v", rd)
	}
}

func TestFacadeWeighted(t *testing.T) {
	b := detlb.Lazy(detlb.Hypercube(4))
	mb, err := detlb.NewWeightedBuilder(b, detlb.WeightedRotorDealer{},
		detlb.UniformTokens(16, 0, 500, 2))
	if err != nil {
		t.Fatal(err)
	}
	res := detlb.Run(detlb.RunSpec{Balancing: b, Model: mb, Initial: mb.Initial(), MaxRounds: 800})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.InitialDiscrepancy != 1000 || res.Rounds != 800 {
		t.Fatalf("initial weight discrepancy %d after %d rounds", res.InitialDiscrepancy, res.Rounds)
	}
	if res.FinalDiscrepancy > 16 {
		t.Fatalf("weight discrepancy %d", res.FinalDiscrepancy)
	}
	m, err := mb.New(mb.Initial(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for range 800 {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	var total int64
	for _, w := range m.State() {
		total += w
	}
	if total != 1000 {
		t.Fatalf("weight %d", total)
	}
}

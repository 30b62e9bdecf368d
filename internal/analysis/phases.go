package analysis

import (
	"context"
	"fmt"

	"detlb/internal/balancer"
	"detlb/internal/core"
	"detlb/internal/graph"
	"detlb/internal/spectral"
)

// PhaseProfile traces the threshold-crossing structure from the proof of
// Theorem 3.3 (Appendix B.4). The proof partitions the run into phases that
// drive the potentials φ(c) to zero for decreasing thresholds
// c = c₁, c₁−1, …, c₀, where
//
//	c₀ = ⌈(x̄ + δ·d⁺ + 2d° + d⁺/2) / d⁺⌉   (the final balancedness level)
//	c₁ = smallest c with all initial loads ≤ c·d⁺ after the warm-up
//
// PhaseProfile records, for every threshold in [c₀, c₁], the first round at
// which φ(c) reaches zero (equivalently: the maximum load falls below c·d⁺
// forever — Lemma 3.5's monotonicity makes the crossing permanent).
type PhaseProfile struct {
	// C0 and C1 bracket the tracked thresholds.
	C0, C1 int64
	// ZeroRound[i] is the first round with φ(C1−i) = 0 (index 0 ↔ c = C1),
	// or -1 if not reached within the cap.
	ZeroRound []int
	// FinalBalancedness is max load − ⌈x̄⌉ at the end.
	FinalBalancedness int64
	// Bound33 is the Theorem 3.3 discrepancy bound (2δ+1)d⁺ + 4d° with δ=1.
	Bound33 int64
	// Rounds is the number of rounds executed.
	Rounds int
}

// TracePhases runs a good s-balancer and records when each potential level
// empties. delta is the algorithm's cumulative fairness constant (1 for
// every good s-balancer). It reads the load maximum the round loop streams:
// φ(c) = 0 exactly when no load exceeds c·d⁺, and the total is conserved,
// so the final maximum also gives the final balancedness.
func TracePhases(b *graph.Balancing, algo core.Balancer, x1 []int64, maxRounds int) (*PhaseProfile, error) {
	if maxRounds <= 0 {
		return nil, fmt.Errorf("analysis: maxRounds must be positive, got %d", maxRounds)
	}
	n := int64(b.N())
	dplus := int64(b.DegreePlus())
	dLoops := int64(b.SelfLoops())
	var total int64
	var maxLoad int64
	for _, v := range x1 {
		total += v
		if v > maxLoad {
			maxLoad = v
		}
	}
	xbarCeil := core.CeilShare(total, int(n))
	const delta = 1
	c0 := core.CeilShare(xbarCeil+delta*dplus+2*dLoops+dplus/2, int(dplus))
	c1 := core.CeilShare(maxLoad, int(dplus))
	if c1 < c0 {
		c1 = c0
	}
	p := &PhaseProfile{
		C0:        c0,
		C1:        c1,
		ZeroRound: make([]int, c1-c0+1),
		Bound33:   (2*delta+1)*dplus + 4*dLoops,
	}
	for i := range p.ZeroRound {
		p.ZeroRound[i] = -1
	}
	pending := len(p.ZeroRound)
	var res RunResult
	spec := RunSpec{Balancing: b, Algorithm: algo, Initial: x1, MaxRounds: maxRounds}
	for round, s := range StreamInto(context.Background(), spec, &res) {
		if round == 0 {
			continue
		}
		p.Rounds = round
		p.FinalBalancedness = s.Max - xbarCeil
		for i, r := range p.ZeroRound {
			if r < 0 && s.Max <= (c1-int64(i))*dplus {
				p.ZeroRound[i] = round
				pending--
			}
		}
		if pending == 0 {
			break
		}
	}
	if res.Err != nil {
		return nil, res.Err
	}
	return p, nil
}

// Completed reports whether every tracked potential reached zero.
func (p *PhaseProfile) Completed() bool {
	for _, r := range p.ZeroRound {
		if r < 0 {
			return false
		}
	}
	return true
}

// PhaseExperiment renders the phase structure for good s-balancers on a
// hypercube — the worked version of Theorem 3.3's proof bookkeeping.
func PhaseExperiment(cfg Config) *Table {
	var b *graph.Balancing
	if cfg.Quick {
		b = graph.Lazy(graph.Hypercube(5))
	} else {
		b = graph.Lazy(graph.Hypercube(7))
	}
	n := b.N()
	x1 := make([]int64, n)
	x1[0] = int64(48*n) + 5
	cap := 64 * spectral.BalancingTime(n, int(core.Discrepancy(x1)), spectral.Gap(b))
	t := &Table{
		Title: "E11: Theorem 3.3 proof phases — rounds until φ(c) = 0, c = c1..c0",
		Header: []string{"algorithm", "s", "c0", "c1", "phases done", "last zero round",
			"final balancedness", "bound33"},
		Note: "φ(c)=0 means no node ever exceeds c·d⁺ again (Lemma 3.5 monotonicity)",
	}
	d := b.Degree()
	for _, s := range []int{1, d / 2, d} {
		if s < 1 {
			continue
		}
		algo := balancer.NewGoodS(s)
		p, err := TracePhases(b, algo, x1, cap)
		if err != nil {
			t.AddRow(algo.Name(), itoa(s), "-", "-", "ERR: "+err.Error(), "-", "-", "-")
			continue
		}
		last := -1
		for _, r := range p.ZeroRound {
			if r > last {
				last = r
			}
		}
		t.AddRow(algo.Name(), itoa(s), i64toa(p.C0), i64toa(p.C1),
			fmt.Sprintf("%v", p.Completed()), itoa(last),
			i64toa(p.FinalBalancedness), i64toa(p.Bound33))
	}
	return t
}

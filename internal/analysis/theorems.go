package analysis

import (
	"fmt"
	"math"
	"slices"

	"detlb/internal/balancer"
	"detlb/internal/core"
	"detlb/internal/graph"
	"detlb/internal/lowerbound"
	"detlb/internal/spectral"
	"detlb/internal/stats"
	"detlb/internal/workload"
)

// Bound23i is Theorem 2.3(i)'s discrepancy bound (δ+1)·d·√(ln n / µ).
func Bound23i(delta float64, d, n int, mu float64) float64 {
	return (delta + 1) * float64(d) * math.Sqrt(math.Log(float64(n))/mu)
}

// Bound23ii is Theorem 2.3(ii)'s discrepancy bound (δ+1)·d·√n.
func Bound23ii(delta float64, d, n int) float64 {
	return (delta + 1) * float64(d) * math.Sqrt(float64(n))
}

// Bound23iii is Theorem 2.3(iii)'s bound (δ+1)·d·ln n / µ — also the
// Rabani et al. [17] discrepancy scale the paper improves upon.
func Bound23iii(delta float64, d, n int, mu float64) float64 {
	return (delta + 1) * float64(d) * math.Log(float64(n)) / mu
}

// Bound33 is Theorem 3.3's eventual discrepancy (2δ+1)·d⁺ + 4d°.
func Bound33(delta int64, dplus, selfLoops int) int64 {
	return (2*delta+1)*int64(dplus) + 4*int64(selfLoops)
}

// Thm23Expander is experiment E2: on random d-regular expanders, the
// discrepancy of cumulatively fair balancers after O(T) stays within the
// Theorem 2.3(i) bound d·√(log n/µ), and its growth exponent in n is far
// below the [17] bound's.
func Thm23Expander(cfg Config) *Table {
	ns := []int{256, 512, 1024, 2048}
	if cfg.Quick {
		ns = []int{128, 256}
	}
	const d = 8
	t := &Table{
		Title: "E2: Theorem 2.3(i) — expanders, discrepancy after O(T) vs d·sqrt(log n/µ)",
		Header: []string{"algorithm", "n", "µ", "T", "rounds", "disc",
			"bound(i)", "disc/bound", "[17] scale"},
		Note: "bound(i) = (δ+1)·d·sqrt(ln n/µ); [17] scale = d·ln n/µ (the bound the paper improves)",
	}
	for _, algo := range []core.Balancer{balancer.NewSendFloor(), balancer.NewRotorRouter()} {
		delta := 0.0
		if algo.Name() == "rotor-router" {
			delta = 1
		}
		for _, n := range ns {
			b := graph.Lazy(graph.RandomRegular(n, d, cfg.Seed))
			x1 := workload.PointMass(n, 0, int64(4*n)+7)
			res := Run(RunSpec{
				Balancing: b, Algorithm: algo, Initial: x1,
				Patience: patienceFor(n), Workers: cfg.Workers,
			})
			bound := Bound23i(delta, d, n, res.Gap)
			t.AddRow(algo.Name(), itoa(n), fmt.Sprintf("%.3g", res.Gap),
				itoa(res.BalancingTime), itoa(res.Rounds), i64toa(res.MinDiscrepancy),
				fmt.Sprintf("%.1f", bound),
				fmt.Sprintf("%.3f", float64(res.MinDiscrepancy)/bound),
				fmt.Sprintf("%.0f", Bound23iii(delta, d, n, res.Gap)))
		}
	}
	return t
}

// Thm23Cycle is experiment E3: on cycles (poor expansion), the discrepancy
// after O(T) stays within Theorem 2.3(ii)'s d·√n, far below the d·log n/µ
// scale of both claim (iii) and [17] (which is Θ(d·n² log n) on a cycle).
func Thm23Cycle(cfg Config) *Table {
	ns := []int{32, 64, 128, 256}
	if cfg.Quick {
		ns = []int{32, 64}
	}
	t := &Table{
		Title: "E3: Theorem 2.3(ii) — cycles, discrepancy after O(T) vs d·sqrt(n)",
		Header: []string{"algorithm", "n", "µ", "T", "rounds", "disc",
			"bound(ii)", "disc/bound", "bound(iii)"},
	}
	for _, algo := range []core.Balancer{balancer.NewSendFloor(), balancer.NewRotorRouter()} {
		delta := 0.0
		if algo.Name() == "rotor-router" {
			delta = 1
		}
		for _, n := range ns {
			b := graph.Lazy(graph.Cycle(n))
			x1 := workload.PointMass(n, 0, int64(4*n)+7)
			res := Run(RunSpec{
				Balancing: b, Algorithm: algo, Initial: x1,
				Patience: patienceFor(n), Workers: cfg.Workers,
			})
			bound := Bound23ii(delta, b.Degree(), n)
			t.AddRow(algo.Name(), itoa(n), fmt.Sprintf("%.3g", res.Gap),
				itoa(res.BalancingTime), itoa(res.Rounds), i64toa(res.MinDiscrepancy),
				fmt.Sprintf("%.1f", bound),
				fmt.Sprintf("%.3f", float64(res.MinDiscrepancy)/bound),
				fmt.Sprintf("%.0f", Bound23iii(delta, b.Degree(), n, res.Gap)))
		}
	}
	return t
}

// Thm33GoodS is experiment E4: good s-balancers reach the O(d) discrepancy
// of Theorem 3.3, and larger s reaches a fixed O(d) target faster.
func Thm33GoodS(cfg Config) *Table {
	var b *graph.Balancing
	if cfg.Quick {
		b = graph.Lazy(graph.Hypercube(6))
	} else {
		b = graph.Lazy(graph.Hypercube(8))
	}
	d := b.Degree()
	n := b.N()
	x1 := workload.PointMass(n, 0, int64(32*n)+7)
	target := int64(2 * d)
	capRounds := 64 * spectralT(b, x1)
	t := &Table{
		Title: "E4: Theorem 3.3 — good s-balancers reach O(d) discrepancy; larger s is faster",
		Header: []string{"algorithm", "s", "graph", "disc@stop", "bound33",
			"target", "rounds-to-target", "T"},
		Note: "bound33 = (2δ+1)d⁺+4d° with δ=1; target = 2d; cap = 64·T",
	}
	algos := []struct {
		algo core.Balancer
		s    int
	}{
		{balancer.NewGoodS(1), 1},
		{balancer.NewGoodS(d / 2), d / 2},
		{balancer.NewGoodS(d), d},
		{balancer.NewRotorRouterStar(), 1},
		{balancer.NewSendRound(), balancer.NewSendRound().GuaranteedS(b)},
	}
	for _, a := range algos {
		res := RunToTarget(b, a.algo, x1, target, capRounds)
		rounds := "not reached"
		if res.ReachedTarget {
			rounds = itoa(res.TargetRound)
		}
		t.AddRow(a.algo.Name(), itoa(a.s), b.Graph().Name(),
			i64toa(res.FinalDiscrepancy),
			i64toa(Bound33(1, b.DegreePlus(), b.SelfLoops())),
			i64toa(target), rounds, itoa(res.BalancingTime))
	}
	return t
}

func spectralT(b *graph.Balancing, x1 []int64) int {
	return spectral.BalancingTime(b.N(), int(core.Discrepancy(x1)), spectral.Gap(b))
}

// Thm41 is experiment E5: the steady-flow construction shows a round-fair
// but cumulatively unfair balancer frozen at discrepancy Θ(d⁺·diam).
func Thm41(cfg Config) *Table {
	graphs := []*graph.Balancing{
		graph.Lazy(graph.Cycle(33)),
		graph.Lazy(graph.Torus(2, 9)),
		graph.Lazy(graph.Hypercube(6)),
	}
	if cfg.Quick {
		graphs = graphs[:2]
	}
	t := &Table{
		Title: "E5: Theorem 4.1 — round-fair without cumulative fairness stuck at Ω(d·diam)",
		Header: []string{"graph", "n", "d", "diam", "disc(t=0)", "disc(t=end)",
			"steady", "round-fair", "disc/(d·diam)"},
	}
	for _, b := range graphs {
		fixed, x1 := lowerbound.SteadyFlowInstance(b)
		rf := core.NewRoundFairAuditor()
		eng := core.MustEngine(b, fixed, x1,
			core.WithAuditor(core.NewConservationAuditor()),
			core.WithAuditor(rf),
		)
		rounds := 500
		steady := true
		roundFair := "yes"
		for i := 0; i < rounds; i++ {
			if err := eng.Step(); err != nil {
				roundFair = err.Error()
				break
			}
			if core.Discrepancy(eng.Loads()) != core.Discrepancy(x1) {
				steady = false
				break
			}
			for v, x := range eng.Loads() {
				if x != x1[v] {
					steady = false
				}
			}
			if !steady {
				break
			}
		}
		d0 := core.Discrepancy(x1)
		diam := b.Graph().Diameter()
		t.AddRow(b.Graph().Name(), itoa(b.N()), itoa(b.Degree()), itoa(diam),
			i64toa(d0), i64toa(core.Discrepancy(eng.Loads())),
			fmt.Sprintf("%v", steady), roundFair,
			fmt.Sprintf("%.2f", float64(d0)/float64(b.Degree()*diam)))
	}
	return t
}

// Thm42 is experiment E6: the stateless trap pins any deterministic
// stateless algorithm at discrepancy Ω(d).
func Thm42(cfg Config) *Table {
	t := &Table{
		Title:  "E6: Theorem 4.2 — stateless algorithms stuck at Ω(d)",
		Header: []string{"algorithm", "n", "d", "clique", "pinned load", "disc", "disc/d", "rounds"},
	}
	ds := []int{8, 16, 32}
	if cfg.Quick {
		ds = []int{8, 16}
	}
	for _, d := range ds {
		n := 4 * d
		for _, algo := range []core.Balancer{balancer.NewSendFloor(), balancer.NewSendRound(), balancer.NewBiasedRounding()} {
			res, err := lowerbound.StatelessTrap(algo, n, d, 1000)
			if err != nil {
				t.AddRow(algo.Name(), itoa(n), itoa(d), "-", "-", "ERR: "+err.Error(), "-", "-")
				continue
			}
			t.AddRow(algo.Name(), itoa(n), itoa(d), itoa(res.CliqueSize),
				i64toa(res.Load), i64toa(res.Discrepancy),
				fmt.Sprintf("%.2f", float64(res.Discrepancy)/float64(d)),
				itoa(res.Rounds))
		}
	}
	return t
}

// Thm43 is experiment E7: ROTOR-ROUTER without self-loops locked in a
// period-2 orbit at discrepancy Ω(d·φ(G)) on non-bipartite graphs.
func Thm43(cfg Config) *Table {
	gs := []*graph.Graph{graph.Cycle(33), graph.Cycle(65), graph.Petersen()}
	if !cfg.Quick {
		gs = append(gs, graph.Cycle(129), graph.CliqueCirculant(31, 4),
			graph.GeneralizedPetersen(7, 2), graph.GeneralizedPetersen(13, 5))
	}
	t := &Table{
		Title: "E7: Theorem 4.3 — self-loop-free rotor-router, period-2 orbit at Ω(d·φ(G))",
		Header: []string{"graph", "n", "d", "φ(G)", "period2", "min disc",
			"d·φ", "disc/(d·φ)"},
	}
	for _, g := range gs {
		rr, x1, err := lowerbound.RotorAlternatingInstance(g, int64(g.Phi()+4))
		if err != nil {
			t.AddRow(g.Name(), itoa(g.N()), itoa(g.Degree()), itoa(g.Phi()),
				"ERR: "+err.Error(), "-", "-", "-")
			continue
		}
		b := graph.WithLoops(g, 0)
		eng := core.MustEngine(b, rr, x1, core.WithAuditor(core.NewConservationAuditor()))
		var prev, prev2 []int64
		period2 := true
		minDisc := core.Discrepancy(x1)
		rounds := 64
		for i := 0; i < rounds; i++ {
			prev2 = prev
			prev = append([]int64(nil), eng.Loads()...)
			if err := eng.Step(); err != nil {
				period2 = false
				break
			}
			if d := core.Discrepancy(eng.Loads()); d < minDisc {
				minDisc = d
			}
			if prev2 != nil && !slices.Equal(prev2, eng.Loads()) {
				period2 = false
			}
		}
		dphi := g.Degree() * g.Phi()
		t.AddRow(g.Name(), itoa(g.N()), itoa(g.Degree()), itoa(g.Phi()),
			fmt.Sprintf("%v", period2), i64toa(minDisc), itoa(dphi),
			fmt.Sprintf("%.2f", float64(minDisc)/float64(dphi)))
	}
	return t
}

// FairnessAudit is experiment E8: the empirical cumulative-fairness constants
// of Observation 2.2 — δ = 0 for the SEND algorithms, δ ≤ 1 for the
// rotor-routers — and the unboundedness of δ for biased rounding.
func FairnessAudit(cfg Config) *Table {
	n := 128
	rounds := 4000
	if cfg.Quick {
		n, rounds = 64, 1000
	}
	b := graph.Lazy(graph.RandomRegular(n, 6, cfg.Seed))
	x1 := workload.Random(n, 200, cfg.Seed)
	t := &Table{
		Title:  "E8: Observation 2.2 — measured cumulative fairness constant δ",
		Header: []string{"algorithm", "rounds", "measured δ", "paper δ", "round-fair", "self-pref s"},
		Note:   "paper δ: 0 for SEND(⌊x/d⁺⌋)/SEND([x/d⁺]), 1 for rotor-router; biased rounding has no constant δ",
	}
	type entry struct {
		algo    core.Balancer
		paper   string
		sParam  int
		checkRF bool
	}
	entries := []entry{
		{balancer.NewSendFloor(), "0", 0, false},
		{balancer.NewSendRound(), "0", balancer.NewSendRound().GuaranteedS(b), true},
		{balancer.NewRotorRouter(), "1", 0, true},
		{balancer.NewRotorRouterStar(), "1", 1, true},
		{balancer.NewGoodS(3), "1", 3, true},
		{balancer.NewBiasedRounding(), "unbounded", 0, true},
	}
	for _, e := range entries {
		fair := core.NewCumulativeFairnessAuditor(-1)
		auditors := []core.Auditor{fair, core.NewConservationAuditor(), core.NewMinShareAuditor()}
		rfState := "-"
		if e.checkRF {
			auditors = append(auditors, core.NewRoundFairAuditor())
			rfState = "yes"
		}
		if e.sParam > 0 {
			auditors = append(auditors, core.NewSelfPreferenceAuditor(e.sParam))
		}
		res := Run(RunSpec{
			Balancing: b, Algorithm: e.algo, Initial: x1,
			MaxRounds: rounds, Workers: cfg.Workers, Auditors: auditors,
		})
		if res.Err != nil {
			t.AddRow(e.algo.Name(), itoa(res.Rounds), "AUDIT FAIL: "+res.Err.Error(), e.paper, rfState, itoa(e.sParam))
			continue
		}
		t.AddRow(e.algo.Name(), itoa(res.Rounds), i64toa(fair.MaxDelta), e.paper, rfState, itoa(e.sParam))
	}
	return t
}

// PotentialDrop is experiment E9: Lemma 3.5/3.7 monotonicity of φ and φ′
// under a good s-balancer, with the measured total potential drained.
func PotentialDrop(cfg Config) *Table {
	n := 256
	rounds := 3000
	if cfg.Quick {
		n, rounds = 64, 800
	}
	b := graph.Lazy(graph.RandomRegular(n, 6, cfg.Seed))
	x1 := workload.PointMass(n, 0, int64(64*n))
	avg := int64(64)
	dplus := int64(b.DegreePlus())
	c0 := avg/dplus + 1
	t := &Table{
		Title:  "E9: Lemmas 3.5/3.7 — potential monotonicity under good s-balancers",
		Header: []string{"algorithm", "s", "rounds", "violations", "φ(c0) start", "φ(c0) end", "drained"},
		Note:   fmt.Sprintf("thresholds c ∈ {c0, c0+1, c0+2} with c0 = %d (above the average load %d)", c0, avg),
	}
	for _, s := range []int{1, 3, 6} {
		algo := balancer.NewGoodS(s)
		tracker := core.NewPotentialTracker(s, c0, c0+1, c0+2)
		phiStart := core.Phi(x1, c0, b.DegreePlus())
		res := Run(RunSpec{
			Balancing: b, Algorithm: algo, Initial: x1,
			MaxRounds: rounds, Workers: cfg.Workers,
			Auditors: []core.Auditor{tracker},
		})
		_ = res
		t.AddRow(algo.Name(), itoa(s), itoa(rounds), itoa(tracker.Violations),
			i64toa(phiStart), i64toa(phiStart-tracker.TotalPhiDrop), i64toa(tracker.TotalPhiDrop))
	}
	return t
}

// ExpanderHeadline is experiment E10: the Section 1.1 headline — on
// expanders, cumulatively fair balancers achieve O(√log n) discrepancy after
// O(T) while the [17]-style biased rounding scheme does not; the gap widens
// with n.
func ExpanderHeadline(cfg Config) *Table {
	ns := []int{128, 256, 512, 1024}
	if cfg.Quick {
		ns = []int{128, 256}
	}
	const d = 8
	t := &Table{
		Title: "E10: expander headline — O(sqrt(log n)) (cumulatively fair) vs Θ(log n)-scale ([17] class)",
		Header: []string{"n", "µ", "fair disc (send-floor)", "rotor disc",
			"biased disc", "sqrt(ln n)", "ln n", "biased/fair"},
	}
	var fairs, biases []float64
	for _, n := range ns {
		b := graph.Lazy(graph.RandomRegular(n, d, cfg.Seed))
		x1 := workload.PointMass(n, 0, int64(4*n)+7)
		run := func(a core.Balancer) RunResult {
			return Run(RunSpec{Balancing: b, Algorithm: a, Initial: x1,
				Patience: patienceFor(n), Workers: cfg.Workers})
		}
		fair := run(balancer.NewSendFloor())
		rotor := run(balancer.NewRotorRouter())
		biased := run(balancer.NewBiasedRounding())
		fairs = append(fairs, float64(fair.MinDiscrepancy))
		biases = append(biases, float64(biased.MinDiscrepancy))
		ratio := float64(biased.MinDiscrepancy) / float64(fair.MinDiscrepancy)
		t.AddRow(itoa(n), fmt.Sprintf("%.3g", fair.Gap),
			i64toa(fair.MinDiscrepancy), i64toa(rotor.MinDiscrepancy),
			i64toa(biased.MinDiscrepancy),
			fmt.Sprintf("%.2f", math.Sqrt(math.Log(float64(n)))),
			fmt.Sprintf("%.2f", math.Log(float64(n))),
			fmt.Sprintf("%.2f", ratio))
	}
	if len(ns) >= 3 {
		xs := make([]float64, len(ns))
		for i, n := range ns {
			xs[i] = float64(n)
		}
		t.Note = fmt.Sprintf("log-log growth exponents in n: fair %.3f, biased %.3f",
			safeSlope(xs, fairs), safeSlope(xs, biases))
	}
	return t
}

func safeSlope(xs, ys []float64) float64 {
	for _, y := range ys {
		if y <= 0 {
			return math.NaN()
		}
	}
	return stats.LogLogSlope(xs, ys)
}

// MatchingModel contrasts the diffusive model with the dimension-exchange
// extension (Section 1.2's related work): matching-based balancers reach
// O(1) discrepancy, below the Ω(d) floor of diffusive stateless schemes.
func MatchingModel(cfg Config) *Table {
	var b *graph.Balancing
	if cfg.Quick {
		b = graph.Lazy(graph.Hypercube(6))
	} else {
		b = graph.Lazy(graph.Hypercube(8))
	}
	g := b.Graph()
	n := g.N()
	x1 := workload.PointMass(n, 0, int64(16*n)+7)
	t := &Table{
		Title:  "EXT: dimension exchange (matching model) vs diffusive schemes",
		Header: []string{"algorithm", "model", "graph", "rounds", "disc"},
		Note:   "matching models balance with one neighbor per round and can beat the Θ(d) diffusive floor",
	}
	cap := 40 * spectralT(b, x1)
	runs := []struct {
		algo  core.Balancer
		model string
	}{
		{balancer.NewMatchingBalancer(balancer.EdgeColoringScheduler(g), false, cfg.Seed), "balancing circuit"},
		{balancer.NewMatchingBalancer(balancer.NewRandomMatchingScheduler(g, cfg.Seed), true, cfg.Seed), "random matching"},
		{balancer.NewSendFloor(), "diffusive"},
		{balancer.NewRotorRouter(), "diffusive"},
	}
	for _, r := range runs {
		res := Run(RunSpec{
			Balancing: b, Algorithm: r.algo, Initial: x1,
			MaxRounds: cap, Patience: patienceFor(n), Workers: cfg.Workers,
		})
		t.AddRow(r.algo.Name(), r.model, g.Name(), itoa(res.Rounds), i64toa(res.MinDiscrepancy))
	}
	return t
}

// Experiment is one entry of the suite: the ID its table title starts
// with, and the function regenerating that table.
type Experiment struct {
	ID  string
	Run func(Config) *Table
}

// experiments is the suite, in report order: Table 1, the per-theorem
// experiments E2–E11, the extensions, and the ablations. It is the only
// list of them.
var experiments = []Experiment{
	{"E1", Table1},
	{"E2", Thm23Expander},
	{"E3", Thm23Cycle},
	{"E4", Thm33GoodS},
	{"E5", Thm41},
	{"E6", Thm42},
	{"E7", Thm43},
	{"E8", FairnessAudit},
	{"E9", PotentialDrop},
	{"E10", ExpanderHeadline},
	{"E11", PhaseExperiment},
	{"EXT", MatchingModel},
	{"EXT2", IrregularExperiment},
	{"EXT3", WeightedExperiment},
	{"ABL1", AblationSelfLoops},
	{"ABL2", AblationRotorOrder},
}

// Experiments returns the suite in report order. The slice is a copy;
// callers may reorder or filter it freely.
func Experiments() []Experiment {
	out := make([]Experiment, len(experiments))
	copy(out, experiments)
	return out
}

// AllExperiments runs every entry of Experiments, in order.
func AllExperiments(cfg Config) []*Table {
	tabs := make([]*Table, len(experiments))
	for i, e := range experiments {
		tabs[i] = e.Run(cfg)
	}
	return tabs
}

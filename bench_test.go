package detlb_test

// Benchmark harness: one benchmark per experiment of analysis.AllExperiments
// (E1–E10 plus the matching-model extension), each
// regenerating the corresponding table at full size, plus micro-benchmarks
// for the hot paths (engine step, serial vs parallel, actor round, spectral
// gap, graph sampling). Run:
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks exist to time the reproduction pipeline and to
// make every table reproducible from a single command; their tables are what
// cmd/lbbench prints.

import (
	"testing"

	"detlb"
	"detlb/internal/analysis"
	"detlb/internal/core"
)

func fullCfg() analysis.Config { return analysis.Config{Seed: 1} }

func benchExperiment(b *testing.B, run func(analysis.Config) *analysis.Table) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab := run(fullCfg())
		if len(tab.Rows) == 0 {
			b.Fatal("empty experiment table")
		}
	}
}

// BenchmarkTable1 regenerates E1, the empirical Table 1.
func BenchmarkTable1(b *testing.B) { benchExperiment(b, analysis.Table1) }

// BenchmarkThm23Expander regenerates E2 (Theorem 2.3(i) on expanders).
func BenchmarkThm23Expander(b *testing.B) { benchExperiment(b, analysis.Thm23Expander) }

// BenchmarkThm23Cycle regenerates E3 (Theorem 2.3(ii) on cycles).
func BenchmarkThm23Cycle(b *testing.B) { benchExperiment(b, analysis.Thm23Cycle) }

// BenchmarkThm33GoodS regenerates E4 (Theorem 3.3, time-to-O(d) vs s).
func BenchmarkThm33GoodS(b *testing.B) { benchExperiment(b, analysis.Thm33GoodS) }

// BenchmarkThm41LowerBound regenerates E5 (Theorem 4.1 steady flows).
func BenchmarkThm41LowerBound(b *testing.B) { benchExperiment(b, analysis.Thm41) }

// BenchmarkThm42Stateless regenerates E6 (Theorem 4.2 stateless trap).
func BenchmarkThm42Stateless(b *testing.B) { benchExperiment(b, analysis.Thm42) }

// BenchmarkThm43RotorNoLoops regenerates E7 (Theorem 4.3 period-2 orbits).
func BenchmarkThm43RotorNoLoops(b *testing.B) { benchExperiment(b, analysis.Thm43) }

// BenchmarkFairnessAudit regenerates E8 (Observation 2.2 fairness constants).
func BenchmarkFairnessAudit(b *testing.B) { benchExperiment(b, analysis.FairnessAudit) }

// BenchmarkPotentialDrop regenerates E9 (Lemma 3.5/3.7 monotonicity).
func BenchmarkPotentialDrop(b *testing.B) { benchExperiment(b, analysis.PotentialDrop) }

// BenchmarkExpanderHeadline regenerates E10 (√log n vs log n crossover).
func BenchmarkExpanderHeadline(b *testing.B) { benchExperiment(b, analysis.ExpanderHeadline) }

// BenchmarkPhaseStructure regenerates E11 (Theorem 3.3 proof phases).
func BenchmarkPhaseStructure(b *testing.B) { benchExperiment(b, analysis.PhaseExperiment) }

// BenchmarkMatchingModel regenerates the dimension-exchange extension table.
func BenchmarkMatchingModel(b *testing.B) { benchExperiment(b, analysis.MatchingModel) }

// BenchmarkIrregularExtension regenerates EXT2 (non-regular graphs).
func BenchmarkIrregularExtension(b *testing.B) { benchExperiment(b, analysis.IrregularExperiment) }

// BenchmarkWeightedTokens regenerates EXT3 (non-uniform tokens).
func BenchmarkWeightedTokens(b *testing.B) { benchExperiment(b, analysis.WeightedExperiment) }

// BenchmarkAblationSelfLoops regenerates ABL1 (d° sweep).
func BenchmarkAblationSelfLoops(b *testing.B) { benchExperiment(b, analysis.AblationSelfLoops) }

// BenchmarkAblationRotorOrder regenerates ABL2 (slot-order ablation).
func BenchmarkAblationRotorOrder(b *testing.B) { benchExperiment(b, analysis.AblationRotorOrder) }

// --- sweep harness ----------------------------------------------------------

// sweepBenchSpecs builds the acceptance workload: 100 specs over 4 repeated
// expanders (25 workloads each), every run capped at 64 rounds so engine and
// gap costs are visible over the round loop.
func sweepBenchSpecs() []detlb.RunSpec {
	const perGraph = 25
	var specs []detlb.RunSpec
	for seed := int64(1); seed <= 4; seed++ {
		g := detlb.RandomRegular(256, 8, seed)
		bg := detlb.Lazy(g)
		algo := detlb.NewRotorRouter()
		for w := 0; w < perGraph; w++ {
			specs = append(specs, detlb.RunSpec{
				Balancing: bg,
				Algorithm: algo,
				Initial:   detlb.PointMass(g.N(), w%g.N(), int64(32*(w+1))+7),
				MaxRounds: 64,
			})
		}
	}
	return specs
}

func reportSweepMetrics(b *testing.B, runs int) {
	b.ReportMetric(float64(runs)*float64(b.N)/b.Elapsed().Seconds(), "runs/sec")
}

// BenchmarkSweep100 measures the concurrent sweep harness on the 100-spec
// family: engines reused per (graph, algorithm) group via Engine.Reset,
// spectral gap memoized per graph, groups fanned out over 4 sweep workers.
func BenchmarkSweep100(b *testing.B) {
	specs := sweepBenchSpecs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, res := range detlb.Sweep(specs, detlb.SweepOptions{Workers: 4}) {
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	}
	reportSweepMetrics(b, len(specs))
}

// BenchmarkSweep100SerialWarmGap measures the equivalent serial analysis.Run
// loop with this PR's gap cache warm: a fresh engine per run, but each
// graph's power iteration already memoized.
func BenchmarkSweep100SerialWarmGap(b *testing.B) {
	specs := sweepBenchSpecs()
	for _, spec := range specs {
		_ = detlb.SpectralGap(spec.Balancing) // warm the cache for every graph
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, spec := range specs {
			if res := detlb.Run(spec); res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	}
	reportSweepMetrics(b, len(specs))
}

// BenchmarkSweep100SerialColdGap measures the pre-sweep harness behavior —
// the acceptance baseline: a serial Run loop that recomputes each spec's
// spectral gap from scratch (what analysis.Run did before the per-graph
// cache) and constructs a fresh engine per run.
func BenchmarkSweep100SerialColdGap(b *testing.B) {
	specs := sweepBenchSpecs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, spec := range specs {
			if detlb.SpectralGapFresh(spec.Balancing) <= 0 {
				b.Fatal("bad gap")
			}
			if res := detlb.Run(spec); res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	}
	reportSweepMetrics(b, len(specs))
}

// --- dynamic workloads ------------------------------------------------------

// dynamicBenchSpec is the shocked-run benchmark instance: a 256-node expander
// hit by a burst, a periodic refill adversary, and steady churn, measured
// against a recovery target over 128 rounds.
func dynamicBenchSpec() detlb.RunSpec {
	g := detlb.RandomRegular(256, 8, 1)
	return detlb.RunSpec{
		Balancing: detlb.Lazy(g),
		Algorithm: detlb.NewRotorRouter(),
		Initial:   detlb.PointMass(g.N(), 0, 8192),
		MaxRounds: 128,
		Events: detlb.ComposeSchedules{
			detlb.Burst{Round: 24, Node: 128, Amount: 8192},
			detlb.Refill{Round: 64, Every: 32, Amount: 2048},
			detlb.ChurnLoad{Every: 8, Amount: 256, Seed: 7},
		},
		TargetDiscrepancy: detlb.TargetDiscrepancy(16),
	}
}

// BenchmarkDynamicShockedRun measures one full dynamic run: per-round
// schedule evaluation, injections through Engine.ApplyDelta, and per-shock
// recovery accounting on top of the engine's round loop.
func BenchmarkDynamicShockedRun(b *testing.B) {
	spec := dynamicBenchSpec()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := detlb.Run(spec)
		if res.Err != nil {
			b.Fatal(res.Err)
		}
		if len(res.Shocks) == 0 {
			b.Fatal("no shocks recorded")
		}
	}
}

// BenchmarkDynamicStaticBaseline is the same instance without the schedule —
// the overhead denominator for the dynamic harness.
func BenchmarkDynamicStaticBaseline(b *testing.B) {
	spec := dynamicBenchSpec()
	spec.Events = nil
	spec.TargetDiscrepancy = nil
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := detlb.Run(spec); res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}

// BenchmarkDynamicSweep25 measures 25 shocked specs through the concurrent
// sweep harness (engine reuse + schedule evaluation together).
func BenchmarkDynamicSweep25(b *testing.B) {
	base := dynamicBenchSpec()
	specs := make([]detlb.RunSpec, 25)
	for i := range specs {
		specs[i] = base
		specs[i].Initial = detlb.PointMass(256, i, int64(4096+64*i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, res := range detlb.Sweep(specs, detlb.SweepOptions{Workers: 4}) {
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	}
	reportSweepMetrics(b, len(specs))
}

// --- topology faults --------------------------------------------------------

// faultBenchLinks picks real edges of g, one per distinct source node, so the
// deltas below actually change the live arc set.
func faultBenchLinks(g *detlb.Graph, count int) [][2]int {
	links := make([][2]int, 0, count)
	for u := 0; len(links) < count; u += 7 {
		links = append(links, [2]int{u, g.Neighbor(u, 0)})
	}
	return links
}

// BenchmarkTopologyFaultedStep measures one engine round on the standard
// 1024-node expander with 32 failed links — the degraded-graph hot path
// (dead-arc bounce-back on top of the flat round). Compare against
// BenchmarkStepRotorRouter for the fault overlay's overhead; like the
// healthy round, it must stay allocation-free.
func BenchmarkTopologyFaultedStep(b *testing.B) {
	g := detlb.RandomRegular(1024, 8, 1)
	bg := detlb.Lazy(g)
	x1 := detlb.PointMass(g.N(), 0, int64(64*g.N())+7)
	eng := detlb.MustEngine(bg, detlb.NewRotorRouter(), x1)
	if _, err := eng.ApplyTopologyDelta(core.TopologyDelta{FailLinks: faultBenchLinks(g, 32)}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTopologyApplyDelta measures the fault-injection control path: one
// 16-link failure delta plus the matching restore (mask updates, component
// census, epoch bump) per iteration.
func BenchmarkTopologyApplyDelta(b *testing.B) {
	g := detlb.RandomRegular(1024, 8, 1)
	eng := detlb.MustEngine(detlb.Lazy(g), detlb.NewRotorRouter(),
		detlb.PointMass(g.N(), 0, int64(64*g.N())+7))
	links := faultBenchLinks(g, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.ApplyTopologyDelta(core.TopologyDelta{FailLinks: links}); err != nil {
			b.Fatal(err)
		}
		if _, err := eng.ApplyTopologyDelta(core.TopologyDelta{RestoreLinks: links}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTopologyFaultedRun measures one full fault-injected run: the
// dynamic benchmark instance with a periodic fault schedule and a flapping
// link on top — schedule probing, delta application, faulted-gap
// re-estimation, and per-fault recovery accounting over 128 rounds. Compare
// against BenchmarkDynamicShockedRun for the topology dimension's overhead.
func BenchmarkTopologyFaultedRun(b *testing.B) {
	spec := dynamicBenchSpec()
	ts, err := detlb.ParseTopologySpec("periodic-fault:24,6,1+flap:0,1,8,32")
	if err != nil {
		b.Fatal(err)
	}
	spec.Topology, err = ts.Bind(256)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := detlb.Run(spec)
		if res.Err != nil {
			b.Fatal(res.Err)
		}
		if len(res.Faults) == 0 {
			b.Fatal("no faults recorded")
		}
	}
}

// --- population protocols ---------------------------------------------------

// BenchmarkProtocolMajorityStep measures one well-mixed majority round
// (n pairwise interactions) on a 1024-agent instance — the protocol
// backend's hot path; like the engine round, it must stay allocation-free.
func BenchmarkProtocolMajorityStep(b *testing.B) {
	m, err := detlb.NewMajorityProtocol(1024, 1).New(detlb.OpinionsLoad(1024, 600), 0)
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProtocolHermanStep measures one Herman round (deterministic coin
// flips + XOR merge, both phases on the kernel) on a 1025-node ring.
func BenchmarkProtocolHermanStep(b *testing.B) {
	m, err := detlb.NewHermanProtocol(1).New(detlb.TokensLoad(1025, 257, 1), 0)
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProtocolMajorityRun measures one full majority run to consensus
// through the harness — model construction, per-round metric evaluation, and
// the time-to-target stop on a 256-agent expander-labeled instance.
func BenchmarkProtocolMajorityRun(b *testing.B) {
	spec := detlb.RunSpec{
		Balancing:         detlb.Lazy(detlb.RandomRegular(256, 8, 1)),
		Model:             detlb.NewMajorityProtocol(256, 1),
		Metric:            detlb.UnconvergedMetric,
		Initial:           detlb.OpinionsLoad(256, 150),
		MaxRounds:         4096,
		TargetDiscrepancy: detlb.TargetDiscrepancy(0),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := detlb.Run(spec)
		if res.Err != nil {
			b.Fatal(res.Err)
		}
		if !res.ReachedTarget {
			b.Fatal("majority run did not reach consensus")
		}
	}
}

// --- micro-benchmarks -------------------------------------------------------

func benchStep(b *testing.B, algo detlb.Balancer, workers int) {
	g := detlb.RandomRegular(1024, 8, 1)
	bg := detlb.Lazy(g)
	x1 := detlb.PointMass(g.N(), 0, int64(64*g.N())+7)
	eng := detlb.MustEngine(bg, algo, x1, detlb.WithWorkers(workers))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStepSendFloor measures one engine round of SEND(⌊x/d⁺⌋) on a
// 1024-node expander (serial).
func BenchmarkStepSendFloor(b *testing.B) { benchStep(b, detlb.NewSendFloor(), 0) }

// BenchmarkStepRotorRouter measures one rotor-router round (serial).
func BenchmarkStepRotorRouter(b *testing.B) { benchStep(b, detlb.NewRotorRouter(), 0) }

// BenchmarkStepRotorRouterParallel measures the same round with 8 workers.
func BenchmarkStepRotorRouterParallel(b *testing.B) { benchStep(b, detlb.NewRotorRouter(), 8) }

// BenchmarkStepGoodS measures one good-4-balancer round (serial).
func BenchmarkStepGoodS(b *testing.B) { benchStep(b, detlb.NewGoodS(4), 0) }

// BenchmarkStepContinuousMimic measures the [4] baseline (runs a shadow
// continuous process each round).
func BenchmarkStepContinuousMimic(b *testing.B) { benchStep(b, detlb.NewContinuousMimic(), 0) }

// BenchmarkStepAudited measures a rotor-router round with the full auditor
// stack attached — the overhead of checking the paper's invariants.
func BenchmarkStepAudited(b *testing.B) {
	g := detlb.RandomRegular(1024, 8, 1)
	bg := detlb.Lazy(g)
	x1 := detlb.PointMass(g.N(), 0, int64(64*g.N())+7)
	eng := detlb.MustEngine(bg, detlb.NewRotorRouter(), x1,
		detlb.WithAuditor(detlb.NewConservationAuditor()),
		detlb.WithAuditor(detlb.NewMinShareAuditor()),
		detlb.WithAuditor(detlb.NewRoundFairAuditor()),
		detlb.WithAuditor(detlb.NewCumulativeFairnessAuditor(1)),
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkActorRound measures one barrier round of the goroutine-per-node
// runtime on a 256-node expander.
func BenchmarkActorRound(b *testing.B) {
	g := detlb.RandomRegular(256, 8, 1)
	bg := detlb.Lazy(g)
	nw, err := detlb.NewActorNetwork(bg, detlb.NewRotorRouter(),
		detlb.PointMass(g.N(), 0, int64(16*g.N())+3))
	if err != nil {
		b.Fatal(err)
	}
	defer nw.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.Step()
	}
}

// BenchmarkSpectralGapAnalytic measures gap computation with an analytic ν₂.
func BenchmarkSpectralGapAnalytic(b *testing.B) {
	bg := detlb.Lazy(detlb.Torus(2, 32))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if detlb.SpectralGap(bg) <= 0 {
			b.Fatal("bad gap")
		}
	}
}

// BenchmarkSpectralGapPowerIteration measures the projected power iteration
// on a 256-node expander (no analytic hint), bypassing the per-graph cache —
// the cached SpectralGap would reduce every iteration after the first to a
// map lookup.
func BenchmarkSpectralGapPowerIteration(b *testing.B) {
	bg := detlb.Lazy(detlb.RandomRegular(256, 8, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if detlb.SpectralGapFresh(bg) <= 0 {
			b.Fatal("bad gap")
		}
	}
}

// BenchmarkRandomRegularSampling measures d-regular graph generation with
// edge-switch repair.
func BenchmarkRandomRegularSampling(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := detlb.RandomRegular(512, 8, int64(i+1))
		if g.N() != 512 {
			b.Fatal("bad graph")
		}
	}
}

// BenchmarkContinuousStep measures one continuous diffusion round on a
// 1024-node expander — the substrate of the [4] baseline and of T estimates.
func BenchmarkContinuousStep(b *testing.B) {
	bg := detlb.Lazy(detlb.RandomRegular(1024, 8, 1))
	c := detlb.NewContinuous(bg, detlb.PointMass(1024, 0, 65543))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
	}
}

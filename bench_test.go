package detlb_test

// Benchmark harness: BenchmarkExperiments, one sub-benchmark per entry of
// the analysis.Experiments registry, each regenerating its table at full
// size, plus micro-benchmarks for the hot paths (engine step, serial vs
// parallel, actor round, spectral gap, graph sampling). Run:
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks exist to time the reproduction pipeline and to
// make every table reproducible from a single command; their tables are what
// cmd/lbbench prints.

import (
	"fmt"
	"testing"

	"detlb"
	"detlb/internal/analysis"
	"detlb/internal/core"
	"detlb/internal/scenario"
)

// BenchmarkExperiments regenerates every experiment of analysis.Experiments
// at full size, one sub-benchmark per experiment ID.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range analysis.Experiments() {
		b.Run(e.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if tab := e.Run(analysis.Config{Seed: 1}); len(tab.Rows) == 0 {
					b.Fatal("empty experiment table")
				}
			}
		})
	}
}

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
// family: a fresh engine per spec, spectral gap memoized per graph, groups
// fanned out over 4 sweep workers.
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
// loop with the gap cache warm: a fresh engine per run, as in the sweep, and
// each graph's Lanczos solve already memoized, so the gap to Sweep100 is the
// sweep's scheduling across its workers.
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

// BenchmarkSweepColdExpander measures the sweep of one cold
// expander-headline POST: the preset's 9 cells (random 8-regular graphs on
// 128, 256 and 512 nodes × send-floor, rotor-router and biased rounding),
// bound afresh each iteration outside the timer so every spectral gap is
// solved cold, at sweep widths 1 and 2.
func BenchmarkSweepColdExpander(b *testing.B) {
	fam, err := scenario.Preset("expander-headline")
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var cells int
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				specs, _, err := fam.Bind()
				if err != nil {
					b.Fatal(err)
				}
				cells = len(specs)
				b.StartTimer()
				for _, res := range detlb.Sweep(specs, detlb.SweepOptions{Workers: workers}) {
					if res.Err != nil {
						b.Fatal(res.Err)
					}
				}
			}
			reportSweepMetrics(b, cells)
		})
	}
}

// BenchmarkSweepKernelHypercube measures the sweep of one kernel-hypercube
// POST: rotor-router and send-floor, 400 rounds each on hypercube:12 from
// random loads, at sweep width 2, bound afresh each iteration outside the
// timer. The send-floor cell's cycle detector stops it stepping early, and
// its runner then helps the rotor-router cell's rounds.
func BenchmarkSweepKernelHypercube(b *testing.B) {
	fam, err := scenario.ParseFamily("hypercube:12", "rotor-router;send-floor", "random:1024,7", "", "")
	if err != nil {
		b.Fatal(err)
	}
	fam.Run = scenario.RunParams{Rounds: 400}
	b.ReportAllocs()
	var cells int
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		specs, _, err := fam.Bind()
		if err != nil {
			b.Fatal(err)
		}
		cells = len(specs)
		b.StartTimer()
		for _, res := range detlb.Sweep(specs, detlb.SweepOptions{Workers: 2}) {
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	}
	reportSweepMetrics(b, cells)
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
// sweep harness (a fresh engine per spec plus schedule evaluation).
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
		links = append(links, [2]int{u, int(g.Neighbors(u)[0])})
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

// BenchmarkStepBiasedRounding measures one round of the biased round-fair
// baseline (serial).
func BenchmarkStepBiasedRounding(b *testing.B) { benchStep(b, detlb.NewBiasedRounding(), 0) }

// BenchmarkStepRotorRouter measures one rotor-router round (serial).
func BenchmarkStepRotorRouter(b *testing.B) { benchStep(b, detlb.NewRotorRouter(), 0) }

// BenchmarkStepRotorRouterParallel measures the same round with 8 workers,
// which the engine clamps to GOMAXPROCS.
func BenchmarkStepRotorRouterParallel(b *testing.B) { benchStep(b, detlb.NewRotorRouter(), 8) }

// BenchmarkStepRotorRouterW2 measures the same round at engine width 2: the
// stepping goroutine and one helper each distribute half the nodes and push
// their arcs, then fold the helper's accumulator into the loads.
func BenchmarkStepRotorRouterW2(b *testing.B) { benchStep(b, detlb.NewRotorRouter(), 2) }

// BenchmarkStepGoodS measures one good-4-balancer round (serial).
func BenchmarkStepGoodS(b *testing.B) { benchStep(b, detlb.NewGoodS(4), 0) }

// BenchmarkStepContinuousMimic measures the [4] baseline (runs a shadow
// continuous process each round).
func BenchmarkStepContinuousMimic(b *testing.B) { benchStep(b, detlb.NewContinuousMimic(), 0) }

// benchStepHypercube12 measures one round on hypercube:12 (4096 nodes, lazy)
// at the given engine width, from uniform random loads in [0, 1024]: one
// cell of perfbench's kernel-hypercube workload.
func benchStepHypercube12(b *testing.B, algo detlb.Balancer, workers int) {
	g := detlb.Hypercube(12)
	eng := detlb.MustEngine(detlb.Lazy(g), algo, detlb.RandomLoad(g.N(), 1024, 1), detlb.WithWorkers(workers))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStepHypercube12RotorRouter is kernel-hypercube's critical cell
// at width 0: serial here, since no helper is ever lent to it.
func BenchmarkStepHypercube12RotorRouter(b *testing.B) {
	benchStepHypercube12(b, detlb.NewRotorRouter(), 0)
}

// BenchmarkStepHypercube12RotorRouterW1 is the same cell at an explicit
// engine width of 1, recorded beside W2.
func BenchmarkStepHypercube12RotorRouterW1(b *testing.B) {
	benchStepHypercube12(b, detlb.NewRotorRouter(), 1)
}

// BenchmarkStepHypercube12RotorRouterW2 is the same cell at engine width 2.
func BenchmarkStepHypercube12RotorRouterW2(b *testing.B) {
	benchStepHypercube12(b, detlb.NewRotorRouter(), 2)
}

// BenchmarkStepHypercube12SendFloor is kernel-hypercube's other cell.
func BenchmarkStepHypercube12SendFloor(b *testing.B) {
	benchStepHypercube12(b, detlb.NewSendFloor(), 0)
}

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

// BenchmarkSpectralGapPowerIteration measures one Lanczos solve (the
// three-term recurrence with its lazily decided bisection) on a 256-node
// expander with no analytic hint, bypassing the per-graph cache — the
// cached SpectralGap would reduce every iteration after the first to a map
// lookup. The name predates the solver; scripts/bench_compare.sh tracks
// recorded benchmarks by name, so it stays.
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

// BenchmarkGraphHypercube12 measures one hypercube:12 build (4096 nodes,
// 49,152 arcs, the kernel-hypercube graph): the flat heads array, the
// symmetry check and the reverse index.
func BenchmarkGraphHypercube12(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if g := detlb.Hypercube(12); g.N() != 4096 {
			b.Fatal("bad graph")
		}
	}
}

// BenchmarkBindColdExpander measures Family.Bind of one cold
// expander-headline-shaped family — random 8-regular graphs on 128, 256 and
// 512 nodes × send-floor, rotor-router and biased rounding — on a fresh
// graph seed every iteration, so all three graphs are sampled: the serial
// bind a cold POST runs before any gap solve or round. The families are
// parsed before the timer starts.
func BenchmarkBindColdExpander(b *testing.B) {
	fams := make([]*scenario.Family, b.N)
	for i := range fams {
		s := i + 1
		fam, err := scenario.ParseFamily(
			fmt.Sprintf("random:128,8,%d;random:256,8,%d;random:512,8,%d", s, s, s),
			"send-floor;rotor-router;biased", "point", "", "")
		if err != nil {
			b.Fatal(err)
		}
		fam.Run = scenario.RunParams{Patience: 2048}
		fams[i] = fam
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, fam := range fams {
		if specs, _, err := fam.Bind(); err != nil || len(specs) != 9 {
			b.Fatal(len(specs), err)
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

// Command lbsim runs a single load-balancing simulation: one graph, one
// algorithm, one workload, printing the discrepancy trajectory and the final
// audit summary.
//
// Usage:
//
//	lbsim -graph cycle:64 -algo rotor-router -workload point:512 \
//	      -rounds 0 -loops -1 -sample 100 [-audit] [-workers 4] \
//	      [-events burst:40,0,2048] [-faults partition:30,32,70] [-target -1] \
//	      [-scenario run.json] [-emit-scenario run.json] [-orbit]
//
// -scenario loads the run from a scenario JSON file (a single-cell family;
// see docs/scenarios.md) instead of the spec flags; -emit-scenario snapshots
// the resolved flag combination — every default and seed materialized — to a
// file, so the exact run can be re-executed bit-identically with -scenario.
// Output-side flags (-audit, -csv, -orbit) are not part of a scenario and
// compose with both.
//
// -events injects load mid-run (burst:ROUND,NODE,AMOUNT | drain:FROM,TO,PERNODE |
// periodic:EVERY,NODE,AMOUNT | churn:EVERY,AMOUNT[,SEED] |
// refill:ROUND,AMOUNT[,EVERY], "+"-composable); each shock is reported with
// its recovery. -target N ≥ 0 sets the discrepancy target (0 = perfect
// balance): static runs stop there, dynamic runs measure per-shock recovery
// against it.
//
// -faults injects deterministic topology faults between rounds
// (faillink:ROUND,U,V | restorelink:ROUND,U,V | failnode:ROUND,NODE[,REDIST] |
// restorenode:ROUND,NODE | flap:U,V,FROM,PERIOD[,DUTY] |
// partition:ROUND,BOUNDARY[,HEAL] | periodic-fault:EVERY,DOWN[,SEED],
// "+"-composable); each fault event is reported with its per-component
// recovery (see docs/topology.md).
//
// -orbit reruns the static spec without auditors, target, patience or
// sampling for 4n+64 rounds past the run's stop, and prints the cycle the
// round loop's detector closes on the engine's full state (loads and
// balancer words): its period, a round on it, and the discrepancy range
// over one period. It needs a balancer the engine can compare in full
// (core.Recurrent: send-floor, send-round, rotor-router, good:S, biased);
// the others, and -events or -faults runs, exit with status 2.
//
// Graphs:    cycle:N | torus:SIDE[,R] | hypercube:R | complete:N |
//
//	random:N,D[,SEED] | petersen | gp:N,K | kbipartite:K | circulant:N,S1+S2+…
//
// Workloads: point:TOTAL | uniform:EACH | bimodal:LO,HI | random:MAX[,SEED] |
//
//	ramp:BASE,STEP | opinions[:A] | tokens[:COUNT,SEED]
//
// Algos:     send-floor | send-round | rotor-router | rotor-router* |
//
//	good:S | biased | rand-extra[:SEED] | rand-round[:SEED] |
//	mimic | bounded-error | matching | matching-rand
//
// Population-protocol models run on the same flags (the graph contributes
// the agent count): majority[:SEED] | herman[:SEED], converging in their own
// metric (unconverged minority count, surviving ring tokens). Protocol runs
// reject -events, -faults, -audit, -csv, and -orbit.
//
// -rounds 0 uses the paper's horizon T = ⌈16·ln(nK)/µ⌉.
// -loops -1 uses d° = d (the lazy default).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"detlb/internal/analysis"
	"detlb/internal/core"
	"detlb/internal/scenario"
	"detlb/internal/spectral"
	"detlb/internal/trace"
	"detlb/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("lbsim", flag.ContinueOnError)
	graphSpec := fs.String("graph", "cycle:64", "graph family:params")
	algoSpec := fs.String("algo", "rotor-router", "algorithm")
	loadSpec := fs.String("workload", "point:512", "initial load vector")
	rounds := fs.Int("rounds", 0, "round cap (0 = paper horizon T)")
	loops := fs.Int("loops", -1, "self-loops per node (-1 = d, the lazy default)")
	sample := fs.Int("sample", 0, "print discrepancy every k rounds (0 = only summary)")
	audit := fs.Bool("audit", false, "attach conservation, min-share and fairness auditors")
	workers := fs.Int("workers", 0, "engine worker goroutines")
	events := fs.String("events", "", "dynamic-workload schedule (empty = static run)")
	faults := fs.String("faults", "", "fault-injection topology schedule (empty = pristine graph)")
	target := fs.Int64("target", -1, "discrepancy target (-1 = none; ≥ 0 stops static runs, defines dynamic recovery)")
	scenarioPath := fs.String("scenario", "", "load the run from this scenario JSON file (spec flags are ignored)")
	emitPath := fs.String("emit-scenario", "", "write the resolved run as a scenario JSON file (re-runnable via -scenario)")
	csvPath := fs.String("csv", "", "write the sampled discrepancy series to this CSV file")
	orbit := fs.Bool("orbit", false, "after the run, report the full-state cycle the process enters (Recurrent balancers only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cell, fam, err := buildScenario(*scenarioPath, *graphSpec, *algoSpec, *loadSpec, *events, *faults,
		*loops, *rounds, *workers, *sample, *target)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbsim:", err)
		return 2
	}
	if *scenarioPath != "" {
		scenario.WarnOverriddenFlags("lbsim", fs,
			"graph", "algo", "workload", "events", "faults", "loops", "rounds", "workers", "sample", "target")
	}
	spec, err := cell.Bind()
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbsim:", err)
		return 2
	}
	if *emitPath != "" {
		// Emit only after the cell bound: a snapshot that cannot be re-run
		// via -scenario must never reach disk. fam is the loaded family when
		// -scenario was given, so load → re-emit is byte-identical.
		if err := fam.WriteFile(*emitPath); err != nil {
			fmt.Fprintln(os.Stderr, "lbsim:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote scenario to %s\n", *emitPath)
	}
	b := spec.Balancing
	g := b.Graph()
	algo := spec.Algorithm
	x1 := spec.Initial

	if spec.Model != nil {
		// Population-protocol run: the graph contributes sizing and labels,
		// and the diffusion-only outputs have no meaning here.
		if *audit || *csvPath != "" || *orbit {
			fmt.Fprintln(os.Stderr, "lbsim: -audit, -csv and -orbit apply to diffusion runs (protocol models audit their invariants internally)")
			return 2
		}
		fmt.Fprintf(stdout, "graph=%s n=%d (sizing and labels only for protocol models)\n", g.Name(), g.N())
		fmt.Fprintf(stdout, "model=%s metric=%s initial=%d\n",
			spec.Model.Name(), spec.Metric.Name(), spec.Metric.Measure(x1))
		res := analysis.Run(spec)
		for _, p := range res.Series {
			fmt.Fprintf(stdout, "round %8d  %s %6d\n", p.Round, spec.Metric.Name(), p.Discrepancy)
		}
		fmt.Fprintln(stdout, res.String())
		if res.ReachedTarget {
			fmt.Fprintf(stdout, "target %d reached at round %d\n", *spec.TargetDiscrepancy, res.TargetRound)
		}
		if res.Err != nil {
			fmt.Fprintln(os.Stderr, "lbsim:", res.Err)
			return 1
		}
		return 0
	}

	if *orbit {
		if spec.Events != nil || spec.Topology != nil {
			fmt.Fprintln(os.Stderr, "lbsim: -orbit cannot be combined with -events or -faults (the cycle is the static process's)")
			return 2
		}
		if !recurrent(spec) {
			fmt.Fprintf(os.Stderr, "lbsim: -orbit needs a balancer whose full state the engine compares; %s is not core.Recurrent\n", algo.Name())
			return 2
		}
	}

	mu := spectral.Gap(b)
	k := core.Discrepancy(x1)
	fmt.Fprintf(stdout, "graph=%s d=%d d°=%d d⁺=%d µ=%.4g diam=%d\n",
		g.Name(), g.Degree(), b.SelfLoops(), b.DegreePlus(), mu, g.Diameter())
	fmt.Fprintf(stdout, "algo=%s workload K=%d total=%d\n", algo.Name(), k, workload.Total(x1))

	var fair *core.CumulativeFairnessAuditor
	var rec *trace.Recorder
	if *csvPath != "" {
		interval := spec.SampleEvery
		if interval <= 0 {
			interval = 1
		}
		rec = trace.NewRecorder(interval)
		spec.Auditors = append(spec.Auditors, rec)
	}
	if *audit {
		fair = core.NewCumulativeFairnessAuditor(-1)
		spec.Auditors = append(spec.Auditors,
			core.NewConservationAuditor(),
			core.NewMinShareAuditor(),
			fair,
		)
	}
	res := analysis.Run(spec)
	for _, p := range res.Series {
		if p.Shock {
			fmt.Fprintf(stdout, "round %8d  discrepancy %6d  <- shock (net %+d tokens)\n", p.Round, p.Discrepancy, p.Injected)
			continue
		}
		if p.Fault {
			fmt.Fprintf(stdout, "round %8d  discrepancy %6d  <- fault (-%d/+%d links, -%d/+%d nodes, %d components)\n",
				p.Round, p.Discrepancy, p.FaultChange.FailedLinks, p.FaultChange.RestoredLinks,
				p.FaultChange.FailedNodes, p.FaultChange.RestoredNodes, p.Components)
			continue
		}
		fmt.Fprintf(stdout, "round %8d  discrepancy %6d\n", p.Round, p.Discrepancy)
	}
	fmt.Fprintln(stdout, res.String())
	for i, s := range res.Shocks {
		recov := "not recovered within the run"
		if s.RecoveryRounds >= 0 {
			recov = fmt.Sprintf("recovered to target in %d rounds", s.RecoveryRounds)
		} else if spec.TargetDiscrepancy == nil {
			recov = "no target set"
		}
		fmt.Fprintf(stdout, "shock %d after round %d: +%d/-%d tokens, disc %d (peak %d), %s\n",
			i+1, s.Round, s.Added, s.Removed, s.Discrepancy, s.PeakDiscrepancy, recov)
	}
	for i, f := range res.Faults {
		recov := "not recovered within the run"
		if f.RecoveryRounds >= 0 {
			recov = fmt.Sprintf("recovered to target in %d rounds", f.RecoveryRounds)
		} else if spec.TargetDiscrepancy == nil {
			recov = "no target set"
		}
		detail := ""
		if f.Stranded != 0 {
			detail = fmt.Sprintf(", stranded %d tokens", f.Stranded)
		} else if f.Redistributed != 0 {
			detail = fmt.Sprintf(", redistributed %d tokens", f.Redistributed)
		}
		if f.UnreachableLoad != 0 {
			detail += fmt.Sprintf(", unreachable %d", f.UnreachableLoad)
		}
		fmt.Fprintf(stdout, "fault %d after round %d: -%d/+%d links, -%d/+%d nodes, %d components (µ=%.4g), eff disc %d (peak %d)%s, %s\n",
			i+1, f.Round, f.FailedLinks, f.RestoredLinks, f.FailedNodes, f.RestoredNodes,
			f.Components, f.Gap, f.Discrepancy, f.PeakDiscrepancy, detail, recov)
	}
	if res.ReachedTarget {
		fmt.Fprintf(stdout, "target %d reached at round %d\n", *spec.TargetDiscrepancy, res.TargetRound)
	}
	if fair != nil {
		fmt.Fprintf(stdout, "measured cumulative fairness δ = %d\n", fair.MaxDelta)
	}
	if rec != nil {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lbsim:", err)
			return 1
		}
		defer f.Close()
		if err := rec.WriteCSV(f); err != nil {
			fmt.Fprintln(os.Stderr, "lbsim:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %d samples to %s\n", len(rec.Samples()), *csvPath)
	}
	if res.Err != nil {
		// Audit failures and spec-level errors (e.g. a balancer that rejects
		// the graph configuration, a disconnected graph with the default
		// horizon) surface here — before orbit detection, which would bind
		// the same broken spec again.
		fmt.Fprintln(os.Stderr, "lbsim:", res.Err)
		return 1
	}
	if *orbit {
		// The round loop's detector closes the cycle on the full state. It
		// needs a Recurrent engine, so the rerun drops the auditors, and it
		// runs 4n+64 rounds past the observed stop with no target, patience
		// or sampling to end it sooner.
		cspec := spec
		cspec.Auditors, cspec.TargetDiscrepancy, cspec.Patience, cspec.SampleEvery = nil, nil, 0, 0
		cspec.MaxRounds = res.Rounds + 4*g.N() + 64
		cres := analysis.Run(cspec)
		if cres.Err != nil {
			fmt.Fprintln(os.Stderr, "lbsim:", cres.Err)
			return 1
		}
		if c := cres.Cycle; c != nil {
			fmt.Fprintf(stdout, "state cycle: period %d entered by round %d, discrepancy %d..%d\n",
				c.Period, c.Start, c.Min, c.Max)
		} else {
			fmt.Fprintf(stdout, "no state cycle within %d rounds\n", cspec.MaxRounds)
		}
	}
	return 0
}

// recurrent reports whether the spec's engine exposes its full state to the
// round loop's cycle detector. A spec whose engine does not build counts as
// recurrent, so that the run itself reports the error.
func recurrent(spec analysis.RunSpec) bool {
	eng, err := core.NewEngine(spec.Balancing, spec.Algorithm, spec.Initial)
	if err != nil {
		return true
	}
	defer eng.Close()
	return eng.Recurrent()
}

// buildScenario resolves the run description: from a scenario file when path
// is set (the file must describe exactly one run), from the spec flags
// otherwise — materializing every default, including lbsim's graph-sized
// patience, so -emit-scenario snapshots are fully explicit. The returned
// family is what -emit-scenario writes: the loaded one when a file was
// given (so load → re-emit is byte-identical), the cell's singleton family
// otherwise.
func buildScenario(path, graphSpec, algoSpec, loadSpec, events, faults string,
	loops, rounds, workers, sample int, target int64) (scenario.Scenario, *scenario.Family, error) {
	if path != "" {
		fam, err := scenario.LoadFile(path)
		if err != nil {
			return scenario.Scenario{}, nil, err
		}
		cells := fam.Scenarios()
		if len(cells) != 1 {
			return scenario.Scenario{}, nil, fmt.Errorf("%s describes %d runs; lbsim runs exactly one (use lbsweep for families)", path, len(cells))
		}
		return cells[0], fam, nil
	}
	gs, err := scenario.ParseGraph(graphSpec)
	if err != nil {
		return scenario.Scenario{}, nil, err
	}
	if loops >= 0 {
		gs.SelfLoops = &loops
	}
	as, err := scenario.ParseAlgo(algoSpec)
	if err != nil {
		return scenario.Scenario{}, nil, err
	}
	ws, err := scenario.ParseWorkload(loadSpec)
	if err != nil {
		return scenario.Scenario{}, nil, err
	}
	ss, err := scenario.ParseSchedule(events)
	if err != nil {
		return scenario.Scenario{}, nil, err
	}
	ts, err := scenario.ParseTopology(faults)
	if err != nil {
		return scenario.Scenario{}, nil, err
	}
	n, err := gs.Nodes()
	if err != nil {
		return scenario.Scenario{}, nil, err
	}
	cell := scenario.Scenario{
		Graph: gs, Algo: as, Workload: ws, Schedule: ss, Topology: ts,
		Run: scenario.RunParams{
			Rounds:      rounds,
			Patience:    16 * n,
			Workers:     workers,
			SampleEvery: sample,
		},
	}
	if target >= 0 {
		cell.Run.Target = &target
	}
	return cell, cell.Family(), nil
}

// Package detlb is a Go reproduction of "Improved Analysis of Deterministic
// Load-Balancing Schemes" (Berenbrink, Klasing, Kosowski, Mallmann-Trenn,
// Uznański; PODC 2015): discrete diffusive token balancing on d-regular
// graphs augmented with self-loops.
//
// The package is a facade re-exporting the library's public surface:
//
//   - graph construction (cycles, tori, hypercubes, expanders, …) and the
//     balancing graph G+ with d° self-loops (DegreePlus, Lazy);
//   - every algorithm the paper names — SEND(⌊x/d⁺⌋), SEND([x/d⁺]),
//     ROTOR-ROUTER, ROTOR-ROUTER*, generic good s-balancers — plus the
//     literature baselines of Table 1 and the continuous diffusion process;
//   - the deterministic synchronous engine with invariant auditors
//     (cumulative δ-fairness, round-fairness, s-self-preference, token
//     conservation) and the φ/φ′ potential functions of Section 3;
//   - a flat-memory engine core: graphs carry a CSR-style contiguous
//     adjacency and reverse index, per-arc engine state lives in single
//     backing arrays sub-sliced per node, rounds run on a persistent worker
//     pool with a distribute/apply barrier, and the paper's schemes
//     distribute through a compressed (base, extra-token mask) bulk path —
//     Step performs zero steady-state allocations, and load trajectories are
//     bit-identical for every worker count (see internal/core);
//   - spectral utilities (eigenvalue gap µ, balancing time T = O(log(Kn)/µ)),
//     with power-iteration results memoized per graph behind weak references;
//   - the experiment harness regenerating the paper's Table 1 and one
//     experiment per theorem (analysis.AllExperiments, printed by
//     cmd/lbbench);
//   - a concurrent scenario-sweep subsystem (Sweep): spec families — graph ×
//     balancer × initial-load grids, the shape of the paper's claims — fan
//     out over a bounded runner pool with engines reused across runs of the
//     same (graph, algorithm) pair via Engine.Reset, per-spec results
//     bit-identical to a serial Run loop at every worker count, and one bad
//     spec reported through its RunResult.Err instead of killing the sweep
//     (see cmd/lbsweep for the CLI); SweepContext adds cancellation and
//     progress callbacks for long sweeps;
//   - a dynamic-workload subsystem: Schedules (Burst, Drain, PeriodicLoad,
//     ChurnLoad, adversarial Refill, composable) inject load between rounds
//     through Engine.ApplyDelta, and each shock is measured for recovery —
//     peak discrepancy and rounds back to the target — turning the harness
//     into a self-stabilization testbed (RunSpec.Events, RunResult.Shocks);
//   - a declarative scenario layer (Scenario API v1): pure-data descriptors
//     for graphs, algorithms, workloads, and schedules that serialize to
//     JSON scenario files and bind into live RunSpecs through a constructor
//     registry — one grammar behind both the CLI flags and the files, with
//     every default and seed materialized so a saved scenario re-runs
//     bit-identically (Scenario, ScenarioFamily, LoadScenario,
//     BindScenarios, ScenarioPreset; see docs/scenarios.md and the
//     -scenario/-emit-scenario/-preset flags of lbsim and lbsweep);
//   - a streaming run API: Stream(ctx, spec) yields one Snapshot per round
//     (plus Shock-marked injection snapshots) with per-round cancellation,
//     and is the primitive Run and Sweep are expressed over;
//   - a scenario-driven serving layer (cmd/lbserve): a long-running HTTP
//     daemon that accepts scenario JSON or preset names, executes them on
//     the sweep harness's bounded runner pool, streams per-round snapshots
//     live over SSE/NDJSON — each consumer deterministically re-executes on
//     its own engines, so streams need no broadcast machinery and client
//     disconnect cancels within one round — and archives every finished run
//     as a content-addressed (scenario, result) pair whose bit-identical
//     reproducibility is the regression-tracking contract (Server,
//     NewServer, RunArchive; see docs/serving.md);
//   - a model-agnostic simulation kernel: the engine's parallel round
//     executor is exported as Kernel (chunked phases, barrier, bit-identical
//     at every width), and the Model/ModelBuilder/Metric interfaces let any
//     deterministic round-based dynamics run on the same sweep/stream/serve
//     stack — the diffusion Engine is the reference implementation;
//   - a population-protocol backend on that kernel: the 4-state
//     exact-majority protocol (NewMajorityProtocol, UnconvergedMetric) and
//     Herman's self-stabilizing token ring (NewHermanProtocol,
//     TokensMetric), seeded and deterministic, with conservation invariants
//     audited inside the models and the majority-vs-rotor preset racing
//     both model families on one initial vector (see docs/models.md);
//   - an actor runtime executing the same model with one goroutine per
//     processor and channel message passing.
//
// Quick start:
//
//	g := detlb.Cycle(64)                  // d-regular graph
//	b := detlb.Lazy(g)                    // G+ with d° = d self-loops
//	x1 := detlb.PointMass(g.N(), 0, 1000) // all tokens on node 0
//	eng := detlb.MustEngine(b, detlb.NewRotorRouter(), x1)
//	for eng.Discrepancy() > 2 {
//		_ = eng.Step()
//	}
//
// See examples/ for complete programs.
package detlb

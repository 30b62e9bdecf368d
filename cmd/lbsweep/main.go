// Command lbsweep runs a scenario sweep: the cross product of graph ×
// algorithm × workload × schedule × topology specs, fanned out over the
// concurrent sweep harness (a fresh engine per spec, spectral gaps memoized
// per graph), with per-spec rows and
// per-(graph, algorithm) aggregate tables emitted as text, CSV, or JSON.
//
// Usage:
//
//	lbsweep -graphs "random:256,8,1;cycle:128" \
//	        -algos "send-floor;rotor-router;good:2" \
//	        -workloads "point:2048;bimodal:0,64" \
//	        [-schedules "none;burst:40,0,2048;refill:40,1024,40"] \
//	        [-topologies "none;partition:30,64,70;periodic-fault:15,5"] \
//	        [-target -1] [-rounds 0] [-loops -1] [-patience 0] [-sample 0] \
//	        [-workers 0] [-sweep-workers 0] [-progress] \
//	        [-scenario family.json] [-emit-scenario family.json] \
//	        [-preset shock-recovery] [-list-presets] \
//	        [-csv rows.csv] [-json sweep.json] [-series DIR]
//
// Spec lists are semicolon-separated; the mini-language is lbsim's (the
// grammar lives in internal/scenario, shared by the flags and the JSON
// scenario files). Population-protocol models (majority[:SEED] |
// herman[:SEED], with the opinions/tokens workloads) sweep on the same
// grammar; their rows carry a metric column naming the model's convergence
// metric in place of the diffusion discrepancy. -rounds 0 uses the paper's horizon T = ⌈16·ln(nK)/µ⌉
// per instance; -loops -1 uses d° = d. -sweep-workers bounds the concurrent
// (graph, algorithm) groups; results are bit-identical for every value.
// -series writes one JSONL trajectory file per sampled spec via
// internal/trace (dynamic runs carry shock markers).
//
// -scenario loads the whole family from a scenario JSON file and -preset
// runs a named preset (-list-presets shows the catalog); either replaces the
// spec-list and run flags entirely. -emit-scenario snapshots the resolved
// family — every default and seed materialized — so any flag combination can
// be saved, diffed, and re-run bit-identically (see docs/scenarios.md).
//
// -schedules makes runs dynamic: each schedule injects load between rounds
// (burst:ROUND,NODE,AMOUNT | drain:FROM,TO,PERNODE | periodic:EVERY,NODE,AMOUNT |
// churn:EVERY,AMOUNT[,SEED] | refill:ROUND,AMOUNT[,EVERY], composable with
// "+"; "none" is a static run). -target N ≥ 0 sets the discrepancy target:
// static runs stop when they reach it, dynamic runs use it to measure
// per-shock recovery (shocks / mean recovery rounds / peak columns).
//
// -topologies injects deterministic faults between rounds
// (faillink:ROUND,U,V | restorelink:ROUND,U,V | failnode:ROUND,NODE[,REDIST] |
// restorenode:ROUND,NODE | flap:U,V,FROM,PERIOD[,DUTY] |
// partition:ROUND,BOUNDARY[,HEAL] | periodic-fault:EVERY,DOWN[,SEED],
// composable with "+"; "none" keeps the graph pristine). Faulted runs report
// per-fault recovery to the target on the effective (per-component)
// discrepancy (faults / fault recovery / fault peak columns); see
// docs/topology.md.
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"time"

	"detlb/internal/analysis"
	"detlb/internal/scenario"
	"detlb/internal/stats"
	"detlb/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// row is one per-spec record of the sweep report.
type row struct {
	Graph    string `json:"graph"`
	Algo     string `json:"algo"`
	Workload string `json:"workload"`
	Schedule string `json:"schedule,omitempty"`
	Topology string `json:"topology,omitempty"`
	// Metric names the convergence metric of a model run ("unconverged",
	// "tokens"); empty for diffusion rows, whose discrepancy columns keep
	// their historical meaning.
	Metric      string  `json:"metric,omitempty"`
	N           int     `json:"n"`
	Degree      int     `json:"d"`
	SelfLoops   int     `json:"self_loops"`
	Gap         float64 `json:"gap"`
	T           int     `json:"balancing_time"`
	Horizon     int     `json:"horizon"`
	Rounds      int     `json:"rounds"`
	InitialDisc int64   `json:"initial_discrepancy"`
	FinalDisc   int64   `json:"final_discrepancy"`
	MinDisc     int64   `json:"min_discrepancy"`
	TargetRound int     `json:"target_round"`
	Stopped     bool    `json:"stopped_early"`
	// Dynamic-run recovery metrics (zero for static runs): shock count, how
	// many recovered to the target, mean rounds-to-recover over the
	// recovered ones, and the worst post-shock discrepancy peak. Not
	// omitempty: 0 is a legitimate value for every one of them (instant
	// recovery, nothing recovered) and must stay distinguishable from
	// "key absent" — the φ=0 JSONL lesson.
	Shocks       int     `json:"shocks"`
	Recovered    int     `json:"recovered"`
	MeanRecovery float64 `json:"mean_recovery_rounds"`
	PeakDisc     int64   `json:"peak_shock_discrepancy"`
	// Faulted-run recovery metrics, the topology mirror of the shock columns:
	// fault event count, how many recovered to the target on the effective
	// (per-component) discrepancy, mean rounds-to-recover over those, and the
	// worst post-fault effective peak. Not omitempty for the same reason.
	Faults            int     `json:"faults"`
	FaultRecovered    int     `json:"fault_recovered"`
	MeanFaultRecovery float64 `json:"mean_fault_recovery_rounds"`
	PeakFaultDisc     int64   `json:"peak_fault_discrepancy"`
	Err               string  `json:"error,omitempty"`

	// recoverySum / faultRecoverySum are the exact integer rounds-to-recover
	// totals behind the mean columns, carried so aggregates don't re-derive
	// them from the rounded floats (unexported: not serialized).
	recoverySum      int
	faultRecoverySum int
}

// aggregate summarizes one (graph, algorithm) group over its workloads and
// schedules.
type aggregate struct {
	Graph     string  `json:"graph"`
	Algo      string  `json:"algo"`
	Specs     int     `json:"specs"`
	Errors    int     `json:"errors"`
	Gap       float64 `json:"gap"`
	MeanFinal float64 `json:"mean_final_discrepancy"`
	MinFinal  float64 `json:"min_final_discrepancy"`
	MaxFinal  float64 `json:"max_final_discrepancy"`
	P50Final  float64 `json:"p50_final_discrepancy"`
	MeanRound float64 `json:"mean_rounds"`
	// Shocks and recovery aggregate the dynamic runs of the group: total
	// injections, how many recovered to the target, and the mean
	// rounds-to-recover over those (0 is legitimate, so not omitempty).
	Shocks       int     `json:"shocks"`
	Recovered    int     `json:"recovered"`
	MeanRecovery float64 `json:"mean_recovery_rounds"`
	// Faults aggregate the faulted runs of the group the same way.
	Faults            int     `json:"faults"`
	FaultRecovered    int     `json:"fault_recovered"`
	MeanFaultRecovery float64 `json:"mean_fault_recovery_rounds"`
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("lbsweep", flag.ContinueOnError)
	graphsFlag := fs.String("graphs", "random:256,8,1;random:256,8,2", "semicolon-separated graph specs")
	algosFlag := fs.String("algos", "send-floor;rotor-router", "semicolon-separated algorithm specs")
	workloadsFlag := fs.String("workloads", "point:2048", "semicolon-separated workload specs")
	schedulesFlag := fs.String("schedules", "none", "semicolon-separated dynamic-workload schedule specs (none = static)")
	topologiesFlag := fs.String("topologies", "none", "semicolon-separated fault-injection topology specs (none = pristine)")
	target := fs.Int64("target", -1, "discrepancy target (-1 = none; ≥ 0 stops static runs and defines dynamic recovery)")
	rounds := fs.Int("rounds", 0, "round cap per run (0 = paper horizon T)")
	loops := fs.Int("loops", -1, "self-loops per node (-1 = d, the lazy default)")
	patience := fs.Int("patience", 0, "early-stop patience in rounds (0 = none)")
	sample := fs.Int("sample", 0, "record the discrepancy every k rounds (0 = off)")
	workers := fs.Int("workers", 0, "engine worker goroutines per run")
	sweepWorkers := fs.Int("sweep-workers", 0, "concurrent sweep groups (0 = GOMAXPROCS)")
	progress := fs.Bool("progress", false, "report sweep progress to stderr as specs finish")
	scenarioPath := fs.String("scenario", "", "load the sweep family from this scenario JSON file (spec-list and run flags are ignored)")
	emitPath := fs.String("emit-scenario", "", "write the resolved family as a scenario JSON file (re-runnable via -scenario)")
	presetName := fs.String("preset", "", "run a named preset family (see -list-presets)")
	listPresets := fs.Bool("list-presets", false, "list the preset catalog and exit")
	csvPath := fs.String("csv", "", "write per-spec rows to this CSV file")
	jsonPath := fs.String("json", "", "write rows + aggregates to this JSON file")
	seriesDir := fs.String("series", "", "write one JSONL trajectory per sampled spec into this directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *listPresets {
		for _, name := range scenario.PresetNames() {
			fmt.Fprintf(stdout, "%-24s %s\n", name, scenario.PresetDescription(name))
		}
		return 0
	}

	// Resolve the family: a scenario file or preset replaces the spec-list
	// and run flags entirely; otherwise the flags are parsed into the same
	// descriptor layer (one grammar, two front-ends).
	if *scenarioPath != "" && *presetName != "" {
		fmt.Fprintln(os.Stderr, "lbsweep: -scenario and -preset both describe the whole sweep; pass exactly one")
		return 2
	}
	var fam *scenario.Family
	var err error
	switch {
	case *scenarioPath != "":
		fam, err = scenario.LoadFile(*scenarioPath)
	case *presetName != "":
		fam, err = scenario.Preset(*presetName)
	default:
		fam, err = scenario.ParseFamily(*graphsFlag, *algosFlag, *workloadsFlag, *schedulesFlag, *topologiesFlag)
		if err == nil {
			fam.Run = scenario.RunParams{
				Rounds:      *rounds,
				Patience:    *patience,
				Workers:     *workers,
				SampleEvery: *sample,
			}
			if *target >= 0 {
				fam.Run.Target = target
			}
			if *loops >= 0 {
				for i := range fam.Graphs {
					fam.Graphs[i].SelfLoops = loops
				}
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbsweep:", err)
		return 2
	}
	if *scenarioPath != "" || *presetName != "" {
		// The scenario file or preset is the whole description: explicitly
		// set spec-list/run flags would silently vanish otherwise.
		scenario.WarnOverriddenFlags("lbsweep", fs,
			"graphs", "algos", "workloads", "schedules", "topologies",
			"target", "rounds", "loops", "patience", "sample", "workers")
	}

	specs, cells, err := fam.Bind()
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbsweep:", err)
		return 2
	}
	if len(specs) == 0 {
		fmt.Fprintln(os.Stderr, "lbsweep: empty sweep (no graphs, algorithms, or workloads)")
		return 2
	}
	if *emitPath != "" {
		if err := fam.WriteFile(*emitPath); err != nil {
			fmt.Fprintln(os.Stderr, "lbsweep:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote scenario to %s\n", *emitPath)
	}

	// Row labels are the canonical descriptor strings — defaults and seeds
	// materialized ("rand-extra" reports as "rand-extra:1") — so every label
	// identifies its run unambiguously and matches the emitted scenario.
	type meta struct{ graphName, algoSpec, workloadSpec, scheduleSpec, topologySpec string }
	metas := make([]meta, len(specs))
	for i := range specs {
		metas[i] = meta{
			graphName:    specs[i].Balancing.Name(),
			algoSpec:     cells[i].Algo.String(),
			workloadSpec: cells[i].Workload.String(),
			scheduleSpec: cells[i].Schedule.String(),
			topologySpec: cells[i].Topology.String(),
		}
	}

	opts := analysis.SweepOptions{Workers: *sweepWorkers}
	if *progress {
		opts.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rlbsweep: %d/%d specs", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	// First Ctrl-C cancels the sweep: finished specs keep their results,
	// unstarted ones report the cancellation through their Err, and the spec
	// in flight stops within one round. A second Ctrl-C kills the process
	// outright — the escape hatch must not be swallowed.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt)
	watcherDone := make(chan struct{})
	go func() {
		select {
		case <-sigc:
			cancel()
		case <-watcherDone:
			return
		}
		select {
		case <-sigc:
			os.Exit(130)
		case <-watcherDone:
		}
	}()
	// Wall-clock audit (detcheck wallclock is scoped to internal/, so this is
	// by convention, not the linter): elapsed feeds only the stderr summary
	// and writeJSON's top-level elapsed_seconds / runs_per_second telemetry.
	// It must never reach rows or aggregates — those are the deterministic
	// payload that reruns and CI diffs compare byte for byte.
	start := time.Now()
	results := analysis.SweepContext(ctx, specs, opts)
	elapsed := time.Since(start)
	// Restore default SIGINT handling for the output phase and release the
	// watcher (run is called repeatedly from tests; it must not leak it).
	signal.Stop(sigc)
	close(watcherDone)

	rows := make([]row, len(results))
	failures := 0
	for i, res := range results {
		m := metas[i]
		r := row{
			Graph:       m.graphName,
			Algo:        m.algoSpec,
			Workload:    m.workloadSpec,
			Schedule:    m.scheduleSpec,
			Topology:    m.topologySpec,
			Metric:      res.Metric,
			N:           specs[i].Balancing.N(),
			Degree:      specs[i].Balancing.Degree(),
			SelfLoops:   specs[i].Balancing.SelfLoops(),
			Gap:         res.Gap,
			T:           res.BalancingTime,
			Horizon:     res.Horizon,
			Rounds:      res.Rounds,
			InitialDisc: res.InitialDiscrepancy,
			FinalDisc:   res.FinalDiscrepancy,
			MinDisc:     res.MinDiscrepancy,
			TargetRound: res.TargetRound,
			Stopped:     res.StoppedEarly,
			Shocks:      len(res.Shocks),
			Faults:      len(res.Faults),
		}
		if r.Schedule == "none" {
			r.Schedule = ""
		}
		if r.Topology == "none" {
			r.Topology = ""
		}
		for _, s := range res.Shocks {
			if s.PeakDiscrepancy > r.PeakDisc {
				r.PeakDisc = s.PeakDiscrepancy
			}
			if s.RecoveryRounds >= 0 {
				r.Recovered++
				r.recoverySum += s.RecoveryRounds
			}
		}
		if r.Recovered > 0 {
			r.MeanRecovery = float64(r.recoverySum) / float64(r.Recovered)
		}
		for _, f := range res.Faults {
			if f.PeakDiscrepancy > r.PeakFaultDisc {
				r.PeakFaultDisc = f.PeakDiscrepancy
			}
			if f.RecoveryRounds >= 0 {
				r.FaultRecovered++
				r.faultRecoverySum += f.RecoveryRounds
			}
		}
		if r.FaultRecovered > 0 {
			r.MeanFaultRecovery = float64(r.faultRecoverySum) / float64(r.FaultRecovered)
		}
		if res.Err != nil {
			r.Err = res.Err.Error()
			failures++
		}
		rows[i] = r
	}
	aggs := aggregateRows(rows)

	tab := &analysis.Table{
		Title: fmt.Sprintf("sweep: %d specs in %v (%.1f runs/sec, %d failed)",
			len(specs), elapsed.Round(time.Millisecond), float64(len(specs))/elapsed.Seconds(), failures),
		Header: []string{"graph", "algo", "specs", "err", "µ", "final mean", "min", "max", "p50", "rounds mean", "shocks", "recov mean", "faults", "frecov mean"},
		Note:   "final columns aggregate the final discrepancy over the group's workloads; recov/frecov mean is rounds-to-target after a shock/fault",
	}
	for _, a := range aggs {
		recov := "-"
		if a.Recovered > 0 {
			recov = fmt.Sprintf("%.1f", a.MeanRecovery)
		}
		frecov := "-"
		if a.FaultRecovered > 0 {
			frecov = fmt.Sprintf("%.1f", a.MeanFaultRecovery)
		}
		tab.AddRow(a.Graph, a.Algo, strconv.Itoa(a.Specs), strconv.Itoa(a.Errors),
			fmt.Sprintf("%.4g", a.Gap), fmt.Sprintf("%.2f", a.MeanFinal),
			fmt.Sprintf("%.0f", a.MinFinal), fmt.Sprintf("%.0f", a.MaxFinal),
			fmt.Sprintf("%.1f", a.P50Final), fmt.Sprintf("%.1f", a.MeanRound),
			strconv.Itoa(a.Shocks), recov, strconv.Itoa(a.Faults), frecov)
	}
	fmt.Fprint(stdout, tab.String())

	if *csvPath != "" {
		if err := writeRowsCSV(*csvPath, rows); err != nil {
			fmt.Fprintln(os.Stderr, "lbsweep:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %d rows to %s\n", len(rows), *csvPath)
	}
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, rows, aggs, elapsed); err != nil {
			fmt.Fprintln(os.Stderr, "lbsweep:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", *jsonPath)
	}
	if *seriesDir != "" {
		n, err := writeSeries(*seriesDir, results)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lbsweep:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %d trajectory files to %s\n", n, *seriesDir)
	}
	if failures > 0 {
		return 1
	}
	return 0
}

// aggregateRows groups rows by (graph, algo) in first-seen order and
// summarizes the final discrepancies of the group's non-failed specs.
func aggregateRows(rows []row) []aggregate {
	type key struct{ graph, algo string }
	idx := map[key]int{}
	var aggs []aggregate
	finals := map[key][]float64{}
	roundsSum := map[key]int{}
	recoverySum := map[key]int{}
	faultRecoverySum := map[key]int{}
	for _, r := range rows {
		k := key{r.Graph, r.Algo}
		if _, ok := idx[k]; !ok {
			idx[k] = len(aggs)
			aggs = append(aggs, aggregate{Graph: r.Graph, Algo: r.Algo, Gap: r.Gap})
		}
		a := &aggs[idx[k]]
		a.Specs++
		if r.Err != "" {
			a.Errors++
			continue
		}
		finals[k] = append(finals[k], float64(r.FinalDisc))
		roundsSum[k] += r.Rounds
		a.Shocks += r.Shocks
		a.Recovered += r.Recovered
		recoverySum[k] += r.recoverySum
		a.Faults += r.Faults
		a.FaultRecovered += r.FaultRecovered
		faultRecoverySum[k] += r.faultRecoverySum
	}
	for k, i := range idx {
		a := &aggs[i]
		fs := finals[k]
		if len(fs) == 0 {
			continue
		}
		a.MeanFinal = stats.Mean(fs)
		a.MinFinal = stats.Min(fs)
		a.MaxFinal = stats.Max(fs)
		a.P50Final = stats.Quantile(fs, 0.5)
		a.MeanRound = float64(roundsSum[k]) / float64(len(fs))
		if a.Recovered > 0 {
			a.MeanRecovery = float64(recoverySum[k]) / float64(a.Recovered)
		}
		if a.FaultRecovered > 0 {
			a.MeanFaultRecovery = float64(faultRecoverySum[k]) / float64(a.FaultRecovered)
		}
	}
	return aggs
}

func writeRowsCSV(path string, rows []row) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write([]string{
		"graph", "algo", "workload", "schedule", "topology", "metric", "n", "d", "self_loops", "gap", "T",
		"horizon", "rounds", "initial_disc", "final_disc", "min_disc", "target_round",
		"stopped_early", "shocks", "recovered", "mean_recovery_rounds", "peak_shock_discrepancy",
		"faults", "fault_recovered", "mean_fault_recovery_rounds", "peak_fault_discrepancy", "error",
	}); err != nil {
		return err
	}
	for _, r := range rows {
		if err := w.Write([]string{
			r.Graph, r.Algo, r.Workload, r.Schedule, r.Topology, r.Metric, strconv.Itoa(r.N), strconv.Itoa(r.Degree),
			strconv.Itoa(r.SelfLoops), strconv.FormatFloat(r.Gap, 'g', -1, 64),
			strconv.Itoa(r.T), strconv.Itoa(r.Horizon), strconv.Itoa(r.Rounds),
			strconv.FormatInt(r.InitialDisc, 10), strconv.FormatInt(r.FinalDisc, 10),
			strconv.FormatInt(r.MinDisc, 10), strconv.Itoa(r.TargetRound),
			strconv.FormatBool(r.Stopped), strconv.Itoa(r.Shocks), strconv.Itoa(r.Recovered),
			strconv.FormatFloat(r.MeanRecovery, 'g', -1, 64), strconv.FormatInt(r.PeakDisc, 10),
			strconv.Itoa(r.Faults), strconv.Itoa(r.FaultRecovered),
			strconv.FormatFloat(r.MeanFaultRecovery, 'g', -1, 64), strconv.FormatInt(r.PeakFaultDisc, 10), r.Err,
		}); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}

// writeJSON writes the machine-readable sweep document. The top-level
// elapsed_seconds and runs_per_second fields are wall-clock CLI telemetry
// and vary run to run by design; rows and aggregates are pure functions of
// the specs and seeds. Anything comparing sweep output across runs must
// diff rows/aggregates only.
func writeJSON(path string, rows []row, aggs []aggregate, elapsed time.Duration) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		ElapsedSeconds float64     `json:"elapsed_seconds"`
		RunsPerSecond  float64     `json:"runs_per_second"`
		Rows           []row       `json:"rows"`
		Aggregates     []aggregate `json:"aggregates"`
	}{
		ElapsedSeconds: elapsed.Seconds(),
		RunsPerSecond:  float64(len(rows)) / elapsed.Seconds(),
		Rows:           rows,
		Aggregates:     aggs,
	})
}

// writeSeries exports every sampled trajectory as trace JSONL, one file per
// spec index (sweep-0007.jsonl, …).
func writeSeries(dir string, results []analysis.RunResult) (int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	written := 0
	for i, res := range results {
		if len(res.Series) == 0 {
			continue
		}
		samples := make([]trace.Sample, len(res.Series))
		for j, p := range res.Series {
			samples[j] = p.Sample()
		}
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("sweep-%04d.jsonl", i)))
		if err != nil {
			return written, err
		}
		if err := trace.WriteSamplesJSONL(f, samples); err != nil {
			f.Close()
			return written, err
		}
		if err := f.Close(); err != nil {
			return written, err
		}
		written++
	}
	return written, nil
}

package scenario

import (
	"flag"
	"fmt"
	"os"
	"sort"
)

// The preset catalog: named, versioned experiment families covering the
// paper's main comparison axes. Each preset is defined in the text grammar
// itself, so every preset is exactly equivalent to a flag invocation of
// lbsweep and the golden-file tests can pin that equivalence.

type presetDef struct {
	name        string
	description string
	graphs      string
	algos       string
	workloads   string
	schedules   string
	topologies  string
	run         RunParams
}

var presetDefs = []presetDef{
	{
		name: "expander-headline",
		description: "the paper's headline improvement: cumulatively fair balancers " +
			"(send-floor, rotor-router) vs the biased in-class baseline on random " +
			"8-regular expanders of growing size — fair columns stay O(sqrt(log n)), " +
			"biased grows with log n",
		graphs:    "random:128,8,1;random:256,8,1;random:512,8,1",
		algos:     "send-floor;rotor-router;biased",
		workloads: "point",
		run:       RunParams{Patience: 2048},
	},
	{
		name: "rotor-vs-quasirandom",
		description: "deterministic rotor-router variants against the quasirandom " +
			"bounded-error diffusion of [9] and the randomized baselines of [5]/[18], " +
			"across a cycle, a hypercube, and an expander",
		graphs:    "cycle:64;hypercube:6;random:128,8,1",
		algos:     "rotor-router;rotor-router*;bounded-error;rand-extra:1;rand-round:1",
		workloads: "point:1024",
		run:       RunParams{Patience: 1024},
	},
	{
		name: "shock-recovery",
		description: "the self-stabilization suite: static baseline vs one-shot burst " +
			"vs composed burst+adversarial-refill shocks, measuring per-shock " +
			"recovery to a discrepancy target of 16",
		graphs:    "random:64,8,1;hypercube:5",
		algos:     "rotor-router;send-floor",
		workloads: "point:2048",
		schedules: "none;burst:20,0,4096;burst:10,5,1024+refill:60,2048,0",
		run:       RunParams{Rounds: 120, Target: targetPtr(16), SampleEvery: 25},
	},
	{
		name: "majority-vs-rotor",
		description: "one signed opinion vector (40 strong-positive vs 24 strong-negative " +
			"agents), two dynamics: the 4-state exact-majority population protocol racing " +
			"rotor-router diffusion on the same expander, each to its own convergence " +
			"metric's target of 2",
		graphs:    "random:64,8,1",
		algos:     "rotor-router;majority:1",
		workloads: "opinions:40",
		run:       RunParams{Rounds: 400, Target: targetPtr(2), SampleEvery: 20},
	},
	{
		name: "link-failure-recovery",
		description: "the robustness suite: pristine baseline vs a steady trickle of " +
			"transient link faults vs a mid-run partition that heals, measuring " +
			"per-fault recovery to a discrepancy target of 16 on an expander and " +
			"a hypercube",
		graphs:     "random:64,8,1;hypercube:5",
		algos:      "rotor-router;send-floor",
		workloads:  "point:2048",
		topologies: "none;periodic-fault:15,5,1;partition:30,16,70",
		run:        RunParams{Rounds: 140, Target: targetPtr(16), SampleEvery: 25},
	},
}

func targetPtr(d int64) *int64 { return &d }

// PresetNames lists the preset catalog in sorted order.
func PresetNames() []string {
	names := make([]string, len(presetDefs))
	for i, p := range presetDefs {
		names[i] = p.name
	}
	sort.Strings(names)
	return names
}

// PresetDescription returns the one-line description of a preset, or "".
func PresetDescription(name string) string {
	for _, p := range presetDefs {
		if p.name == name {
			return p.description
		}
	}
	return ""
}

// Preset builds a named preset family. The returned family is freshly
// constructed on every call: callers may mutate it freely.
func Preset(name string) (*Family, error) {
	for _, p := range presetDefs {
		if p.name != name {
			continue
		}
		f, err := ParseFamily(p.graphs, p.algos, p.workloads, p.schedules, p.topologies)
		if err != nil {
			// Presets are package constants; a parse failure is a bug.
			panic(fmt.Sprintf("scenario: preset %q does not parse: %v", name, err))
		}
		f.Name = p.name
		f.Run = p.run
		if p.run.Target != nil {
			t := *p.run.Target
			f.Run.Target = &t
		}
		return f, nil
	}
	return nil, fmt.Errorf("scenario: unknown preset %q (have %v)", name, PresetNames())
}

// WarnOverriddenFlags reports explicitly-set flags that a scenario file or
// preset overrides — shared by the harness CLIs (lbsim, lbsweep) so both
// warn identically: the description in the file wins, and a silently
// vanishing -rounds would look like a harness bug.
func WarnOverriddenFlags(prog string, fs *flag.FlagSet, overridden ...string) {
	names := map[string]bool{}
	for _, name := range overridden {
		names[name] = true
	}
	fs.Visit(func(f *flag.Flag) {
		if names[f.Name] {
			fmt.Fprintf(os.Stderr, "%s: -%s is ignored when the run comes from a scenario file or preset\n", prog, f.Name)
		}
	})
}

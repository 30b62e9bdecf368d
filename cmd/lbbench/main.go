// Command lbbench regenerates every experiment of the reproduction
// (analysis.AllExperiments: E1–E10 plus the matching-model extension) and
// prints the result tables.
//
// Usage:
//
//	lbbench [-quick] [-workers n] [-seed s] [-only E3]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"detlb/internal/analysis"
	"detlb/internal/scenario"
)

func main() {
	os.Exit(run())
}

func run() int {
	config := scenario.ExperimentFlags(flag.CommandLine)
	only := flag.String("only", "", "run a single experiment id (E1..E11, EXT, EXT2, ABL1, ABL2)")
	flag.Parse()

	cfg := config()

	type exp struct {
		id  string
		run func(analysis.Config) *analysis.Table
	}
	exps := []exp{
		{"E1", analysis.Table1},
		{"E2", analysis.Thm23Expander},
		{"E3", analysis.Thm23Cycle},
		{"E4", analysis.Thm33GoodS},
		{"E5", analysis.Thm41},
		{"E6", analysis.Thm42},
		{"E7", analysis.Thm43},
		{"E8", analysis.FairnessAudit},
		{"E9", analysis.PotentialDrop},
		{"E10", analysis.ExpanderHeadline},
		{"E11", analysis.PhaseExperiment},
		{"EXT", analysis.MatchingModel},
		{"EXT2", analysis.IrregularExperiment},
		{"EXT3", analysis.WeightedExperiment},
		{"ABL1", analysis.AblationSelfLoops},
		{"ABL2", analysis.AblationRotorOrder},
	}
	matched := false
	for _, e := range exps {
		if *only != "" && !strings.EqualFold(*only, e.id) {
			continue
		}
		matched = true
		e.run(cfg).Render(os.Stdout)
	}
	if !matched {
		fmt.Fprintf(os.Stderr, "lbbench: unknown experiment %q\n", *only)
		return 2
	}
	return 0
}

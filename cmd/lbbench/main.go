// Command lbbench regenerates the experiment suite of the reproduction
// (analysis.Experiments: Table 1 as E1, the per-theorem experiments
// E2–E11, the EXT extensions and the ABL ablations) and prints it as text
// tables or, with -format md, as one Markdown report.
//
// Usage:
//
//	lbbench [-quick] [-workers n] [-seed s] [-only E3] [-format text|md] > out
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"detlb/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	exps := analysis.Experiments()
	ids := make([]string, len(exps))
	for i, e := range exps {
		ids[i] = e.ID
	}
	fs := flag.NewFlagSet("lbbench", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "use small instances (CI-sized)")
	workers := fs.Int("workers", 0, "engine worker goroutines (0 = serial)")
	seed := fs.Int64("seed", 1, "seed for randomized components")
	only := fs.String("only", "", "run a single experiment id ("+strings.Join(ids, ", ")+")")
	format := fs.String("format", "text", "output format: text tables or one md (Markdown) report")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *format != "text" && *format != "md" {
		fmt.Fprintf(os.Stderr, "lbbench: unknown format %q (have text, md)\n", *format)
		return 2
	}
	if *only != "" {
		exps = slices.DeleteFunc(exps, func(e analysis.Experiment) bool {
			return !strings.EqualFold(*only, e.ID)
		})
		if len(exps) == 0 {
			fmt.Fprintf(os.Stderr, "lbbench: unknown experiment %q\n", *only)
			return 2
		}
	}

	cfg := analysis.Config{Quick: *quick, Workers: *workers, Seed: *seed}
	if *format == "text" {
		for _, e := range exps {
			e.Run(cfg).Render(stdout)
		}
		return 0
	}
	tabs := make([]*analysis.Table, len(exps))
	for i, e := range exps {
		tabs[i] = e.Run(cfg)
	}
	title := "detlb experiment report (full size)"
	if cfg.Quick {
		title = "detlb experiment report (quick size)"
	}
	if err := analysis.WriteReport(stdout, title, tabs); err != nil {
		fmt.Fprintln(os.Stderr, "lbbench:", err)
		return 1
	}
	return 0
}

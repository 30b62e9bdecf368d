// Command lbreport regenerates the complete experiment suite and writes it
// as a single Markdown report — the cmd/lbbench tables in Markdown form.
//
// Usage:
//
//	lbreport [-quick] [-workers n] [-seed s] [-o report.md]
package main

import (
	"flag"
	"fmt"
	"os"

	"detlb/internal/analysis"
	"detlb/internal/scenario"
)

func main() {
	os.Exit(run())
}

func run() int {
	config := scenario.ExperimentFlags(flag.CommandLine)
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	cfg := config()
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lbreport:", err)
			return 1
		}
		defer f.Close()
		w = f
	}
	title := "detlb experiment report (full size)"
	if cfg.Quick {
		title = "detlb experiment report (quick size)"
	}
	if err := analysis.WriteReport(w, title, analysis.AllExperiments(cfg)); err != nil {
		fmt.Fprintln(os.Stderr, "lbreport:", err)
		return 1
	}
	return 0
}

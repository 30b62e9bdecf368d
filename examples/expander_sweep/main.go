// Expander sweep: the paper's headline improvement, as a user program.
//
// On good expanders the Rabani-Sinclair-Wanka framework guarantees only
// Θ(log n) discrepancy after T rounds, while cumulatively fair balancers
// achieve O(sqrt(log n)) (Theorem 2.3(i)). This program sweeps random
// d-regular graphs, runs a fair balancer and the biased in-class baseline to
// the paper's horizon, and prints both against the two theoretical scales.
//
// With -sweep the whole n × algorithm grid is built as one spec list and
// executed by the concurrent sweep harness (detlb.Sweep): the spectral gap
// is computed once per graph, and the per-spec results are bit-identical to
// the serial loop the default mode runs.
//
// The grid itself is declared through the scenario layer: each cell is a
// pure-data detlb.Scenario (graph family + algorithm + workload descriptors)
// and detlb.BindScenarios wires the live specs, sharing one balancing graph
// per size and one algorithm instance per (size, algorithm) pair — the same
// description that could be saved to, or loaded from, a scenario JSON file.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"detlb"
)

const d = 8

var sizes = []int{128, 256, 512, 1024}

var algos = []string{"send-floor", "rotor-router", "biased"}

func main() {
	useSweep := flag.Bool("sweep", false, "run the grid through the concurrent sweep harness")
	flag.Parse()

	var cells []detlb.Scenario
	for _, n := range sizes {
		for _, algo := range algos {
			cells = append(cells, detlb.Scenario{
				Graph:    detlb.GraphSpec{Kind: "random", Args: []int64{int64(n), d, 1}},
				Algo:     detlb.AlgoSpec{Kind: algo},
				Workload: detlb.WorkloadSpec{Kind: "point", Args: []int64{int64(4*n) + 7}},
				Run:      detlb.RunParams{Patience: 16 * n},
			})
		}
	}
	specs, err := detlb.BindScenarios(cells)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bind failed:", err)
		os.Exit(1)
	}

	start := time.Now()
	var results []detlb.RunResult
	if *useSweep {
		results = detlb.Sweep(specs, detlb.SweepOptions{})
	} else {
		results = make([]detlb.RunResult, len(specs))
		for i, spec := range specs {
			results[i] = detlb.Run(spec)
		}
	}
	elapsed := time.Since(start)

	fmt.Println("n      µ       T     fair(send-floor)  rotor  biased  sqrt(ln n)  ln n")
	for i, n := range sizes {
		fair, rotor, biased := results[3*i], results[3*i+1], results[3*i+2]
		if fair.Err != nil || rotor.Err != nil || biased.Err != nil {
			fmt.Fprintln(os.Stderr, "run failed:", fair.Err, rotor.Err, biased.Err)
			os.Exit(1)
		}
		fmt.Printf("%-6d %.4f  %-5d %-17d %-6d %-7d %-11.2f %.2f\n",
			n, fair.Gap, fair.BalancingTime,
			fair.MinDiscrepancy, rotor.MinDiscrepancy, biased.MinDiscrepancy,
			math.Sqrt(math.Log(float64(n))), math.Log(float64(n)))
	}
	mode := "serial loop"
	if *useSweep {
		mode = "concurrent sweep"
	}
	fmt.Printf("\n%d runs in %v (%s)\n", len(specs), elapsed.Round(time.Millisecond), mode)
	fmt.Println("expected shape: fair/rotor columns stay near-constant (sqrt scale is tiny),")
	fmt.Println("biased column stays above them and grows with n (log-scale behaviour).")
}

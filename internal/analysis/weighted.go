package analysis

import (
	"fmt"
	"math/rand"

	"detlb/internal/graph"
	"detlb/internal/weighted"
)

// WeightedExperiment (EXT3) exercises the non-uniform-token extension the
// related work attributes to [4]: with unit weights the weighted rotor
// matches the unweighted O(d) discrepancy; with a weight mix the residual
// discrepancy scales with d·w_max, the extra price of weight indivisibility.
func WeightedExperiment(cfg Config) *Table {
	var b *graph.Balancing
	if cfg.Quick {
		b = graph.Lazy(graph.Hypercube(5))
	} else {
		b = graph.Lazy(graph.Hypercube(7))
	}
	n := b.N()
	rounds := 3000
	t := &Table{
		Title:  "EXT3: non-uniform tokens — weighted rotor-router discrepancy vs d·w_max",
		Header: []string{"weights", "w_max", "tokens", "rounds", "weight disc", "disc/(d·w_max)"},
		Note:   "unit weights reproduce the unweighted O(d) regime; mixes pay a w_max factor",
	}
	type mix struct {
		name string
		gen  func(i int, rng *rand.Rand) int64
		wmax int64
	}
	mixes := []mix{
		{"unit", func(int, *rand.Rand) int64 { return 1 }, 1},
		{"uniform 1..8", func(_ int, rng *rand.Rand) int64 { return 1 + rng.Int63n(8) }, 8},
		{"bimodal {1,32}", func(i int, rng *rand.Rand) int64 {
			if rng.Intn(8) == 0 {
				return 32
			}
			return 1
		}, 32},
	}
	for _, m := range mixes {
		rng := rand.New(rand.NewSource(cfg.Seed))
		count := 20 * n
		weights := make([]int64, count)
		for i := range weights {
			weights[i] = m.gen(i, rng)
		}
		mb, err := weighted.NewBuilder(b, weighted.RotorDealer{}, weighted.SpreadTokens(n, 0, weights))
		res := RunResult{Err: err}
		if err == nil {
			res = Run(RunSpec{Balancing: b, Model: mb, Initial: mb.Initial(), MaxRounds: rounds})
		}
		if res.Err != nil {
			t.AddRow(m.name, "-", "-", "-", "ERR: "+res.Err.Error(), "-")
			continue
		}
		t.AddRow(m.name, i64toa(m.wmax), itoa(count), itoa(rounds), i64toa(res.FinalDiscrepancy),
			fmt.Sprintf("%.2f", float64(res.FinalDiscrepancy)/float64(int64(b.Degree())*m.wmax)))
	}
	return t
}

package detlb_test

// Determinism regression tests for the engine's bit-identical-to-serial
// contract: the load trajectory of any run must be a pure function of
// (graph, balancer, initial vector), independent of the worker count, the
// chunk partition, and the distribute fast path taken. These tests pin the
// contract the chunked wide round, its helper goroutines, and the
// compressed bulk distributors all rely on.

import (
	"fmt"
	"runtime"
	"testing"

	"detlb"
)

// runTrajectory executes rounds and records every intermediate load vector.
func runTrajectory(t *testing.T, eng *detlb.Engine, rounds int) [][]int64 {
	t.Helper()
	traj := make([][]int64, 0, rounds)
	for r := 0; r < rounds; r++ {
		if err := eng.Step(); err != nil {
			t.Fatalf("round %d: %v", r+1, err)
		}
		traj = append(traj, append([]int64(nil), eng.Loads()...))
	}
	return traj
}

func compareTrajectories(t *testing.T, name string, want, got [][]int64) {
	t.Helper()
	for r := range want {
		for u := range want[r] {
			if want[r][u] != got[r][u] {
				t.Fatalf("%s: round %d node %d: load %d, want %d (first divergence)",
					name, r+1, u, got[r][u], want[r][u])
			}
		}
	}
}

// maskAlgos are the bulk-path schemes that set extra-token mask bits, so
// they exercise the engine's mask decoding; good-s takes s = min(4, d°).
func maskAlgos(b *detlb.Balancing) []namedAlgo {
	s := min(4, b.SelfLoops())
	return []namedAlgo{
		{"rotor-router", func() detlb.Balancer { return detlb.NewRotorRouter() }},
		{"biased-rounding", func() detlb.Balancer { return detlb.NewBiasedRounding() }},
		{fmt.Sprintf("good-%d", s), func() detlb.Balancer { return detlb.NewGoodS(s) }},
	}
}

type namedAlgo struct {
	name string
	make func() detlb.Balancer
}

// determinismCase is one balancing graph and the schemes run on it.
type determinismCase struct {
	name  string
	b     *detlb.Balancing
	algos []namedAlgo
}

// wideDegreeCases covers degrees that cross the mask decoder's 8-arc rows:
// one full row plus a tail (d = 9, 12), two rows plus a tail (d = 17), and
// d = 63 with one self-loop, so d⁺ = 64 — the largest mask the rotor-router's
// bulk path accepts. Every graph has an even number of arcs.
func wideDegreeCases() []determinismCase {
	var cases []determinismCase
	for _, g := range []*detlb.Graph{
		detlb.RandomRegular(64, 9, 5),
		detlb.RandomRegular(64, 12, 5),
		detlb.RandomRegular(64, 17, 5),
	} {
		b := detlb.Lazy(g)
		cases = append(cases, determinismCase{g.Name(), b, maskAlgos(b)})
	}
	g := detlb.RandomRegular(80, 63, 5)
	b := detlb.WithLoops(g, 1)
	return append(cases, determinismCase{g.Name() + "+1loop", b, maskAlgos(b)})
}

// TestDeterminismAcrossWorkers asserts load vectors are bit-identical across
// WithWorkers(0/1/2/8) over 120 rounds: rotor-router and SEND(⌊x/d⁺⌋) on an
// expander and a cycle, and the mask-decoding schemes on the wide-degree
// cases. GOMAXPROCS is raised so the worker pool actually engages even on
// single-CPU machines (the engine clamps pool width to GOMAXPROCS).
func TestDeterminismAcrossWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))

	const rounds = 120
	algos := []namedAlgo{
		{"rotor-router", func() detlb.Balancer { return detlb.NewRotorRouter() }},
		{"send-floor", func() detlb.Balancer { return detlb.NewSendFloor() }},
	}
	var cases []determinismCase
	for _, g := range []*detlb.Graph{detlb.RandomRegular(128, 8, 3), detlb.Cycle(97)} {
		cases = append(cases, determinismCase{g.Name(), detlb.Lazy(g), algos})
	}
	cases = append(cases, wideDegreeCases()...)

	for _, c := range cases {
		for _, algo := range c.algos {
			t.Run(fmt.Sprintf("%s/%s", c.name, algo.name), func(t *testing.T) {
				n := c.b.N()
				x1 := detlb.PointMass(n, 0, int64(31*n)+11)

				ref := runTrajectory(t, detlb.MustEngine(c.b, algo.make(), x1, detlb.WithWorkers(0)), rounds)
				for _, workers := range []int{1, 2, 8} {
					eng := detlb.MustEngine(c.b, algo.make(), x1, detlb.WithWorkers(workers))
					got := runTrajectory(t, eng, rounds)
					compareTrajectories(t, fmt.Sprintf("workers=%d", workers), ref, got)
					eng.Close()
				}
			})
		}
	}
}

// TestDeterminismAcrossDistributePaths asserts the compressed bulk fast path
// and the per-node NodeBalancer path produce identical trajectories.
// Attaching an auditor that requires per-self-loop assignments forces the
// engine onto the per-node path, so the two engines below exercise the two
// distribute implementations of the same algorithm: rotor-router on a d = 8
// expander, and the mask-decoding schemes on the wide-degree cases.
func TestDeterminismAcrossDistributePaths(t *testing.T) {
	const rounds = 120
	g := detlb.RandomRegular(96, 8, 7)
	cases := append([]determinismCase{{g.Name(), detlb.Lazy(g), []namedAlgo{
		{"rotor-router", func() detlb.Balancer { return detlb.NewRotorRouter() }},
	}}}, wideDegreeCases()...)

	for _, c := range cases {
		for _, algo := range c.algos {
			n := c.b.N()
			x1 := detlb.PointMass(n, 0, int64(17*n)+5)
			eng := detlb.MustEngine(c.b, algo.make(), x1)
			if algo.name == "rotor-router" && !eng.Recurrent() {
				t.Fatalf("%s/%s: the engine did not take the bulk path", c.name, algo.name)
			}
			bulk := runTrajectory(t, eng, rounds)
			perNode := runTrajectory(t,
				detlb.MustEngine(c.b, algo.make(), x1, detlb.WithAuditor(detlb.NewRoundFairAuditor())), rounds)
			compareTrajectories(t, fmt.Sprintf("%s/%s: per-node vs bulk", c.name, algo.name), bulk, perNode)
		}
	}
}

package detlb_test

// Determinism regression tests for the engine's bit-identical-to-serial
// contract: the load trajectory of any run must be a pure function of
// (graph, balancer, initial vector), independent of the worker count, the
// chunk partition, and the distribute fast path taken. These tests pin the
// contract the parallel apply phase, the persistent worker pool, and the
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

// TestDeterminismAcrossWorkers asserts load vectors are bit-identical across
// WithWorkers(0/1/2/8) for rotor-router and SEND(⌊x/d⁺⌋) over 120 rounds on
// an expander and a cycle. GOMAXPROCS is raised so the worker pool actually
// engages even on single-CPU machines (the engine clamps pool width to
// GOMAXPROCS).
func TestDeterminismAcrossWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))

	const rounds = 120
	graphs := []*detlb.Graph{
		detlb.RandomRegular(128, 8, 3),
		detlb.Cycle(97),
	}
	algos := []struct {
		name string
		make func() detlb.Balancer
	}{
		{"rotor-router", func() detlb.Balancer { return detlb.NewRotorRouter() }},
		{"send-floor", func() detlb.Balancer { return detlb.NewSendFloor() }},
	}

	for _, g := range graphs {
		for _, algo := range algos {
			t.Run(fmt.Sprintf("%s/%s", g.Name(), algo.name), func(t *testing.T) {
				bg := detlb.Lazy(g)
				x1 := detlb.PointMass(g.N(), 0, int64(31*g.N())+11)

				ref := runTrajectory(t, detlb.MustEngine(bg, algo.make(), x1, detlb.WithWorkers(0)), rounds)
				for _, workers := range []int{1, 2, 8} {
					eng := detlb.MustEngine(bg, algo.make(), x1, detlb.WithWorkers(workers))
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
// distribute implementations of the same algorithm.
func TestDeterminismAcrossDistributePaths(t *testing.T) {
	const rounds = 120
	g := detlb.RandomRegular(96, 8, 7)
	bg := detlb.Lazy(g)
	x1 := detlb.PointMass(g.N(), 0, int64(17*g.N())+5)

	bulk := runTrajectory(t, detlb.MustEngine(bg, detlb.NewRotorRouter(), x1), rounds)
	perNode := runTrajectory(t,
		detlb.MustEngine(bg, detlb.NewRotorRouter(), x1, detlb.WithAuditor(detlb.NewRoundFairAuditor())), rounds)
	compareTrajectories(t, "per-node vs bulk", bulk, perNode)
}

package analysis

import (
	"context"
	"fmt"
	"math"

	"detlb/internal/core"
	"detlb/internal/graph"
)

// ConvergenceProfile summarizes how fast a run drives the discrepancy down:
// the first round at which the discrepancy falls to K/2, K/4, …, and to an
// absolute target. It is the empirical counterpart of the T = O(log(Kn)/µ)
// horizon: halving times should be roughly uniform (geometric decay).
type ConvergenceProfile struct {
	// K is the initial discrepancy.
	K int64
	// HalvingRounds[i] is the first round with discrepancy ≤ K/2^(i+1).
	HalvingRounds []int
	// TargetRound is the first round with discrepancy ≤ Target, or -1.
	Target      int64
	TargetRound int
	// Final is the discrepancy when the run stopped.
	Final int64
	// Rounds is the total rounds executed.
	Rounds int
}

// Converge runs algo on b from x1 for at most maxRounds, recording halving
// times down to the given absolute target. It reads the discrepancy the
// round loop streams, so a run that enters a cycle replays it.
func Converge(b *graph.Balancing, algo core.Balancer, x1 []int64, target int64, maxRounds int) (*ConvergenceProfile, error) {
	if maxRounds <= 0 {
		return nil, fmt.Errorf("analysis: maxRounds must be positive, got %d", maxRounds)
	}
	k := core.Discrepancy(x1)
	p := &ConvergenceProfile{K: k, Target: target, TargetRound: -1}
	next := k / 2
	var res RunResult
	spec := RunSpec{Balancing: b, Algorithm: algo, Initial: x1, MaxRounds: maxRounds}
	for round, s := range StreamInto(context.Background(), spec, &res) {
		if round == 0 {
			continue
		}
		for next > 0 && s.Discrepancy <= next && next >= target {
			p.HalvingRounds = append(p.HalvingRounds, round)
			next /= 2
		}
		p.Final, p.Rounds = s.Discrepancy, round
		if s.Discrepancy <= target {
			p.TargetRound = round
			break
		}
	}
	if res.Err != nil {
		return nil, res.Err
	}
	return p, nil
}

// WindowDeviation empirically evaluates the quantity bounded by Equation (7)
// in the proof of Theorem 2.3 (and by Lemma 3.4): after a warm-up of "start"
// rounds, it measures
//
//	max_u | (1/T̂)·Σ_{t ∈ window} x_t(u) − x̄ |
//
// — the deviation of every node's time-averaged load from the true average
// x̄ over a window of length T̂. The paper proves this is O((δ+1)·d) once
// start ≥ 16·log(Kn)/µ and T̂ = Θ(d·log n/µ).
func WindowDeviation(b *graph.Balancing, algo core.Balancer, x1 []int64, start, window int) (float64, error) {
	if window <= 0 {
		return 0, fmt.Errorf("analysis: window must be positive, got %d", window)
	}
	eng, err := core.NewEngine(b, algo, x1)
	if err != nil {
		return 0, err
	}
	for t := 0; t < start; t++ {
		if err := eng.Step(); err != nil {
			return 0, fmt.Errorf("analysis: warm-up: %w", err)
		}
	}
	n := b.N()
	sums := make([]int64, n)
	for t := 0; t < window; t++ {
		if err := eng.Step(); err != nil {
			return 0, fmt.Errorf("analysis: window: %w", err)
		}
		for u, v := range eng.Loads() {
			sums[u] += v
		}
	}
	var total int64
	for _, v := range x1 {
		total += v
	}
	xbar := float64(total) / float64(n)
	worst := 0.0
	for _, s := range sums {
		dev := math.Abs(float64(s)/float64(window) - xbar)
		if dev > worst {
			worst = dev
		}
	}
	return worst, nil
}

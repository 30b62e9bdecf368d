package analysis

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"detlb/internal/balancer"
	"detlb/internal/core"
	"detlb/internal/graph"
	"detlb/internal/workload"
)

// dynamicSpec is the canonical shocked run of the acceptance criteria: a
// burst at round 20 on an expander, with a refill adversary later, measured
// against a discrepancy target.
func dynamicSpec(workers int) RunSpec {
	b := graph.Lazy(graph.RandomRegular(128, 8, 7))
	return RunSpec{
		Balancing: b,
		Algorithm: balancer.NewRotorRouter(),
		Initial:   workload.PointMass(128, 0, 4096),
		MaxRounds: 140,
		Workers:   workers,
		Events: workload.Compose{
			workload.Burst{Round: 20, Node: 64, Amount: 4096},
			workload.Refill{Round: 80, Amount: 2048},
		},
		TargetDiscrepancy: Target(16),
		SampleEvery:       10,
	}
}

// TestDynamicRunRecoveryMetrics checks the per-shock bookkeeping end to end.
func TestDynamicRunRecoveryMetrics(t *testing.T) {
	res := Run(dynamicSpec(0))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.Shocks) != 2 {
		t.Fatalf("expected 2 shocks, got %+v", res.Shocks)
	}
	first, second := res.Shocks[0], res.Shocks[1]
	if first.Round != 20 || first.Added != 4096 || first.Removed != 0 {
		t.Fatalf("first shock = %+v", first)
	}
	if second.Round != 80 || second.Added != 2048 {
		t.Fatalf("second shock = %+v", second)
	}
	for i, s := range res.Shocks {
		if s.Discrepancy <= 16 {
			t.Fatalf("shock %d should have broken the target: %+v", i, s)
		}
		if s.PeakDiscrepancy < s.Discrepancy {
			t.Fatalf("shock %d peak below injection discrepancy: %+v", i, s)
		}
		if s.RecoveryRound < 0 {
			t.Fatalf("shock %d never recovered within the horizon: %+v", i, s)
		}
		if s.RecoveryRounds != s.RecoveryRound-s.Round {
			t.Fatalf("shock %d recovery arithmetic: %+v", i, s)
		}
		if s.RecoveryRounds <= 0 {
			t.Fatalf("shock %d recovered instantly despite breaking the target: %+v", i, s)
		}
	}
	// A dynamic run keeps going to its horizon; the target defines recovery,
	// not termination.
	if res.Rounds != 140 {
		t.Fatalf("dynamic run stopped early: %d rounds", res.Rounds)
	}
	if !res.ReachedTarget || res.TargetRound <= 0 || res.TargetRound > 20 {
		t.Fatalf("TargetRound should record the first (pre-shock) reach: %+v", res.TargetRound)
	}
	// Shock markers: one marked sample per injection, regardless of interval.
	marks := 0
	for _, p := range res.Series {
		if p.Shock {
			marks++
			if p.Round != 20 && p.Round != 80 {
				t.Fatalf("marker at unexpected round %d", p.Round)
			}
			if p.Injected == 0 || p.Discrepancy == 0 {
				t.Fatalf("marker incomplete: %+v", p)
			}
		}
	}
	if marks != 2 {
		t.Fatalf("expected 2 shock markers, got %d", marks)
	}
}

// TestDynamicRunDeterministicAcrossWorkers is the acceptance criterion: a
// shocked run is bit-identical at worker counts 0/1/2/8.
func TestDynamicRunDeterministicAcrossWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	ref := Run(dynamicSpec(0))
	if ref.Err != nil {
		t.Fatal(ref.Err)
	}
	for _, w := range []int{1, 2, 8} {
		got := Run(dynamicSpec(w))
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("workers=%d: dynamic run diverged:\n got %+v\nwant %+v", w, got, ref)
		}
	}
}

// TestDynamicSweepMatchesSerialRun is the other half of the acceptance
// criterion: Sweep produces the same shocked results as a serial Run loop,
// at every sweep worker count.
func TestDynamicSweepMatchesSerialRun(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	b := graph.Lazy(graph.RandomRegular(96, 8, 9))
	rotor := balancer.NewRotorRouter()
	var specs []RunSpec
	for i := 0; i < 8; i++ {
		specs = append(specs, RunSpec{
			Balancing: b,
			Algorithm: rotor,
			Initial:   workload.PointMass(96, i, int64(1024*(i+1))),
			MaxRounds: 90,
			Events: workload.Compose{
				workload.Burst{Round: 15, Node: (i * 13) % 96, Amount: 2048},
				workload.Churn{Every: 10, Amount: 256, Seed: uint64(i)},
			},
			TargetDiscrepancy: Target(24),
			SampleEvery:       7,
		})
	}
	ref := make([]RunResult, len(specs))
	for i, spec := range specs {
		ref[i] = Run(spec)
		if ref[i].Err != nil {
			t.Fatalf("spec %d: %v", i, ref[i].Err)
		}
		if len(ref[i].Shocks) == 0 {
			t.Fatalf("spec %d: no shocks recorded", i)
		}
	}
	for _, workers := range []int{1, 4} {
		got := Sweep(specs, SweepOptions{Workers: workers})
		for i := range ref {
			if !reflect.DeepEqual(ref[i], got[i]) {
				t.Fatalf("sweep workers=%d spec %d diverged:\n got %+v\nwant %+v",
					workers, i, got[i], ref[i])
			}
		}
	}
}

// TestDynamicRunOverlappingShockPeaks: a second injection while an earlier
// shock is still unrecovered counts toward the earlier shock's peak — its
// observation window is "injection until recovery", spikes included.
func TestDynamicRunOverlappingShockPeaks(t *testing.T) {
	// Slow graph (cycle) so the first burst is still unrecovered when the
	// second, much larger one lands.
	b := graph.Lazy(graph.Cycle(64))
	res := Run(RunSpec{
		Balancing: b,
		Algorithm: balancer.NewSendFloor(),
		Initial:   workload.Uniform(64, 100),
		MaxRounds: 40,
		Events: workload.Compose{
			workload.Burst{Round: 5, Node: 0, Amount: 1000},
			workload.Burst{Round: 10, Node: 32, Amount: 100000},
		},
		TargetDiscrepancy: Target(8),
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.Shocks) != 2 {
		t.Fatalf("expected 2 shocks: %+v", res.Shocks)
	}
	first, second := res.Shocks[0], res.Shocks[1]
	if first.RecoveryRound >= 0 && first.RecoveryRound <= 10 {
		t.Fatalf("setup: first shock recovered before the second landed: %+v", first)
	}
	if first.PeakDiscrepancy < second.Discrepancy {
		t.Fatalf("first shock's peak must include the overlapping spike: first %+v, second %+v", first, second)
	}
}

// TestDynamicRunDrainRemovesLoad: a drain schedule reduces the total and
// records Removed.
func TestDynamicRunDrainRemovesLoad(t *testing.T) {
	b := graph.Lazy(graph.Hypercube(4))
	res := Run(RunSpec{
		Balancing: b,
		Algorithm: balancer.NewSendFloor(),
		Initial:   workload.Uniform(16, 100),
		MaxRounds: 20,
		Events:    workload.Drain{From: 5, To: 7, PerNode: 10},
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.Shocks) != 3 {
		t.Fatalf("expected 3 drain shocks, got %d", len(res.Shocks))
	}
	for _, s := range res.Shocks {
		if s.Added != 0 || s.Removed != 160 {
			t.Fatalf("drain shock = %+v", s)
		}
		if s.RecoveryRound != -1 {
			t.Fatalf("no target set: recovery must be unmeasured, got %+v", s)
		}
	}
	if res.FinalDiscrepancy != 0 {
		t.Fatalf("uniform drain must keep balance, disc = %d", res.FinalDiscrepancy)
	}
}

// TestDynamicRunPatienceRestartsAtShock: without the restart, the pre-shock
// minimum would trip patience in the middle of recovery.
func TestDynamicRunPatienceRestartsAtShock(t *testing.T) {
	b := graph.Lazy(graph.RandomRegular(64, 8, 3))
	spec := RunSpec{
		Balancing: b,
		Algorithm: balancer.NewSendFloor(),
		Initial:   workload.PointMass(64, 0, 2048),
		MaxRounds: 400,
		Patience:  40,
		Events:    workload.Burst{Round: 30, Node: 32, Amount: 8192},
	}
	res := Run(spec)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.Shocks) != 1 {
		t.Fatalf("burst at round 30 must land before any stop: %+v", res)
	}
	// The shock restarts the patience clock, so any patience stop must come
	// at least Patience rounds after the injection — without the restart the
	// stale pre-shock minimum would fire mid-recovery.
	if res.StoppedEarly && res.Rounds < 30+40 {
		t.Fatalf("patience fired during recovery: %+v", res)
	}
}

// TestDynamicRunTargetReachedByInjection: a target first met by a removal
// injection (between rounds) sets ReachedTarget/TargetRound the same way a
// post-round reach would — attributed to the round just completed.
func TestDynamicRunTargetReachedByInjection(t *testing.T) {
	b := graph.Lazy(graph.Cycle(16))
	res := Run(RunSpec{
		Balancing:         b,
		Algorithm:         balancer.NewSendFloor(),
		Initial:           workload.PointMass(16, 0, 30),
		MaxRounds:         2,
		Events:            workload.Burst{Round: 0, Node: 0, Amount: -25},
		TargetDiscrepancy: Target(10),
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.Shocks) != 1 || res.Shocks[0].RecoveryRounds != 0 {
		t.Fatalf("removal shock should recover instantly: %+v", res.Shocks)
	}
	if !res.ReachedTarget || res.TargetRound != 0 {
		t.Fatalf("injection-reached target must be recorded: %+v", res)
	}
}

// TestRunContainsSchedulePanic: a schedule addressing a node out of range
// must surface through RunResult.Err, not crash the caller — Run's no-panic
// contract extends to user-supplied schedules.
func TestRunContainsSchedulePanic(t *testing.T) {
	b := graph.Lazy(graph.Hypercube(4))
	res := Run(RunSpec{
		Balancing: b,
		Algorithm: balancer.NewSendFloor(),
		Initial:   workload.PointMass(16, 0, 160),
		MaxRounds: 10,
		Events:    workload.Burst{Round: 2, Node: 99, Amount: 1},
	})
	if res.Err == nil {
		t.Fatal("out-of-range schedule node must surface through Err")
	}
}

// TestPotentialTrackerIgnoresInjections: an injected load jump is the
// adversary's doing, not a Lemma 3.5/3.7 violation by the balancer.
func TestPotentialTrackerIgnoresInjections(t *testing.T) {
	b := graph.Lazy(graph.RandomRegular(32, 6, 2))
	tracker := core.NewPotentialTracker(2, 0, 8)
	res := Run(RunSpec{
		Balancing: b,
		Algorithm: balancer.NewGoodS(2),
		Initial:   workload.PointMass(32, 0, 1024),
		MaxRounds: 60,
		Events:    workload.Burst{Round: 20, Node: 16, Amount: 4096},
		Auditors:  []core.Auditor{tracker},
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.Shocks) != 1 {
		t.Fatalf("expected the burst to land: %+v", res.Shocks)
	}
	if tracker.Violations != 0 {
		t.Fatalf("injection counted as %d potential violations", tracker.Violations)
	}
}

// TestSweepContextCancel: canceled sweeps mark unstarted specs with the
// cancellation cause and still return a full result slice.
func TestSweepContextCancel(t *testing.T) {
	b := graph.Lazy(graph.RandomRegular(64, 8, 5))
	var specs []RunSpec
	for i := 0; i < 20; i++ {
		specs = append(specs, RunSpec{
			Balancing: b,
			Algorithm: balancer.NewSendFloor(),
			Initial:   workload.PointMass(64, i%64, 1024),
			MaxRounds: 50,
		})
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the sweep starts: every spec short-circuits
	results := SweepContext(ctx, specs, SweepOptions{Workers: 2})
	if len(results) != len(specs) {
		t.Fatalf("%d results for %d specs", len(results), len(specs))
	}
	for i, res := range results {
		if res.Err == nil {
			t.Fatalf("spec %d ran despite canceled context", i)
		}
	}
}

// TestSweepProgress: the callback sees every spec exactly once, with a
// monotone done counter ending at the total.
func TestSweepProgress(t *testing.T) {
	b := graph.Lazy(graph.Hypercube(4))
	var specs []RunSpec
	for i := 0; i < 12; i++ {
		specs = append(specs, RunSpec{
			Balancing: b,
			Algorithm: balancer.NewSendFloor(),
			Initial:   workload.PointMass(16, i%16, 160),
			MaxRounds: 10,
		})
	}
	var calls []int
	results := SweepContext(context.Background(), specs, SweepOptions{
		Workers: 3,
		Progress: func(done, total int) {
			if total != 12 {
				t.Errorf("total = %d", total)
			}
			calls = append(calls, done) // serialized by the harness
		},
	})
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("spec %d: %v", i, res.Err)
		}
	}
	if len(calls) != 12 {
		t.Fatalf("progress called %d times", len(calls))
	}
	for i, done := range calls {
		if done != i+1 {
			t.Fatalf("done sequence not monotone: %v", calls)
		}
	}
}

package analysis

import (
	"context"
	"reflect"
	"testing"

	"detlb/internal/balancer"
	"detlb/internal/core"
	"detlb/internal/graph"
	"detlb/internal/topology"
	"detlb/internal/workload"
)

// faultedSpec is the canonical faulted run: a flapping link composed with a
// mid-run partition that later heals, on an expander with a discrepancy
// target — the composed schedule the determinism satellite pins.
func faultedSpec(workers int) RunSpec {
	b := graph.Lazy(graph.RandomRegular(64, 6, 11))
	return RunSpec{
		Balancing: b,
		Algorithm: balancer.NewRotorRouter(),
		Initial:   workload.PointMass(64, 0, 4096),
		MaxRounds: 160,
		Workers:   workers,
		Topology: topology.Compose{
			topology.Flap{Link: [2]int{0, int(b.Graph().Heads()[0])}, From: 10, Period: 12, Duty: 4},
			topology.Partition{Round: 60, Boundary: 32, Heal: 90},
		},
		TargetDiscrepancy: Target(16),
		SampleEvery:       10,
	}
}

func TestFaultedRunRecoveryMetrics(t *testing.T) {
	res := Run(faultedSpec(0))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.Faults) == 0 {
		t.Fatal("faulted run recorded no fault events")
	}
	var sawPartition, sawHeal bool
	for i, f := range res.Faults {
		if f.Round == 60 {
			sawPartition = true
			// The cut splits the graph in two, and may additionally isolate a
			// node whose neighbors all sit across the boundary.
			if f.Components < 2 {
				t.Fatalf("partition event has %d components: %+v", f.Components, f)
			}
			if f.Gap > 1e-6 {
				t.Fatalf("partitioned gap %v, want ≈ 0", f.Gap)
			}
		}
		if f.Round == 90 && f.RestoredLinks > 0 {
			sawHeal = true
			if f.Components != 1 {
				t.Fatalf("healed graph has %d components: %+v", f.Components, f)
			}
			if f.Gap <= 1e-6 {
				t.Fatalf("healed gap %v, want > 0", f.Gap)
			}
		}
		if f.PeakDiscrepancy < f.Discrepancy {
			t.Fatalf("fault %d peak below event discrepancy: %+v", i, f)
		}
	}
	if !sawPartition || !sawHeal {
		t.Fatalf("missing partition/heal events: %+v", res.Faults)
	}
	// The last fault window (post-heal flaps on a connected graph) must
	// recover to the target within the horizon.
	last := res.Faults[len(res.Faults)-1]
	if last.RecoveryRound < 0 {
		t.Fatalf("final fault never recovered: %+v", last)
	}
	if last.RecoveryRounds != last.RecoveryRound-last.Round {
		t.Fatalf("recovery arithmetic off: %+v", last)
	}
}

func TestFaultedRunSeriesCarriesFaultMarkers(t *testing.T) {
	res := Run(faultedSpec(0))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	marks := 0
	for _, p := range res.Series {
		if p.Fault {
			marks++
			if !p.FaultChange.Changed() || p.Components < 1 {
				t.Fatalf("fault point without payload: %+v", p)
			}
			smp := p.Sample()
			if smp.Fault == nil || smp.Fault.Components != p.Components {
				t.Fatalf("wire sample lost the fault mark: %+v", smp)
			}
		}
	}
	if marks != len(res.Faults) {
		t.Fatalf("%d fault-marked points for %d fault events", marks, len(res.Faults))
	}
}

func TestFaultedRunDeterministicAcrossWorkersAndEntryPoints(t *testing.T) {
	ref := Run(faultedSpec(0))
	if ref.Err != nil {
		t.Fatal(ref.Err)
	}
	for _, w := range []int{1, 2, 8} {
		got := Run(faultedSpec(w))
		if got.Err != nil {
			t.Fatal(got.Err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("workers=%d result differs from serial:\n%+v\nvs\n%+v", w, got, ref)
		}
	}
	// Sweep (one group, run in order) and Stream must agree bit-identically.
	sw := Sweep([]RunSpec{faultedSpec(0), faultedSpec(0)}, SweepOptions{})
	for i, got := range sw {
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("sweep result %d differs from Run:\n%+v\nvs\n%+v", i, got, ref)
		}
	}
	var streamed RunResult
	rounds := 0
	for range StreamInto(context.Background(), faultedSpec(0), &streamed) {
		rounds++
	}
	if !reflect.DeepEqual(ref, streamed) {
		t.Fatalf("stream result differs from Run:\n%+v\nvs\n%+v", streamed, ref)
	}
	if rounds <= ref.Rounds {
		t.Fatalf("faulted stream yielded %d observations for %d rounds (faults must double-yield)", rounds, ref.Rounds)
	}
}

func TestPermanentPartitionCompletesWithPerComponentMetrics(t *testing.T) {
	// The graceful-degradation acceptance criterion: a partition that never
	// heals must not error out — the run completes its horizon and the fault
	// record carries the per-component view.
	b := graph.Lazy(graph.Cycle(32))
	res := Run(RunSpec{
		Balancing:         b,
		Algorithm:         balancer.NewSendFloor(),
		Initial:           workload.PointMass(32, 0, 2048),
		MaxRounds:         1000,
		Topology:          topology.Partition{Round: 0, Boundary: 16},
		TargetDiscrepancy: Target(64),
	})
	if res.Err != nil {
		t.Fatalf("partitioned run errored: %v", res.Err)
	}
	if res.Rounds != 1000 {
		t.Fatalf("partitioned run stopped at %d/1000", res.Rounds)
	}
	if len(res.Faults) != 1 {
		t.Fatalf("faults: %+v", res.Faults)
	}
	f := res.Faults[0]
	if f.Round != 0 || f.Components != 2 || f.FailedLinks != 2 {
		t.Fatalf("partition event %+v", f)
	}
	// All load started at node 0: the half holding it balances internally to
	// the effective target even though the global discrepancy stays pinned.
	if f.RecoveryRound < 0 {
		t.Fatalf("per-component recovery never detected: %+v", f)
	}
	if f.UnreachableLoad != 2048-16*64 {
		t.Fatalf("unreachable load %d, want %d", f.UnreachableLoad, 2048-16*64)
	}
	if res.FinalDiscrepancy <= 64 {
		t.Fatalf("global discrepancy %d should stay pinned by the cut", res.FinalDiscrepancy)
	}
}

func TestFaultScheduleErrorIsGraceful(t *testing.T) {
	b := graph.Lazy(graph.Cycle(8))
	res := Run(RunSpec{
		Balancing: b,
		Algorithm: balancer.NewSendFloor(),
		Initial:   workload.PointMass(8, 0, 64),
		MaxRounds: 20,
		Topology:  topology.FailNodes{Round: 3, Nodes: []int{99}},
	})
	if res.Err == nil {
		t.Fatal("out-of-range fault node must surface through Err")
	}
	if res.Rounds != 3 {
		t.Fatalf("run should stop at the bad event's round, got %d", res.Rounds)
	}
}

func TestNodeFaultStrandingAndRedistributionPolicies(t *testing.T) {
	// Stranding removes the load from the system; redistribution conserves
	// it. Both run under a conservation auditor, which the DeltaObserver
	// notification must keep satisfied.
	for _, tc := range []struct {
		name         string
		redistribute bool
		wantTotal    int64
	}{
		{"strand", false, 0},
		{"redistribute", true, 1024},
	} {
		b := graph.Lazy(graph.Cycle(16))
		res := Run(RunSpec{
			Balancing: b,
			Algorithm: balancer.NewSendFloor(),
			Initial:   workload.PointMass(16, 5, 1024),
			MaxRounds: 40,
			Topology:  topology.FailNodes{Round: 0, Nodes: []int{5}, Redistribute: tc.redistribute},
			Auditors:  []core.Auditor{core.NewConservationAuditor()},
		})
		if res.Err != nil {
			t.Fatalf("%s: %v", tc.name, res.Err)
		}
		f := res.Faults[0]
		if tc.redistribute && (f.Redistributed != 1024 || f.Stranded != 0) {
			t.Fatalf("%s: %+v", tc.name, f)
		}
		if !tc.redistribute && (f.Stranded != 1024 || f.Redistributed != 0) {
			t.Fatalf("%s: %+v", tc.name, f)
		}
		// Final discrepancy reflects the post-policy totals: stranding
		// leaves an empty system, redistribution a balanced one.
		if tc.wantTotal == 0 && res.FinalDiscrepancy != 0 {
			t.Fatalf("strand: final discrepancy %d", res.FinalDiscrepancy)
		}
	}
}

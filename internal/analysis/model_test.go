package analysis

import (
	"context"
	"reflect"
	"testing"

	"detlb/internal/balancer"
	"detlb/internal/core"
	"detlb/internal/graph"
	"detlb/internal/protocol"
	"detlb/internal/topology"
	"detlb/internal/workload"
)

// majoritySpec is the canonical majority-protocol run: a 64-agent instance
// with a 40/24 strong-opinion split, judged by the unconverged-minority
// metric down to consensus. The builder is shared across workers so sweep
// grouping has a real identity to key on.
func majoritySpec(mb core.ModelBuilder, workers int) RunSpec {
	return RunSpec{
		Balancing:         graph.Lazy(graph.RandomRegular(64, 8, 1)),
		Model:             mb,
		Metric:            protocol.Unconverged,
		Initial:           workload.Opinions(64, 40),
		MaxRounds:         512,
		Workers:           workers,
		TargetDiscrepancy: Target(0),
		SampleEvery:       4,
	}
}

// hermanSpec is the canonical Herman run: a 33-node ring with 9 tokens,
// judged by the surviving-token count down to stabilization. Herman's flip
// phase runs on the kernel, so workers exercises real parallelism.
func hermanSpec(mb core.ModelBuilder, workers int) RunSpec {
	return RunSpec{
		Balancing:         graph.Lazy(graph.Cycle(33)),
		Model:             mb,
		Metric:            protocol.Tokens,
		Initial:           workload.Tokens(33, 9, 1),
		MaxRounds:         4096,
		Workers:           workers,
		TargetDiscrepancy: Target(1),
		SampleEvery:       16,
	}
}

// TestModelRunDeterministicAcrossWorkersAndEntryPoints is the protocol
// counterpart of the faulted-run determinism test: every worker count and
// every entry point — Run, Sweep (one group, run in order), StreamInto — must
// produce bit-identical results for both protocol families.
func TestModelRunDeterministicAcrossWorkersAndEntryPoints(t *testing.T) {
	cases := []struct {
		name string
		spec func(workers int) RunSpec
	}{
		{"majority", func(w int) RunSpec { return majoritySpec(protocol.NewMajority(64, 7), w) }},
		{"herman", func(w int) RunSpec { return hermanSpec(protocol.NewHerman(7), w) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := Run(tc.spec(0))
			if ref.Err != nil {
				t.Fatal(ref.Err)
			}
			if !ref.ReachedTarget {
				t.Fatalf("reference run did not converge: %+v", ref)
			}
			if ref.Metric == "" {
				t.Fatal("model result carries no metric name")
			}
			for _, w := range []int{1, 2, 8} {
				got := Run(tc.spec(w))
				if got.Err != nil {
					t.Fatal(got.Err)
				}
				if !reflect.DeepEqual(ref, got) {
					t.Fatalf("workers=%d result differs from serial:\n%+v\nvs\n%+v", w, got, ref)
				}
			}
			// Sweep runs the duplicated specs in order in one group; both
			// results must match Run exactly.
			sw := Sweep([]RunSpec{tc.spec(0), tc.spec(0)}, SweepOptions{})
			for i, got := range sw {
				if !reflect.DeepEqual(ref, got) {
					t.Fatalf("sweep result %d differs from Run:\n%+v\nvs\n%+v", i, got, ref)
				}
			}
			var streamed RunResult
			rounds := 0
			for range StreamInto(context.Background(), tc.spec(2), &streamed) {
				rounds++
			}
			if !reflect.DeepEqual(ref, streamed) {
				t.Fatalf("stream result differs from Run:\n%+v\nvs\n%+v", streamed, ref)
			}
			if rounds != ref.Rounds+1 {
				t.Fatalf("stream yielded %d observations for %d rounds", rounds, ref.Rounds)
			}
		})
	}
}

// TestModelSweepGroupsShareOneBuilder: specs sharing a builder land in one
// sweep group, and grouping does not bleed state between specs with
// different initial vectors.
func TestModelSweepGroupsShareOneBuilder(t *testing.T) {
	mb := protocol.NewMajority(64, 7)
	a := majoritySpec(mb, 0)
	b := majoritySpec(mb, 0)
	b.Initial = workload.Opinions(64, 50)
	sw := Sweep([]RunSpec{a, b, a}, SweepOptions{Workers: 1})
	for i, res := range sw {
		if res.Err != nil {
			t.Fatalf("spec %d: %v", i, res.Err)
		}
	}
	if !reflect.DeepEqual(sw[0], sw[2]) {
		t.Fatal("identical specs diverged across an interleaved group")
	}
	if sw[0].InitialDiscrepancy == sw[1].InitialDiscrepancy {
		t.Fatal("distinct initial vectors produced the same initial metric")
	}
	if !reflect.DeepEqual(sw[0], Run(a)) || !reflect.DeepEqual(sw[1], Run(b)) {
		t.Fatal("grouped sweep results differ from Run results")
	}
}

// TestModelSpecRejections: the diffusion-only RunSpec machinery has no model
// analogue and must be rejected up front, with the error in the result.
func TestModelSpecRejections(t *testing.T) {
	base := func() RunSpec { return majoritySpec(protocol.NewMajority(64, 7), 0) }
	cases := []struct {
		name   string
		mutate func(*RunSpec)
	}{
		{"no balancing", func(s *RunSpec) { s.Balancing = nil }},
		{"both algorithm and model", func(s *RunSpec) { s.Algorithm = balancer.NewSendFloor() }},
		{"no metric", func(s *RunSpec) { s.Metric = nil }},
		{"workload schedule", func(s *RunSpec) { s.Events = workload.Burst{Round: 1, Node: 0, Amount: 8} }},
		{"topology schedule", func(s *RunSpec) { s.Topology = topology.Partition{Round: 1, Boundary: 32} }},
		{"engine auditors", func(s *RunSpec) { s.Auditors = []core.Auditor{core.NewConservationAuditor()} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := base()
			tc.mutate(&spec)
			if res := Run(spec); res.Err == nil {
				t.Fatalf("spec accepted: %+v", res)
			}
			// The same spec through Sweep and StreamInto reports an error too.
			if sw := Sweep([]RunSpec{spec}, SweepOptions{}); sw[0].Err == nil {
				t.Fatal("sweep accepted the broken spec")
			}
			var streamed RunResult
			for range StreamInto(context.Background(), spec, &streamed) {
			}
			if streamed.Err == nil {
				t.Fatal("stream accepted the broken spec")
			}
		})
	}
}

// TestModelBadInitialVectorSurfacesError: Model.New validates the initial
// vector; the constructor error must reach the result, not panic the run.
func TestModelBadInitialVectorSurfacesError(t *testing.T) {
	spec := majoritySpec(protocol.NewMajority(64, 7), 0)
	spec.Initial = workload.Uniform(64, 3) // 3 is not a legal opinion
	if res := Run(spec); res.Err == nil {
		t.Fatal("illegal opinion vector accepted")
	}
	spec = hermanSpec(protocol.NewHerman(7), 0)
	spec.Initial = workload.Uniform(33, 1) // 33 tokens is odd, but wrong length next
	spec.Initial = spec.Initial[:32]
	if res := Run(spec); res.Err == nil {
		t.Fatal("wrong-length token vector accepted")
	}
}

// TestModelPatienceStopsStalledRun: patience semantics carry over from the
// diffusion path — a metric that stops improving ends the run early.
func TestModelPatienceStopsStalledRun(t *testing.T) {
	spec := hermanSpec(protocol.NewHerman(3), 0)
	spec.TargetDiscrepancy = nil // stabilized runs hold tokens=1 forever
	spec.Patience = 32
	res := Run(spec)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !res.StoppedEarly {
		t.Fatalf("stalled model run never hit patience: %+v", res)
	}
	if res.Rounds >= res.Horizon {
		t.Fatalf("patience stop at the horizon is no stop: %+v", res)
	}
}

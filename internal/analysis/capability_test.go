package analysis

import (
	"context"
	"reflect"
	"testing"

	"detlb/internal/core"
	"detlb/internal/graph"
	"detlb/internal/topology"
	"detlb/internal/workload"
)

// smootherBuilder builds smoother models: a minimal core.Model that carries
// the load-injection capability and nothing else, so the round loop's
// capability dispatch is exercised on something other than the engine.
type smootherBuilder struct{}

func (*smootherBuilder) Name() string             { return "smoother" }
func (*smootherBuilder) DefaultHorizon(n int) int { return 4 * n * n }
func (*smootherBuilder) New(x1 []int64, workers int) (core.Model, error) {
	m := &smoother{share: make([]int64, len(x1)), kern: core.NewKernel(workers)}
	m.first, m.second = m.sharePhase, m.applyPhase
	return m, m.Reset(x1)
}

// smoother is integer diffusion on the node-index ring: every round each
// node keeps half its load and passes a quarter to each ring neighbor,
// rounding the quarter down. Both phases run on a Kernel, so the trajectory
// is the same at every worker count.
type smoother struct {
	x, share      []int64
	round         int
	kern          *core.Kernel
	first, second func(lo, hi int)
}

var _ core.Injector = (*smoother)(nil)

func (m *smoother) N() int         { return len(m.x) }
func (m *smoother) State() []int64 { return m.x }
func (m *smoother) Round() int     { return m.round }
func (m *smoother) Close()         { m.kern.Close() }
func (m *smoother) Reset(x1 []int64) error {
	m.x = append(m.x[:0], x1...)
	m.round = 0
	return nil
}

func (m *smoother) sharePhase(lo, hi int) {
	for i := lo; i < hi; i++ {
		m.share[i] = m.x[i] / 4
	}
}

func (m *smoother) applyPhase(lo, hi int) {
	n := len(m.x)
	for i := lo; i < hi; i++ {
		m.x[i] += m.share[(i+n-1)%n] + m.share[(i+1)%n] - 2*m.share[i]
	}
}

func (m *smoother) Step() error {
	m.kern.RunRound(len(m.x), m.first, m.second)
	m.round++
	return nil
}

func (m *smoother) ApplyDelta(delta []int64) error {
	for i, d := range delta {
		m.x[i] += d
	}
	return nil
}

// spread is max − min under a name of its own, the smoother's Metric.
type spread struct{}

func (spread) Name() string                { return "spread" }
func (spread) Measure(state []int64) int64 { return core.Discrepancy(state) }

func smootherSpec(mb core.ModelBuilder, workers int) RunSpec {
	return RunSpec{
		Balancing:         graph.Lazy(graph.Cycle(16)),
		Model:             mb,
		Metric:            spread{},
		Initial:           workload.Uniform(16, 8),
		MaxRounds:         400,
		Workers:           workers,
		TargetDiscrepancy: Target(16),
		SampleEvery:       50,
		Events:            workload.Burst{Round: 5, Node: 3, Amount: 4096},
	}
}

// TestInjectorModelTakesWorkloadSchedules: a model that implements
// core.Injector gets shocks and their recovery metrics from the one round
// loop, exactly like the engine, and the shocked run is the same at every
// worker count and through every entry point.
func TestInjectorModelTakesWorkloadSchedules(t *testing.T) {
	mb := &smootherBuilder{}
	ref := Run(smootherSpec(mb, 0))
	if ref.Err != nil {
		t.Fatal(ref.Err)
	}
	if ref.Metric != "spread" || ref.Rounds != 400 {
		t.Fatalf("unexpected run shape: %+v", ref)
	}
	if len(ref.Shocks) != 1 {
		t.Fatalf("want one shock, got %+v", ref.Shocks)
	}
	s := ref.Shocks[0]
	if s.Round != 5 || s.Added != 4096 || s.Removed != 0 {
		t.Fatalf("shock not recorded as injected: %+v", s)
	}
	if s.Discrepancy <= 16 || s.PeakDiscrepancy < s.Discrepancy {
		t.Fatalf("shock carries no peak: %+v", s)
	}
	if s.RecoveryRound <= s.Round || s.RecoveryRounds != s.RecoveryRound-s.Round {
		t.Fatalf("shock carries no recovery: %+v", s)
	}

	for _, w := range []int{1, 2} {
		if got := Run(smootherSpec(mb, w)); !reflect.DeepEqual(ref, got) {
			t.Fatalf("workers=%d result differs from serial:\n%+v\nvs\n%+v", w, got, ref)
		}
	}
	// The second spec reuses the first one's model through Reset.
	for i, got := range Sweep([]RunSpec{smootherSpec(mb, 0), smootherSpec(mb, 0)}, SweepOptions{}) {
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("sweep result %d differs from Run:\n%+v\nvs\n%+v", i, got, ref)
		}
	}
	var streamed RunResult
	shocks := 0
	for _, snap := range StreamInto(context.Background(), smootherSpec(mb, 2), &streamed) {
		if snap.Shock {
			shocks++
		}
	}
	if !reflect.DeepEqual(ref, streamed) {
		t.Fatalf("stream result differs from Run:\n%+v\nvs\n%+v", streamed, ref)
	}
	if shocks != 1 {
		t.Fatalf("stream yielded %d shock observations, want 1", shocks)
	}

	// The smoother is no core.Faultable, so a topology schedule is refused.
	spec := smootherSpec(mb, 0)
	spec.Topology = topology.Partition{Round: 1, Boundary: 8}
	if res := Run(spec); res.Err == nil {
		t.Fatal("topology schedule accepted on a model without core.Faultable")
	}
}

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

// smootherBuilder builds smoother models: a minimal core.Model that carries
// the load-injection capability and nothing else, so the round loop's
// capability dispatch is exercised on something other than the engine.
type smootherBuilder struct{}

func (*smootherBuilder) Name() string             { return "smoother" }
func (*smootherBuilder) DefaultHorizon(n int) int { return 4 * n * n }
func (*smootherBuilder) New(x1 []int64, workers int) (core.Model, error) {
	m := &smoother{
		x:     append([]int64(nil), x1...),
		share: make([]int64, len(x1)),
		kern:  core.NewKernel(workers),
	}
	m.first, m.second = m.sharePhase, m.applyPhase
	return m, nil
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
	// Both specs share one sweep group and run in order.
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

// TestEngineRecurrentOptOuts: the engine claims core.Recurrent only on the
// bulk path with nothing that hides state from its loads and rotor words.
func TestEngineRecurrentOptOuts(t *testing.T) {
	g := graph.Hypercube(4)
	b := graph.Lazy(g)
	x1 := workload.PointMass(g.N(), 0, 1000)
	build := func(algo core.Balancer, opts ...core.Option) *core.Engine {
		t.Helper()
		eng, err := core.NewEngine(b, algo, x1, opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(eng.Close)
		return eng
	}
	for _, algo := range []core.Balancer{
		balancer.NewSendFloor(), balancer.NewSendRound(), balancer.NewBiasedRounding(),
		balancer.NewRotorRouter(), balancer.NewGoodS(2),
	} {
		if !build(algo).Recurrent() {
			t.Errorf("%s: bulk engine is not Recurrent", algo.Name())
		}
	}
	order := make([][]int, g.N())
	for u := range order {
		order[u] = []int{7, 6, 5, 4, 3, 2, 1, 0}
	}
	for _, tc := range []struct {
		name string
		eng  *core.Engine
	}{
		{"auditor", build(balancer.NewRotorRouter(), core.WithAuditor(core.NewConservationAuditor()))},
		{"flow tracking", build(balancer.NewSendFloor(), core.WithFlowTracking())},
		{"bounded-error", build(balancer.NewBoundedError())},
		{"matching", build(balancer.NewMatchingBalancer(balancer.EdgeColoringScheduler(g), false, 1))},
		{"mimic", build(balancer.NewContinuousMimic())},
		{"per-node rotor-router", build(&balancer.RotorRouter{Order: order})},
	} {
		if tc.eng.Recurrent() {
			t.Errorf("%s: engine claims Recurrent", tc.name)
		}
	}

	eng := build(balancer.NewRotorRouter())
	if _, err := eng.ApplyTopologyDelta(core.TopologyDelta{FailLinks: [][2]int{{0, 1}}}); err != nil {
		t.Fatal(err)
	}
	if eng.Recurrent() {
		t.Error("faulted engine claims Recurrent")
	}
}

// runStepped runs spec on m through the round loop and reports how many
// rounds m actually stepped.
func runStepped(spec RunSpec, m core.Model) (RunResult, int) {
	res, _ := prepareResult(spec)
	res = runContext(context.Background(), spec, m, res)
	return res, m.Round()
}

// counterBuilder builds counters: one node counting up modulo period, a
// core.Recurrent model whose cycle is exactly period rounds long from round
// zero.
type counterBuilder struct{ period int64 }

func (*counterBuilder) Name() string             { return "counter" }
func (*counterBuilder) DefaultHorizon(n int) int { return 1 }
func (cb *counterBuilder) New(x1 []int64, workers int) (core.Model, error) {
	return &counter{v: x1[0], period: cb.period}, nil
}

type counter struct {
	v, period int64
	round     int
}

var _ core.Recurrent = (*counter)(nil)

func (c *counter) N() int         { return 1 }
func (c *counter) State() []int64 { return []int64{c.v} }
func (c *counter) Round() int     { return c.round }
func (c *counter) Close()         {}
func (c *counter) Step() error {
	c.v = (c.v + 1) % c.period
	c.round++
	return nil
}
func (c *counter) Recurrent() bool                 { return true }
func (c *counter) AppendState(dst []int64) []int64 { return append(dst, c.v) }
func (c *counter) StateEquals(snap []int64) bool   { return snap[0] == c.v }

// value tracks the single node's state as the run's metric.
type value struct{}

func (value) Name() string                { return "value" }
func (value) Measure(state []int64) int64 { return state[0] }

// TestRecurrenceWindowCap: a period as long as the detection window is
// found, from the first checkpoint that stays live a full window long (round
// recurrenceWindowCap/recurrenceSlots, no later than the single
// power-of-two snapshot at recurrenceWindowCap); one round longer is not,
// and the run simply steps to its horizon. Both give the result of stepping
// every round.
func TestRecurrenceWindowCap(t *testing.T) {
	for _, tc := range []struct {
		period int64
		found  bool
	}{
		{recurrenceWindowCap, true},
		{recurrenceWindowCap + 1, false},
	} {
		spec := RunSpec{
			Balancing: graph.Lazy(graph.Cycle(3)), Model: &counterBuilder{tc.period},
			Metric: value{}, Initial: []int64{0}, MaxRounds: 4 * recurrenceWindowCap,
			SampleEvery: 1000,
		}
		want, _ := streamSteppedOnly(t, spec)
		m, err := spec.Model.New(spec.Initial, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, stepped := runStepped(spec, m)
		var cycle *Cycle
		if tc.found {
			cycle = &Cycle{Start: recurrenceWindowCap / recurrenceSlots, Period: recurrenceWindowCap, Min: 0, Max: recurrenceWindowCap - 1}
			bm, _ := spec.Model.New(spec.Initial, 0)
			brent := newBrentRecurrence(bm.(core.Recurrent), spec.MaxRounds)
			if _, b := closeCycle(bm, &brent, spec.MaxRounds); b == nil || b.Start < cycle.Start {
				t.Fatalf("period %d: the single snapshot reports cycle %+v, earlier than %+v", tc.period, b, cycle)
			}
		}
		if !reflect.DeepEqual(got.Cycle, cycle) {
			t.Fatalf("period %d: cycle %+v, want %+v", tc.period, got.Cycle, cycle)
		}
		want.Cycle = cycle
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("period %d: result differs from stepping every round:\n got %+v\nwant %+v", tc.period, got, want)
		}
		if found := stepped < got.Rounds; found != tc.found {
			t.Fatalf("period %d: stepped %d of %d rounds, want cycle found = %v", tc.period, stepped, got.Rounds, tc.found)
		}
		checkMatchesStepping(t, spec)
	}
}

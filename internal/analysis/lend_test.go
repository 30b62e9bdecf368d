package analysis

import (
	"context"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"detlb/internal/balancer"
	"detlb/internal/core"
	"detlb/internal/graph"
	"detlb/internal/workload"
)

// chunkSpy wraps a flat balancer and records whether a round ever
// distributed a chunk that does not start at node 0, which only a helper's
// chunk of a wide round does. Its distributor exposes no state words, so
// the engine is not Recurrent and steps every round of the run.
type chunkSpy struct {
	core.FlatBalancer
	wide *atomic.Bool
}

func (s chunkSpy) BindFlat(b *graph.Balancing) core.RangeDistributor {
	return spyRange{s.FlatBalancer.BindFlat(b), s.wide}
}

type spyRange struct {
	inner core.RangeDistributor
	wide  *atomic.Bool
}

func (r spyRange) DistributeRange(x, bp, kept []int64, lo, hi int) {
	if lo > 0 {
		r.wide.Store(true)
	}
	r.inner.DistributeRange(x, bp, kept, lo, hi)
}

// lendSpecs is a long rotor-router cell on hypercube:11, large enough to
// take a helper, and a short cell that frees its runner almost at once.
func lendSpecs(wide *atomic.Bool) []RunSpec {
	big := graph.Lazy(graph.Hypercube(11))
	small := graph.Lazy(graph.Cycle(32))
	return []RunSpec{
		{
			Balancing: big,
			Algorithm: chunkSpy{balancer.NewRotorRouter(), wide},
			Initial:   workload.Random(big.N(), 1024, 7),
			MaxRounds: 3000,
		},
		{
			Balancing: small,
			Algorithm: balancer.NewSendFloor(),
			Initial:   workload.PointMass(small.N(), 0, 640),
			MaxRounds: 8,
		},
	}
}

// settleGoroutines fails the test unless the goroutine count falls back to
// at most before within a few seconds.
func settleGoroutines(t *testing.T, before int, what string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		g := runtime.NumGoroutine()
		if g <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: goroutines grew from %d to %d", what, before, g)
		}
	}
}

// TestSweepLendsIdleRunner checks that the runner of the short cell lends
// itself to the long one — its rounds go wide — with results identical to a
// one-runner sweep, and that no goroutine outlives the sweep.
func TestSweepLendsIdleRunner(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var wide atomic.Bool
	serial := Sweep(lendSpecs(&wide), SweepOptions{Workers: 1})
	if wide.Load() {
		t.Fatal("a one-runner sweep ran a wide round")
	}
	before := runtime.NumGoroutine()
	lent := Sweep(lendSpecs(&wide), SweepOptions{Workers: 2})
	settleGoroutines(t, before, "lending sweep")
	if !wide.Load() {
		t.Fatal("the idle runner never helped the long cell")
	}
	for i := range lent {
		if lent[i].Err != nil || !reflect.DeepEqual(lent[i], serial[i]) {
			t.Fatalf("spec %d: lent sweep %+v, one-runner sweep %+v", i, lent[i], serial[i])
		}
	}
}

// TestSweepLendsNothingWhenBudgetUsed occupies every helper-budget slot
// before the sweep: no runner may then lend itself, so no round goes wide.
func TestSweepLendsNothingWhenBudgetUsed(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for range runtime.GOMAXPROCS(0) {
		core.Occupy()
		defer core.Release()
	}
	var wide atomic.Bool
	for i, res := range Sweep(lendSpecs(&wide), SweepOptions{Workers: 2}) {
		if res.Err != nil {
			t.Fatalf("spec %d: %v", i, res.Err)
		}
	}
	if wide.Load() {
		t.Fatal("a runner lent itself with the helper budget used up")
	}
}

// TestCanceledLendingSweepLeaksNothing cancels a sweep while the idle
// runner is helping the long cell: the sweep returns, the long cell reports
// the cancellation, and no goroutine outlives it.
func TestCanceledLendingSweepLeaksNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var wide atomic.Bool
	specs := lendSpecs(&wide)
	specs[0].MaxRounds = 1 << 20
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for deadline := time.Now().Add(5 * time.Second); !wide.Load() && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	res := SweepContext(ctx, specs, SweepOptions{Workers: 2})
	if res[0].Err == nil {
		t.Fatal("the long cell finished without seeing the cancellation")
	}
	if !wide.Load() {
		t.Fatal("the idle runner never helped the long cell")
	}
	settleGoroutines(t, before, "canceled sweep")
}

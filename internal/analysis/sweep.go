package analysis

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"

	"detlb/internal/core"
	"detlb/internal/graph"
	"detlb/internal/spectral"
)

// SweepOptions configure Sweep's concurrent execution. The zero value is
// ready to use.
type SweepOptions struct {
	// Workers is the number of concurrent group runners; 0 selects
	// GOMAXPROCS. Results are bit-identical for every value: each spec's
	// result is a pure function of the spec, and scheduling only decides
	// which runner computes it.
	Workers int
	// Progress, when non-nil, is invoked after every spec finishes (including
	// canceled specs) with the number of finished specs and the total. Calls
	// are serialized and `done` is monotone, so a callback can drive a
	// progress bar directly; it runs on a sweep runner goroutine and should
	// return quickly.
	Progress func(done, total int)
}

// sweepProgress serializes Progress callbacks across runner goroutines.
type sweepProgress struct {
	mu    sync.Mutex
	done  int
	total int
	fn    func(done, total int)
}

func (p *sweepProgress) specDone() {
	if p.fn == nil {
		return
	}
	p.mu.Lock()
	p.done++
	p.fn(p.done, p.total)
	p.mu.Unlock()
}

// Sweep executes every spec and returns one result per spec, in spec order.
//
// The paper's claims are statements over families of instances — graph ×
// balancer × initial-vector grids — and Sweep is the harness layer that makes
// such families cheap to run:
//
//   - Every spec runs on a fresh engine (or model), closed when its run
//     ends: a run is a pure function of its spec and needs nothing from the
//     run before it.
//   - Specs are grouped by (balancing graph, algorithm) identity — model
//     specs (RunSpec.Model) by (balancing graph, model builder) identity —
//     and each group runs its specs in order on one runner. Grouping has two
//     reasons. A Balancer instance that keeps per-run state on itself
//     (continuous-mimic, bounded-error, matching) is written by every Bind,
//     so the specs sharing it must never bind concurrently; do not share
//     such an instance across specs with *different* balancing graphs in one
//     sweep, give each spec its own instance. And groups are the unit of the
//     largest-first dispatch below.
//   - Groups are fanned out over a bounded runner pool; concurrency is
//     across groups.
//   - With more than one runner, groups go out largest first by n·d⁺ of
//     their balancing graph (a stable order, so equal-cost groups keep their
//     discovery order), and the last groups handed out are the short ones.
//     Ahead of them the runners take one spectral-gap warm-up per distinct
//     solved diffusion graph, largest first, so different graphs' gaps are
//     solved side by side rather than one runner waiting on another's solve.
//     One runner runs the groups in discovery order with no warm-ups.
//     Neither order moves a result.
//   - A runner that finds no group left lends itself to the largest engine
//     running in the sweep that has a helper seat (core.Lends,
//     core.Engine.Help) and stays its helper until that run ends, so a long
//     last cell runs its rounds at width 2 on the CPU the finished runner
//     would leave idle. Each engine takes at most one lent runner. While no
//     such engine runs, the runner waits as long as a group with a lending
//     spec is still running, and exits otherwise. Runners count against core's
//     process-wide helper budget while they run groups, so a runner lends
//     itself only while the process has a CPU to spare. A round's width
//     never moves a result.
//   - The spectral gap is memoized per graph (see spectral.Gap), so a sweep
//     over repeated graphs pays each Lanczos solve once.
//
// A panicking spec (e.g. a balancer that rejects the graph's configuration
// at bind time) is reported through its RunResult.Err; the rest of the sweep
// is unaffected.
func Sweep(specs []RunSpec, opt SweepOptions) []RunResult {
	return SweepContext(context.Background(), specs, opt)
}

// SweepContext is Sweep with cancellation: once ctx is done, every spec not
// yet started reports the context's error through its RunResult.Err instead
// of running, and specs already in flight stop within one round (the round
// loop checks the context between rounds, exactly like a streaming consumer's
// context), keeping their completed-round bookkeeping alongside a
// cancellation Err. Gap warm-ups not yet started are skipped. Long dynamic
// sweeps should pass a cancelable context and, if they report progress, a
// SweepOptions.Progress callback. The serving layer relies on the
// round-granularity guarantee for graceful drain.
func SweepContext(ctx context.Context, specs []RunSpec, opt SweepOptions) []RunResult {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]RunResult, len(specs))
	if len(specs) == 0 {
		return results
	}
	prog := &sweepProgress{total: len(specs), fn: opt.Progress}

	// Group spec indices by (balancing, algorithm) identity, preserving
	// spec order within each group and group discovery order overall.
	type sweepGroup struct{ indices []int }
	var order []*sweepGroup
	byKey := map[sweepKey]*sweepGroup{}
	for i, spec := range specs {
		key, keyed := groupKey(spec)
		if g := byKey[key]; keyed && g != nil {
			g.indices = append(g.indices, i)
			continue
		}
		g := &sweepGroup{indices: []int{i}}
		order = append(order, g)
		if keyed {
			byKey[key] = g
		}
	}

	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(order) {
		workers = len(order)
	}
	if workers <= 1 {
		core.Occupy()
		defer core.Release()
		for _, g := range order {
			runSweepGroup(ctx, specs, g.indices, results, prog, nil)
		}
		return results
	}

	// Largest groups first, so no runner starts a long group while the
	// others run out of work.
	slices.SortStableFunc(order, func(a, b *sweepGroup) int {
		return cmp.Compare(balancingCost(specs[b.indices[0]].Balancing), balancingCost(specs[a.indices[0]].Balancing))
	})

	tasks := make(chan func())
	lend := newLendables()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			core.Occupy()
			for task := range tasks {
				task()
			}
			core.Release()
			for eng := lend.take(); eng != nil && eng.Help(); eng = lend.take() {
			}
		}()
	}
	// The gap warm-ups go out before the groups, so the runners solve
	// different graphs' gaps side by side instead of one group's runner
	// waiting on another's solve of the same gap.
	for _, b := range gapWarmups(specs) {
		tasks <- func() { warmGap(ctx, b) }
	}
	for _, g := range order {
		// Counted before dispatch, so a runner that has run out of groups
		// knows whether one may still start an engine it could help.
		lending := lendingGroup(specs, g.indices)
		if lending {
			lend.expect(1)
		}
		tasks <- func() {
			runSweepGroup(ctx, specs, g.indices, results, prog, lend)
			if lending {
				lend.expect(-1)
			}
		}
	}
	close(tasks)
	wg.Wait()
	return results
}

// balancingCost is n·d⁺ of a balancing graph: the work of one round on it,
// and of one matvec of its gap solve. A missing graph costs 0.
func balancingCost(b *graph.Balancing) int {
	if b == nil || b.Graph() == nil {
		return 0
	}
	return b.N() * b.DegreePlus()
}

// gapWarmups returns one balancing graph per distinct spectral-gap memo
// entry (graph, d°) that the diffusion specs will ask for, largest first.
// Graphs with an analytic ν₂ have no solve to warm.
func gapWarmups(specs []RunSpec) []*graph.Balancing {
	type gapKey struct {
		g         *graph.Graph
		selfLoops int
	}
	seen := map[gapKey]bool{}
	var warm []*graph.Balancing
	for _, spec := range specs {
		b := spec.Balancing
		if spec.Algorithm == nil || spec.Model != nil || b == nil || b.Graph() == nil {
			continue
		}
		if _, analytic := b.Graph().Nu2(); analytic {
			continue
		}
		key := gapKey{b.Graph(), b.SelfLoops()}
		if !seen[key] {
			seen[key] = true
			warm = append(warm, b)
		}
	}
	slices.SortStableFunc(warm, func(a, b *graph.Balancing) int {
		return cmp.Compare(balancingCost(b), balancingCost(a))
	})
	return warm
}

// warmGap solves b's spectral gap into the memo ahead of the groups that
// read it, unless ctx is already done. A panic is dropped here: the memo
// raises it again for the spec that asks for the same gap, which reports it
// through its Err as runSweepSpec does.
func warmGap(ctx context.Context, b *graph.Balancing) {
	if ctx.Err() != nil {
		return
	}
	defer func() { _ = recover() }()
	spectral.Gap(b)
}

// sweepKey identifies one sweep group: same balancing graph plus the same
// algorithm instance (diffusion specs) or the same model builder (model
// specs). A valid spec sets exactly one of the two, so the two families never
// share a group.
type sweepKey struct {
	b     *graph.Balancing
	algo  core.Balancer
	model core.ModelBuilder
}

// groupKey returns the spec's group key. keyed is false when the spec cannot
// be grouped — a missing graph, neither or both of Algorithm and Model (the
// spec will fail in prepareResult), or an algorithm/builder of a
// non-comparable dynamic type, which cannot serve as a map key; such specs
// each form their own single-spec group.
func groupKey(spec RunSpec) (sweepKey, bool) {
	key := sweepKey{b: spec.Balancing, algo: spec.Algorithm, model: spec.Model}
	if key.b == nil || (key.algo == nil) == (key.model == nil) || !reflect.ValueOf(key).Comparable() {
		return sweepKey{}, false
	}
	return key, true
}

// lendables is the registry of a sweep's running engines that take a lent
// helper, for runners that have run out of groups.
type lendables struct {
	mu      sync.Mutex
	changed sync.Cond // signaled when an engine is added or pending drops
	running []*core.Engine
	pending int // dispatched groups with a spec that lends, not yet finished
}

func newLendables() *lendables {
	l := &lendables{}
	l.changed.L = &l.mu
	return l
}

// lendingGroup reports whether any of the group's specs runs on an engine
// that takes a lent helper (core.Lends).
func lendingGroup(specs []RunSpec, indices []int) bool {
	for _, i := range indices {
		s := specs[i]
		if s.Algorithm != nil && s.Model == nil && s.Balancing != nil && s.Balancing.Graph() != nil && core.Lends(s.Balancing, s.Workers) {
			return true
		}
	}
	return false
}

// add registers a running engine; remove drops it when its run ends (before
// the engine is closed). Both accept nil as a no-op registry.
func (l *lendables) add(e *core.Engine) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.running = append(l.running, e)
	l.changed.Broadcast()
	l.mu.Unlock()
}

func (l *lendables) remove(e *core.Engine) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if i := slices.Index(l.running, e); i >= 0 {
		l.running = slices.Delete(l.running, i, i+1)
	}
	l.mu.Unlock()
}

// expect adds delta to the count of pending lending groups.
func (l *lendables) expect(delta int) {
	l.mu.Lock()
	l.pending += delta
	l.changed.Broadcast()
	l.mu.Unlock()
}

// take hands out the largest running engine by n·d⁺ and drops it from the
// registry, so each engine gets at most one lent runner. With none running
// it waits while a lending group is pending (it may yet start an engine),
// and returns nil once none is.
func (l *lendables) take() *core.Engine {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.running) == 0 && l.pending > 0 {
		l.changed.Wait()
	}
	if len(l.running) == 0 {
		return nil
	}
	best := 0
	for i, e := range l.running {
		if balancingCost(e.Balancing()) > balancingCost(l.running[best].Balancing()) {
			best = i
		}
	}
	e := l.running[best]
	l.running = slices.Delete(l.running, best, best+1)
	return e
}

// runSweepGroup executes one group's specs in order, each on a fresh model.
// A done context short-circuits the remaining specs into cancellation errors.
// Engines that take a lent helper are registered in lend (nil: none) while
// they run.
func runSweepGroup(ctx context.Context, specs []RunSpec, indices []int, results []RunResult, prog *sweepProgress, lend *lendables) {
	for _, i := range indices {
		if ctx.Err() != nil {
			results[i] = RunResult{TargetRound: -1,
				Err: fmt.Errorf("analysis: sweep canceled: %w", context.Cause(ctx))}
		} else {
			res := runSweepSpec(ctx, specs[i], lend)
			// An in-flight spec stopped by the context reports the round
			// loop's "stream canceled"; relabel it so every spec of one
			// canceled sweep — started or not — reads the same.
			var sc *streamCanceledError
			if errors.As(res.Err, &sc) {
				res.Err = fmt.Errorf("analysis: sweep canceled: %w", sc.cause)
			}
			results[i] = res
		}
		prog.specDone()
	}
}

// runSweepSpec runs one spec on a fresh model. Panics — bind-time
// validation in balancers, hostile user implementations — are converted to
// the spec's Err.
func runSweepSpec(ctx context.Context, spec RunSpec, lend *lendables) (res RunResult) {
	defer func() {
		if r := recover(); r != nil {
			res.Err = fmt.Errorf("analysis: sweep spec panicked: %v", r)
		}
	}()

	res, ok := prepareResult(spec)
	if !ok {
		return res
	}
	m, err := newModel(spec)
	if err != nil {
		res.Err = err
		return res
	}
	defer m.Close()
	if eng, ok := m.(*core.Engine); ok && eng.TakesHelper() {
		lend.add(eng)
		defer lend.remove(eng)
	}
	return runContext(ctx, spec, m, res)
}

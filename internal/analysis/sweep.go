package analysis

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"

	"detlb/internal/core"
	"detlb/internal/graph"
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
//   - Specs are grouped by (balancing graph, algorithm) identity — model
//     specs (RunSpec.Model) by (balancing graph, model builder) identity.
//     Each group runs sequentially on one runner, reusing a single engine
//     (or model) across the group's specs via Reset — the worker pool, flat
//     arrays, and bound balancer state are allocated once per group, not
//     once per run. Specs carrying auditors opt out of reuse (auditors are
//     per-run observers) and get a fresh engine.
//   - Groups are fanned out over a bounded runner pool. Concurrency is
//     across groups: within a group, sequential execution guarantees a
//     Balancer instance that keeps per-run state on itself (continuous-mimic,
//     bounded-error, matching) is never bound to two engines at once. Do not
//     share such an instance across specs with *different* balancing graphs
//     in one sweep; give each spec its own instance.
//   - The spectral gap is memoized per graph (see spectral.Gap), so a sweep
//     over repeated graphs pays each power iteration once.
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
// cancellation Err. Long dynamic sweeps should pass a cancelable context and,
// if they report progress, a SweepOptions.Progress callback. The serving
// layer relies on the round-granularity guarantee for graceful drain.
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
		for _, g := range order {
			runSweepGroup(ctx, specs, g.indices, results, prog)
		}
		return results
	}

	groups := make(chan *sweepGroup)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := range groups {
				runSweepGroup(ctx, specs, g.indices, results, prog)
			}
		}()
	}
	for _, g := range order {
		groups <- g
	}
	close(groups)
	wg.Wait()
	return results
}

// sweepKey identifies one reuse group: same balancing graph plus the same
// algorithm instance (diffusion specs) or the same model builder (model
// specs). A valid spec sets exactly one of the two, so the two families never
// share a group.
type sweepKey struct {
	b     *graph.Balancing
	algo  core.Balancer
	model core.ModelBuilder
}

// groupKey returns the spec's reuse key. keyed is false when the spec cannot
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

// sweepCache carries one group's reusable simulator — a diffusion engine or
// a model — between compatible specs.
type sweepCache struct {
	m       core.Model
	workers int
}

// close releases whatever the cache holds; idempotent.
func (c *sweepCache) close() {
	if c.m != nil {
		c.m.Close()
		c.m = nil
	}
}

// runSweepGroup executes one group's specs in order, carrying a reusable
// simulator between compatible specs. A done context short-circuits
// the remaining specs into cancellation errors.
func runSweepGroup(ctx context.Context, specs []RunSpec, indices []int, results []RunResult, prog *sweepProgress) {
	var cache sweepCache
	defer cache.close()
	for _, i := range indices {
		if ctx.Err() != nil {
			results[i] = RunResult{TargetRound: -1,
				Err: fmt.Errorf("analysis: sweep canceled: %w", context.Cause(ctx))}
		} else {
			res := runSweepSpec(ctx, specs[i], &cache)
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

// runSweepSpec runs one spec, reusing the cached simulator (resetting it in
// place) when the spec is compatible with it, replacing it otherwise.
// Panics — bind-time validation in balancers, hostile user implementations —
// are converted to the spec's Err, and the cache is discarded since its
// state is unknown after an unwound run.
func runSweepSpec(ctx context.Context, spec RunSpec, cache *sweepCache) (res RunResult) {
	defer func() {
		if r := recover(); r != nil {
			res.Err = fmt.Errorf("analysis: sweep spec panicked: %v", r)
			cache.close()
		}
	}()

	res, ok := prepareResult(spec)
	if !ok {
		return res
	}

	// Auditors are per-run observers: never share an engine across them.
	if len(spec.Auditors) > 0 {
		m, err := newModel(spec)
		if err != nil {
			res.Err = err
			return res
		}
		defer m.Close()
		return runContext(ctx, spec, m, res)
	}

	if cache.m != nil && cache.workers == spec.Workers {
		if err := cache.m.Reset(spec.Initial); err == nil {
			return runContext(ctx, spec, cache.m, res)
		}
		// Reset declined (wrong vector length, unresettable bound state,
		// illegal state encoding): fall through to a fresh simulator, which
		// surfaces any real error.
	}
	cache.close()
	m, err := newModel(spec)
	if err != nil {
		res.Err = err
		return res
	}
	cache.m, cache.workers = m, spec.Workers
	return runContext(ctx, spec, m, res)
}

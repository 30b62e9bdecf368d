package spectral

import (
	"sync"
	"testing"

	"detlb/internal/graph"
)

// TestGapCacheHitMatchesFresh pins the memoization contract: the cached Gap
// is bit-identical to an uncached recomputation (the Lanczos solver is
// deterministic), and a second Balancing wrapper over the same Graph shares
// the entry.
func TestGapCacheHitMatchesFresh(t *testing.T) {
	g := graph.RandomRegular(96, 8, 5)
	b1 := graph.Lazy(g)
	b2 := graph.Lazy(g) // distinct wrapper, same graph and d°

	first := Gap(b1)
	if again := Gap(b2); again != first {
		t.Fatalf("cache miss across equivalent wrappers: %v vs %v", again, first)
	}
	if fresh := GapFresh(b1); fresh != first {
		t.Fatalf("cached gap %v differs from fresh recomputation %v", first, fresh)
	}
}

// TestGapCacheDistinguishesSelfLoops asserts the cache key includes d°: the
// same graph with different self-loop counts has different gaps.
func TestGapCacheDistinguishesSelfLoops(t *testing.T) {
	g := graph.RandomRegular(64, 6, 2)
	lazy := Gap(graph.Lazy(g))
	eager := Gap(graph.WithLoops(g, 1))
	if lazy == eager {
		t.Fatalf("d°=d and d°=1 gaps should differ, both %v", lazy)
	}
	if got := Gap(graph.Lazy(g)); got != lazy {
		t.Fatalf("lazy entry corrupted: %v vs %v", got, lazy)
	}
	if got := Gap(graph.WithLoops(g, 1)); got != eager {
		t.Fatalf("d°=1 entry corrupted: %v vs %v", got, eager)
	}
}

// TestGapCacheConcurrent hammers one graph from many goroutines; the
// singleflight entry must hand every caller the same value (the race
// detector guards the locking).
func TestGapCacheConcurrent(t *testing.T) {
	g := graph.RandomRegular(80, 8, 9)
	b := graph.Lazy(g)
	want := GapFresh(b)

	var wg sync.WaitGroup
	got := make([]float64, 16)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = Gap(b)
		}(i)
	}
	wg.Wait()
	for i, v := range got {
		if v != want {
			t.Fatalf("goroutine %d got %v, want %v", i, v, want)
		}
	}
}

// TestGapCacheSkipsAnalyticFamilies: families with analytic ν₂ never enter
// the solver cache (the analytic path is already O(1)).
func TestGapCacheSkipsAnalyticFamilies(t *testing.T) {
	lambda2Mu.Lock()
	before := len(lambda2Cache)
	lambda2Mu.Unlock()
	_ = Gap(graph.Lazy(graph.Hypercube(4)))
	_ = Gap(graph.Lazy(graph.Cycle(33)))
	lambda2Mu.Lock()
	after := len(lambda2Cache)
	lambda2Mu.Unlock()
	if after != before {
		t.Fatalf("analytic families grew the solver cache: %d -> %d", before, after)
	}
}

package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestChunkBounds pins the determinism contract documented on chunkBounds:
// the partition of [0, n) is a pure function of (n, chunks), covers the
// range exactly, has no empty chunk, and chunk sizes differ by at most one.
func TestChunkBounds(t *testing.T) {
	for _, tc := range []struct{ n, width int }{
		{1, 1}, {2, 2}, {3, 2}, {7, 3}, {8, 8}, {9, 8}, {10, 4},
		{16, 8}, {100, 7}, {1024, 8}, {1023, 16}, {5, 8}, {64, 64},
	} {
		chunks := tc.width
		if tc.n < chunks {
			chunks = tc.n
		}
		prevHi := 0
		minSize, maxSize := tc.n+1, 0
		for c := 0; c < chunks; c++ {
			lo, hi := chunkBounds(tc.n, chunks, c)
			if lo != prevHi {
				t.Fatalf("n=%d chunks=%d: chunk %d starts at %d, want %d (gap or overlap)", tc.n, chunks, c, lo, prevHi)
			}
			if hi <= lo {
				t.Fatalf("n=%d chunks=%d: chunk %d is empty [%d,%d)", tc.n, chunks, c, lo, hi)
			}
			if size := hi - lo; size < minSize {
				minSize = size
			}
			if size := hi - lo; size > maxSize {
				maxSize = size
			}
			prevHi = hi
		}
		if prevHi != tc.n {
			t.Fatalf("n=%d chunks=%d: partition ends at %d, want %d", tc.n, chunks, prevHi, tc.n)
		}
		if maxSize-minSize > 1 {
			t.Fatalf("n=%d chunks=%d: chunk sizes range [%d,%d], want spread ≤ 1", tc.n, chunks, minSize, maxSize)
		}
		// Stability: recomputing yields identical boundaries.
		for c := 0; c < chunks; c++ {
			lo1, hi1 := chunkBounds(tc.n, chunks, c)
			lo2, hi2 := chunkBounds(tc.n, chunks, c)
			if lo1 != lo2 || hi1 != hi2 {
				t.Fatalf("n=%d chunks=%d: chunk %d unstable", tc.n, chunks, c)
			}
		}
	}
}

// TestRunRoundCoverageAndBarrier drives a kernel's crew directly and
// asserts that (a) each phase visits every index exactly once per round,
// and (b) no worker enters the second phase before every worker finished
// the first — the property that makes the fold of a wide engine round safe.
func TestRunRoundCoverageAndBarrier(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	k := NewKernel(4)
	defer k.Close()

	const n = 1037
	var phase1Done atomic.Int64
	visited1 := make([]int32, n)
	visited2 := make([]int32, n)
	for round := 0; round < 50; round++ {
		phase1Done.Store(0)
		first := func(lo, hi int) {
			for i := lo; i < hi; i++ {
				visited1[i]++
			}
			phase1Done.Add(int64(hi - lo))
		}
		second := func(lo, hi int) {
			if done := phase1Done.Load(); done != n {
				t.Errorf("round %d: phase 2 started with only %d/%d phase-1 indices done", round, done, n)
			}
			for i := lo; i < hi; i++ {
				visited2[i]++
			}
		}
		k.RunRound(n, first, second)
		for i := 0; i < n; i++ {
			if visited1[i] != int32(round+1) || visited2[i] != int32(round+1) {
				t.Fatalf("round %d: index %d visited %d/%d times, want %d", round, i, visited1[i], visited2[i], round+1)
			}
		}
	}
}

// TestRunRoundSinglePhase checks the nil-second-phase dispatch.
func TestRunRoundSinglePhase(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	k := NewKernel(3)
	defer k.Close()

	const n = 100
	var sum atomic.Int64
	var calls atomic.Int32
	k.RunRound(n, func(lo, hi int) {
		calls.Add(1)
		for i := lo; i < hi; i++ {
			sum.Add(int64(i))
		}
	}, nil)
	if want := int64(n * (n - 1) / 2); sum.Load() != want {
		t.Fatalf("sum %d, want %d", sum.Load(), want)
	}
	if calls.Load() != 3 {
		t.Fatalf("ran %d chunks, want 3", calls.Load())
	}
}

// TestPoolCloseIdempotent verifies Close can be called repeatedly, that the
// kernel's goroutines are gone after it, and that a serial kernel
// (width ≤ 1) needs no pool at all.
func TestPoolCloseIdempotent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	before := runtime.NumGoroutine()
	k := NewKernel(4)
	k.Close()
	k.Close()
	// Close waits for every helper's Done; the goroutine itself ends a few
	// instructions later.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the kernel", runtime.NumGoroutine(), before)
		}
	}

	s := NewKernel(0)
	ran := false
	s.RunRound(5, func(lo, hi int) { ran = ran || (lo == 0 && hi == 5) }, nil)
	if !ran {
		t.Fatal("serial path did not run [0,5) in one call")
	}
	s.Close()
}

// TestPoolConcurrentRounds hammers the pool from sequential rounds with
// varying n to shake out barrier-generation bugs under the race detector.
func TestPoolConcurrentRounds(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	k := NewKernel(4)
	defer k.Close()

	var mu sync.Mutex
	total := 0
	for round := 1; round <= 200; round++ {
		n := 1 + (round*37)%977
		count := 0
		k.RunRound(n,
			func(lo, hi int) {
				mu.Lock()
				count += hi - lo
				mu.Unlock()
			},
			func(lo, hi int) {
				mu.Lock()
				total += hi - lo
				mu.Unlock()
			})
		if count != n {
			t.Fatalf("round %d: phase 1 covered %d of %d", round, count, n)
		}
	}
}

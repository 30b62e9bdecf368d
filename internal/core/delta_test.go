package core

import (
	"testing"

	"detlb/internal/graph"
)

func TestApplyDeltaAdjustsLoads(t *testing.T) {
	b := graph.Lazy(graph.Hypercube(3))
	x1 := make([]int64, 8)
	for i := range x1 {
		x1[i] = 10
	}
	eng := MustEngine(b, evenSplit{}, x1)
	defer eng.Close()

	delta := make([]int64, 8)
	delta[3] = 100
	delta[5] = -4
	if err := eng.ApplyDelta(delta); err != nil {
		t.Fatal(err)
	}
	if got := eng.Loads()[3]; got != 110 {
		t.Fatalf("node 3 load = %d", got)
	}
	if got := eng.TotalLoad(); got != 8*10+96 {
		t.Fatalf("total = %d", got)
	}
	if eng.Round() != 0 {
		t.Fatal("ApplyDelta must not count as a round")
	}
}

func TestApplyDeltaRejectsWrongLength(t *testing.T) {
	b := graph.Lazy(graph.Hypercube(3))
	eng := MustEngine(b, evenSplit{}, make([]int64, 8))
	defer eng.Close()
	if err := eng.ApplyDelta(make([]int64, 7)); err == nil {
		t.Fatal("wrong-length delta must be rejected")
	}
}

// TestApplyDeltaZeroAlloc pins the injection hook onto the engine's 0-alloc
// steady-state contract.
func TestApplyDeltaZeroAlloc(t *testing.T) {
	b := graph.Lazy(graph.RandomRegular(128, 8, 1))
	eng := MustEngine(b, evenSplit{}, pointMass(128, 4096))
	defer eng.Close()
	delta := make([]int64, 128)
	delta[7] = 13
	allocs := testing.AllocsPerRun(100, func() {
		if err := eng.ApplyDelta(delta); err != nil {
			t.Fatal(err)
		}
		if err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ApplyDelta+Step allocated %.1f/op", allocs)
	}
}

// TestApplyDeltaBitIdenticalAcrossWorkers: a shocked trajectory is the same
// pure function of (x1, deltas) at every worker count.
func TestApplyDeltaBitIdenticalAcrossWorkers(t *testing.T) {
	b := graph.Lazy(graph.RandomRegular(96, 8, 3))
	x1 := pointMass(96, 2048)
	run := func(workers int) []int64 {
		eng := MustEngine(b, evenSplit{}, x1, WithWorkers(workers))
		defer eng.Close()
		delta := make([]int64, 96)
		for round := 1; round <= 40; round++ {
			if round == 15 {
				delta[40] = 999
				if err := eng.ApplyDelta(delta); err != nil {
					t.Fatal(err)
				}
				delta[40] = 0
			}
			if err := eng.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return append([]int64(nil), eng.Loads()...)
	}
	ref := run(0)
	for _, w := range []int{1, 2, 8} {
		got := run(w)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: load[%d] = %d, serial %d", w, i, got[i], ref[i])
			}
		}
	}
}

// TestConservationAuditorTracksDeltas: the auditor's expected total follows
// injections instead of reporting them as conservation violations.
func TestConservationAuditorTracksDeltas(t *testing.T) {
	b := graph.Lazy(graph.Hypercube(4))
	aud := NewConservationAuditor()
	eng := MustEngine(b, evenSplit{}, pointMass(16, 160), WithAuditor(aud))
	defer eng.Close()

	if err := eng.Step(); err != nil {
		t.Fatal(err)
	}
	delta := make([]int64, 16)
	delta[2] = 64
	delta[9] = -8
	if err := eng.ApplyDelta(delta); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := eng.Step(); err != nil {
			t.Fatalf("audited step after injection: %v", err)
		}
	}
	if eng.TotalLoad() != 160+56 {
		t.Fatalf("total = %d", eng.TotalLoad())
	}

	// Injection before the first Observe: the latched total must be the
	// post-injection one.
	aud2 := NewConservationAuditor()
	eng2 := MustEngine(b, evenSplit{}, pointMass(16, 160), WithAuditor(aud2))
	defer eng2.Close()
	if err := eng2.ApplyDelta(delta); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := eng2.Step(); err != nil {
			t.Fatalf("audited step after round-0 injection: %v", err)
		}
	}
}

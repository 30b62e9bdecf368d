package protocol

import (
	"reflect"
	"strings"
	"testing"

	"detlb/internal/core"
)

// opinions builds a ±2 vector with a strong-positive agents and n−a
// strong-negative ones.
func opinions(n, a int) []int64 {
	x := make([]int64, n)
	for i := range x {
		if i < a {
			x[i] = StrongA
		} else {
			x[i] = StrongB
		}
	}
	return x
}

// tokenRing places count tokens on the first count nodes of an n-ring.
func tokenRing(n, count int) []int64 {
	x := make([]int64, n)
	for i := 0; i < count; i++ {
		x[i] = 1
	}
	return x
}

func TestInteractConservesMargin(t *testing.T) {
	vals := []int64{StrongA, WeakA, WeakB, StrongB}
	margin2 := func(a, b int64) int64 { return Margin([]int64{a, b}) }
	for _, a := range vals {
		for _, b := range vals {
			na, nb := interact(a, b)
			if margin2(na, nb) != margin2(a, b) {
				t.Errorf("interact(%d,%d) = (%d,%d): margin %d -> %d",
					a, b, na, nb, margin2(a, b), margin2(na, nb))
			}
			if !validOpinion(na) || !validOpinion(nb) {
				t.Errorf("interact(%d,%d) = (%d,%d): left the state space", a, b, na, nb)
			}
		}
	}
}

func validOpinion(v int64) bool {
	return v == StrongA || v == WeakA || v == WeakB || v == StrongB
}

func TestMajorityConvergesToInitialMajority(t *testing.T) {
	x1 := opinions(64, 40) // margin +16: consensus must be positive
	mb := NewMajority(64, 7)
	m, err := mb.New(x1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < mb.DefaultHorizon(64); r++ {
		if err := m.Step(); err != nil {
			t.Fatalf("round %d: %v", r+1, err)
		}
		if Unconverged.Measure(m.State()) == 0 {
			break
		}
	}
	if got := Unconverged.Measure(m.State()); got != 0 {
		t.Fatalf("no consensus within the default horizon: %d unconverged", got)
	}
	for u, v := range m.State() {
		if v <= 0 {
			t.Fatalf("node %d holds %d after positive-majority consensus", u, v)
		}
	}
	if got := Margin(m.State()); got != 16 {
		t.Fatalf("margin not conserved: got %d, want 16", got)
	}
}

func TestMajorityResetReplaysBitIdentically(t *testing.T) {
	x1 := opinions(48, 20)
	mb := NewMajority(48, 11)

	trajectory := func(m interface {
		Step() error
		State() []int64
	}) [][]int64 {
		var tr [][]int64
		for r := 0; r < 30; r++ {
			if err := m.Step(); err != nil {
				t.Fatal(err)
			}
			tr = append(tr, append([]int64(nil), m.State()...))
		}
		return tr
	}

	fresh, err := mb.New(x1, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := trajectory(fresh)

	reused, err := mb.New(opinions(48, 31), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := reused.Step(); err != nil {
		t.Fatal(err)
	}
	if err := reused.Reset(x1); err != nil {
		t.Fatal(err)
	}
	if got := trajectory(reused); !reflect.DeepEqual(got, want) {
		t.Fatal("trajectory after Reset differs from a fresh machine's")
	}
}

func TestMajorityRejectsBadStates(t *testing.T) {
	mb := NewMajority(8, 1)
	if _, err := mb.New([]int64{2, 2, 2, 2, -2, -2, -2, 3}, 0); err == nil {
		t.Fatal("state value 3 accepted")
	}
	if _, err := mb.New(make([]int64, 4), 0); err == nil {
		t.Fatal("wrong-length / zero-valued vector accepted")
	}
}

func TestMarginAuditorCatchesViolation(t *testing.T) {
	a := NewMarginAuditor()
	a.ResetState([]int64{StrongA, StrongB})
	if err := a.Observe(1, []int64{StrongA, StrongA}); err == nil {
		t.Fatal("margin violation not reported")
	} else if !strings.Contains(err.Error(), "margin") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestHermanStabilizesToOneToken(t *testing.T) {
	for _, workers := range []int{0, 8} {
		m, err := NewHerman(3).New(tokenRing(33, 9), workers)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		limit := NewHerman(3).DefaultHorizon(33)
		for r := 0; r < limit; r++ {
			if err := m.Step(); err != nil {
				t.Fatalf("workers=%d round %d: %v", workers, r+1, err)
			}
			if TokenCount(m.State()) == 1 {
				break
			}
		}
		if got := TokenCount(m.State()); got != 1 {
			t.Fatalf("workers=%d: %d tokens after the default horizon", workers, got)
		}
	}
}

func TestHermanDeterministicAcrossWorkers(t *testing.T) {
	x1 := tokenRing(64, 9)
	var want [][]int64
	for _, workers := range []int{0, 1, 2, 8} {
		m, err := NewHerman(5).New(x1, workers)
		if err != nil {
			t.Fatal(err)
		}
		var got [][]int64
		for r := 0; r < 50; r++ {
			if err := m.Step(); err != nil {
				t.Fatal(err)
			}
			got = append(got, append([]int64(nil), m.State()...))
		}
		m.Close()
		if want == nil {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d trajectory differs from serial", workers)
		}
	}
}

func TestHermanResetReplaysBitIdentically(t *testing.T) {
	hb := NewHerman(9)
	x1 := tokenRing(40, 7)
	fresh, err := hb.New(x1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	var want [][]int64
	for r := 0; r < 25; r++ {
		if err := fresh.Step(); err != nil {
			t.Fatal(err)
		}
		want = append(want, append([]int64(nil), fresh.State()...))
	}

	reused, err := hb.New(tokenRing(40, 11), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer reused.Close()
	if err := reused.Step(); err != nil {
		t.Fatal(err)
	}
	if err := reused.Reset(x1); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 25; r++ {
		if err := reused.Step(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(append([]int64(nil), reused.State()...), want[r]) {
			t.Fatalf("round %d differs after Reset", r+1)
		}
	}
}

func TestHermanRejectsIllegalConfigurations(t *testing.T) {
	hb := NewHerman(1)
	if _, err := hb.New(tokenRing(16, 4), 0); err == nil {
		t.Fatal("even token count accepted")
	}
	if _, err := hb.New([]int64{1, 0, 2, 0, 1}, 0); err == nil {
		t.Fatal("state value 2 accepted")
	}
	if _, err := hb.New(nil, 0); err == nil {
		t.Fatal("empty ring accepted")
	}
	m, err := hb.New(tokenRing(16, 5), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Reset(tokenRing(16, 6)); err == nil {
		t.Fatal("even token count accepted on Reset")
	}
}

// Neither protocol has a load-injection semantics — adding to an opinion or
// token encoding would manufacture or destroy votes and break Herman's parity
// invariant — so neither machine may offer the capability the harness uses
// to apply workload schedules.
func TestProtocolsAreNotInjectors(t *testing.T) {
	maj, err := NewMajority(8, 1).New(opinions(8, 5), 0)
	if err != nil {
		t.Fatal(err)
	}
	her, err := NewHerman(1).New(tokenRing(16, 5), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []core.Model{maj, her} {
		if _, ok := m.(core.Injector); ok {
			t.Errorf("%T implements core.Injector", m)
		}
	}
}

func TestTokenAuditorCatchesViolations(t *testing.T) {
	a := NewTokenAuditor()
	a.ResetState([]int64{1, 1, 1, 0})
	if err := a.Observe(1, []int64{1, 1, 1, 1}); err == nil {
		t.Fatal("count increase not reported")
	}
	a.ResetState([]int64{1, 1, 1, 0})
	if err := a.Observe(1, []int64{1, 1, 0, 0}); err == nil {
		t.Fatal("parity change not reported")
	}
	a.ResetState([]int64{1, 1, 0, 0})
	if err := a.Observe(1, []int64{0, 0, 0, 0}); err == nil {
		t.Fatal("extinction not reported")
	}
	a.ResetState([]int64{1, 1, 1, 0})
	if err := a.Observe(1, []int64{1, 0, 0, 0}); err != nil {
		t.Fatalf("legal annihilation reported: %v", err)
	}
}

func TestMajorityStepAllocs(t *testing.T) {
	m, err := NewMajority(64, 1).New(opinions(64, 40), 0)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("majority Step allocates: %v allocs/op", allocs)
	}
}

func TestHermanStepAllocs(t *testing.T) {
	m, err := NewHerman(1).New(tokenRing(64, 9), 0)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("herman Step allocates: %v allocs/op", allocs)
	}
}

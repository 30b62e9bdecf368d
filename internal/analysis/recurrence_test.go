package analysis

import (
	"context"
	"reflect"
	"testing"

	"detlb/internal/balancer"
	"detlb/internal/core"
	"detlb/internal/graph"
	"detlb/internal/weighted"
	"detlb/internal/workload"
)

// steppedOnly wraps a model and hides all its optional capabilities,
// core.Recurrent among them, so the round loop steps every round.
type steppedOnly struct{ core.Model }

// streamed is one yielded observation of a run, keyed by its round.
type streamed struct {
	Round int
	Snap  Snapshot
}

// streamSteppedOnly runs spec through the round loop on a fresh model hidden
// behind steppedOnly: the reference every cycle fast-forward must match.
func streamSteppedOnly(t *testing.T, spec RunSpec) (RunResult, []streamed) {
	t.Helper()
	res, ok := prepareResult(spec)
	if !ok {
		return res, nil
	}
	m, err := newModel(spec)
	if err != nil {
		res.Err = err
		return res, nil
	}
	defer m.Close()
	var out []streamed
	for r, s := range streamEngine(context.Background(), spec, steppedOnly{m}, &res) {
		out = append(out, streamed{r, s})
	}
	return res, out
}

// streamSpec runs spec through the public streaming entry point.
func streamSpec(spec RunSpec) (RunResult, []streamed) {
	var res RunResult
	var out []streamed
	for r, s := range StreamInto(context.Background(), spec, &res) {
		out = append(out, streamed{r, s})
	}
	return res, out
}

// checkMatchesStepping holds spec's streamed run, result and every snapshot,
// to the same spec stepped round by round, and the cycle it reports to the
// engine's states and the stepped values.
func checkMatchesStepping(t *testing.T, spec RunSpec) RunResult {
	t.Helper()
	wantRes, want := streamSteppedOnly(t, spec)
	gotRes, got := streamSpec(spec)
	if gotRes.Cycle != nil {
		checkCycle(t, spec, gotRes.Cycle, want)
	}
	// Stepping every round finds no cycle; everything else must agree.
	wantRes.Cycle = gotRes.Cycle
	if !reflect.DeepEqual(gotRes, wantRes) {
		t.Fatalf("result differs from stepping every round:\n got %+v\nwant %+v", gotRes, wantRes)
	}
	if !reflect.DeepEqual(got, want) {
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("snapshot %d differs from stepping every round: got %+v, want %+v", i, got[i], want[i])
			}
		}
		t.Fatalf("stream yielded %d snapshots, stepping every round yields %d", len(got), len(want))
	}
	return gotRes
}

// checkCycle holds a reported cycle to a fresh model, whose state after
// round Start must first recur Period rounds later, and to the values
// streamed over that period, whose extremes are Min and Max.
func checkCycle(t *testing.T, spec RunSpec, c *Cycle, stepped []streamed) {
	t.Helper()
	if c.Start < 1 || c.Period < 1 || c.Start+c.Period >= len(stepped) {
		t.Fatalf("cycle %+v outside the %d streamed rounds", *c, len(stepped)-1)
	}
	m, err := newModel(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	eng := m.(core.Recurrent)
	for range c.Start {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	snap := eng.AppendState(nil)
	lo, hi := stepped[c.Start+1].Snap.Discrepancy, stepped[c.Start+1].Snap.Discrepancy
	for r := c.Start + 1; r <= c.Start+c.Period; r++ {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
		if r < c.Start+c.Period && eng.StateEquals(snap) {
			t.Fatalf("cycle %+v: the state after round %d recurs after %d rounds", *c, c.Start, r-c.Start)
		}
		if stepped[r].Round != r {
			t.Fatalf("snapshot %d is of round %d", r, stepped[r].Round)
		}
		lo, hi = min(lo, stepped[r].Snap.Discrepancy), max(hi, stepped[r].Snap.Discrepancy)
	}
	if !eng.StateEquals(snap) {
		t.Fatalf("cycle %+v: the state after round %d does not recur %d rounds later", *c, c.Start, c.Period)
	}
	if lo != c.Min || hi != c.Max {
		t.Fatalf("cycle %+v: values over one period span %d..%d", *c, lo, hi)
	}
}

// FuzzRecurrenceMatchesStepping: a static run that fast-forwards through a
// found cycle yields exactly the result and snapshots of the same run
// stepped every round, for every Recurrent balancer, on random regular
// graphs and cycles, from any loads (negative ones included), under every
// stopping rule and sampling interval and at every worker count. The cycle
// the run reports is held to a fresh engine's states.
func FuzzRecurrenceMatchesStepping(f *testing.F) {
	f.Fuzz(func(t *testing.T, shape, nIn, dIn, algoIn uint8, seed int64,
		rounds uint16, patience, sample uint8, target int16, workers uint8, loads []byte) {
		var g *graph.Graph
		if shape%2 == 0 {
			d := 3 + int(dIn)%4
			n := d + 1 + int(nIn)%(64-d)
			if n*d%2 != 0 {
				n++
			}
			g = graph.RandomRegular(n, d, seed)
		} else {
			g = graph.Cycle(3 + int(nIn)%62)
		}
		b := graph.Lazy(g)
		n := g.N()
		var algo core.Balancer
		switch algoIn % 6 {
		case 0:
			algo = balancer.NewSendFloor()
		case 1:
			algo = balancer.NewSendRound()
		case 2:
			algo = balancer.NewBiasedRounding()
		case 3:
			algo = balancer.NewRotorRouter()
		case 4:
			rotors := make([]int, n)
			for u := range rotors {
				rotors[u] = int((uint64(seed) >> (u % 64)) % uint64(b.DegreePlus()))
			}
			algo = &balancer.RotorRouter{InitialRotor: rotors}
		default:
			algo = balancer.NewGoodS(1 + int(uint64(seed)%uint64(b.SelfLoops())))
		}
		x := make([]int64, n)
		if len(loads) > 0 {
			for u := range x {
				x[u] = int64(int16(uint16(loads[(2*u)%len(loads)]) | uint16(loads[(2*u+1)%len(loads)])<<8))
			}
		}
		spec := RunSpec{
			Balancing:   b,
			Algorithm:   algo,
			Initial:     x,
			MaxRounds:   1 + int(rounds)%3000,
			Patience:    int(patience),
			SampleEvery: int(sample % 8),
			Workers:     int(workers % 3),
		}
		if target >= 0 {
			spec.TargetDiscrepancy = Target(int64(target))
		}
		checkMatchesStepping(t, spec)
	})
}

// TestRunCycleFixedPoint: a balanced uniform vector under send-floor is a
// fixed point of the full state, found from the first snapshot on.
func TestRunCycleFixedPoint(t *testing.T) {
	res := Run(RunSpec{
		Balancing: graph.Lazy(graph.Cycle(8)), Algorithm: balancer.NewSendFloor(),
		Initial: workload.Uniform(8, 12), MaxRounds: 100,
	})
	if want := (Cycle{Start: 1, Period: 1}); res.Cycle == nil || *res.Cycle != want {
		t.Fatalf("cycle %+v, want %+v", res.Cycle, want)
	}
}

// TestRunCycleConvergedSendRound: after convergence the stateless
// SEND([x/d⁺]) settles into a short cycle at discrepancy O(d).
func TestRunCycleConvergedSendRound(t *testing.T) {
	b := graph.Lazy(graph.Hypercube(4))
	res := Run(RunSpec{
		Balancing: b, Algorithm: balancer.NewSendRound(),
		Initial: workload.PointMass(16, 0, 16*8+3), MaxRounds: 7000,
	})
	if res.Cycle == nil {
		t.Fatal("converged send-round should cycle within the horizon")
	}
	if res.Cycle.Max > int64(2*b.Degree()) {
		t.Fatalf("converged cycle %+v", *res.Cycle)
	}
}

// TestDetectOrbitRespectsBound: no cycle is reported when the run ends
// before one closes; a huge point mass on a big cycle is not periodic
// within 5 rounds.
func TestDetectOrbitRespectsBound(t *testing.T) {
	res := Run(RunSpec{
		Balancing: graph.Lazy(graph.Cycle(64)), Algorithm: balancer.NewRotorRouter(),
		Initial: workload.PointMass(64, 0, 100000), MaxRounds: 5,
	})
	if res.Err != nil || res.Cycle != nil {
		t.Fatalf("cycle %+v, err %v; want neither", res.Cycle, res.Err)
	}
}

// TestDetectOrbitSurvivesFailedVerification: rotor-router* on cycle(16)
// repeats its load vector while its rotors differ. It runs per node, so
// it is not core.Recurrent and its hidden state keeps it from the cycle
// detector: the run completes and reports no cycle.
func TestDetectOrbitSurvivesFailedVerification(t *testing.T) {
	res := Run(RunSpec{
		Balancing: graph.Lazy(graph.Cycle(16)), Algorithm: balancer.NewRotorRouterStar(),
		Initial: workload.PointMass(16, 0, 123), MaxRounds: 2000,
	})
	if res.Err != nil || res.Cycle != nil {
		t.Fatalf("cycle %+v, err %v; want neither", res.Cycle, res.Err)
	}
}

// TestWeightedCycleMatchesStepping: a weighted-token run, both dealers and a
// weight mix with zero weights, closes its full-state cycle and gives the
// result and snapshots of stepping every round, the cycle set aside.
func TestWeightedCycleMatchesStepping(t *testing.T) {
	b := graph.WithLoops(graph.Hypercube(4), 5)
	weights := make([]int64, 300)
	for i := range weights {
		weights[i] = int64(i*7) % 9
	}
	for _, dealer := range []weighted.Dealer{weighted.RotorDealer{}, weighted.HalfDealer{}} {
		mb, err := weighted.NewBuilder(b, dealer, weighted.SpreadTokens(16, 3, weights))
		if err != nil {
			t.Fatal(err)
		}
		res := checkMatchesStepping(t, RunSpec{
			Balancing: b, Model: mb, Initial: mb.Initial(), MaxRounds: 2000, SampleEvery: 7,
		})
		if res.Err != nil || res.Cycle == nil {
			t.Fatalf("%s: cycle %+v, err %v; want a cycle", dealer.Name(), res.Cycle, res.Err)
		}
	}
}

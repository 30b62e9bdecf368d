package analysis

import (
	"context"
	"reflect"
	"testing"

	"detlb/internal/balancer"
	"detlb/internal/core"
	"detlb/internal/graph"
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
// to the same spec stepped round by round.
func checkMatchesStepping(t *testing.T, spec RunSpec) RunResult {
	t.Helper()
	wantRes, want := streamSteppedOnly(t, spec)
	gotRes, got := streamSpec(spec)
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

// FuzzRecurrenceMatchesStepping: a static run that fast-forwards through a
// found cycle yields exactly the result and snapshots of the same run
// stepped every round, for every Recurrent balancer, on random regular
// graphs and cycles, from any loads (negative ones included), under every
// stopping rule and sampling interval and at every worker count.
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

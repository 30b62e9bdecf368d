package core

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"detlb/internal/graph"
)

// flatMaskSplit is a bulk balancer whose extra tokens set mask bits: node u
// sends ⌊x/d⁺⌋ over every arc plus one extra token over each of the next
// min(x mod d⁺, d) arcs from an offset that depends on u and x, so wide
// rounds decode masks of every shape.
type flatMaskSplit struct{ evenSplit }

func (flatMaskSplit) Name() string { return "mask-split" }

func (flatMaskSplit) BindFlat(b *graph.Balancing) RangeDistributor {
	return flatMaskRange{d: b.Degree(), dplus: b.DegreePlus()}
}

type flatMaskRange struct{ d, dplus int }

func (r flatMaskRange) DistributeRange(x, bp, kept []int64, lo, hi int) {
	for u := lo; u < hi; u++ {
		share := FloorShare(x[u], r.dplus)
		extra := min(int(x[u]-share*int64(r.dplus)), r.d)
		off := (u*7 + int(x[u]&63)) % r.d
		var mask uint64
		for k := 0; k < extra; k++ {
			mask |= 1 << ((off + k) % r.d)
		}
		bp[2*u] = share
		bp[2*u+1] = int64(mask)
		kept[u] = x[u] - int64(r.d)*share - int64(extra)
	}
}

// panicOnChunk panics in the distribute call of any chunk that does not
// start at node 0 — a helper's chunk of a wide round.
type panicOnChunk struct{ flatMaskSplit }

func (panicOnChunk) BindFlat(b *graph.Balancing) RangeDistributor {
	return panicRange{flatMaskRange{d: b.Degree(), dplus: b.DegreePlus()}}
}

type panicRange struct{ flatMaskRange }

func (r panicRange) DistributeRange(x, bp, kept []int64, lo, hi int) {
	if lo > 0 {
		panic("helper chunk")
	}
	r.flatMaskRange.DistributeRange(x, bp, kept, lo, hi)
}

// widthEngine builds the engine kinds a wide round must match the serial
// round on: the bulk push, the bulk path with an auditor and with flow
// tracking (materialized sends), the per-node path with per-self-loop
// auditing, and a faulted bulk engine.
func widthEngine(t testing.TB, kind int, b *graph.Balancing, x []int64, fail [][2]int, opts ...Option) *Engine {
	t.Helper()
	var eng *Engine
	switch kind {
	case 0:
		eng = MustEngine(b, flatMaskSplit{}, x, opts...)
	case 1:
		eng = MustEngine(b, flatMaskSplit{}, x, append(opts, WithAuditor(NewConservationAuditor()))...)
	case 2:
		eng = MustEngine(b, flatMaskSplit{}, x, append(opts, WithFlowTracking())...)
	case 3:
		eng = MustEngine(b, evenSplit{}, x, append(opts, WithAuditor(NewMinShareAuditor()))...)
	default:
		eng = MustEngine(b, flatMaskSplit{}, x, opts...)
		if _, err := eng.ApplyTopologyDelta(TopologyDelta{FailLinks: fail}); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

// FuzzWidthScheduleMatchesSerial steps an engine whose width changes every
// round — a fuzzed schedule of widths 1 to 4 — against a serial engine and
// requires identical loads, cumulative flows and per-arc sends after every
// round, for every engine kind, and the serial engine to conserve its
// tokens. Every load is a fuzzed level plus a per-node deviation below
// spread+1, so a small spread starts the engines near-uniform and chunked
// rounds push mostly nodes on the round's shift.
func FuzzWidthScheduleMatchesSerial(f *testing.F) {
	f.Add(uint8(0), uint8(40), uint8(6), uint8(3), int64(1), []byte{2, 1, 4, 3, 2, 2, 1, 4}, int32(0), uint16(65535))
	f.Add(uint8(1), uint8(33), uint8(9), uint8(0), int64(2), []byte{4, 4, 1, 2}, int32(0), uint16(65535))
	f.Add(uint8(2), uint8(64), uint8(12), uint8(12), int64(3), []byte{3, 1, 2}, int32(0), uint16(65535))
	f.Add(uint8(3), uint8(18), uint8(5), uint8(2), int64(4), []byte{2, 3, 4, 1, 1, 2}, int32(0), uint16(65535))
	f.Add(uint8(4), uint8(50), uint8(8), uint8(1), int64(5), []byte{1, 2, 3, 4, 2}, int32(0), uint16(65535))
	f.Fuzz(func(t *testing.T, kindRaw, nRaw, dRaw, loopsRaw uint8, seed int64, schedule []byte, level int32, spread uint16) {
		if len(schedule) == 0 || len(schedule) > 64 {
			return
		}
		d := 3 + int(dRaw%14)
		n := d + 1 + int(nRaw%96)
		if n*d%2 != 0 {
			n++
		}
		g := graph.RandomRegular(n, d, seed)
		b, err := graph.NewBalancing(g, int(loopsRaw)%(d+1))
		if err != nil {
			t.Skip(err)
		}
		x := make([]int64, n)
		var total int64
		for u := range x {
			dev := (seed>>(u%32)&0xff)*int64(u+1)%4099 + int64(u%5)
			x[u] = int64(level) + dev%(int64(spread)+1)
			total += x[u]
		}
		fail := [][2]int{{0, int(g.Heads()[0])}, {n - 1, int(g.Heads()[(n-1)*d])}}

		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
		kind := int(kindRaw % 5)
		want := widthEngine(t, kind, b, x, fail)
		wide := widthEngine(t, kind, b, x, fail, WithWorkers(4))
		defer wide.Close()
		for r, w := range schedule {
			// Seat 1..w-1 for this round; the fixed crew's other helpers
			// sit it out.
			wide.crew.seated.Store(int32(w % 4))
			if err := want.Step(); err != nil {
				t.Fatalf("serial round %d: %v", r+1, err)
			}
			if err := wide.Step(); err != nil {
				t.Fatalf("round %d at width %d: %v", r+1, wide.width(), err)
			}
			if got := want.TotalLoad(); got != total {
				t.Fatalf("round %d: serial engine holds %d tokens, want %d", r+1, got, total)
			}
			if !slices.Equal(wide.Loads(), want.Loads()) {
				t.Fatalf("round %d at width %d: loads %v, want %v", r+1, int(w%4)+1, wide.Loads(), want.Loads())
			}
			if !slices.Equal(wide.flowsFlat, want.flowsFlat) || !slices.Equal(wide.sendsFlat, want.sendsFlat) {
				t.Fatalf("round %d at width %d: flows or sends differ", r+1, int(w%4)+1)
			}
		}
		for s := 1; s < len(wide.crew.seats); s++ {
			if slices.ContainsFunc(wide.crew.seats[s].acc, func(v int64) bool { return v != 0 }) {
				t.Fatalf("seat %d's accumulator is not cleared between rounds", s)
			}
		}
	})
}

// lendable builds a bulk engine large enough to take a lent helper.
func lendable(t *testing.T) (*Engine, *Engine) {
	t.Helper()
	b := graph.Lazy(graph.Hypercube(10))
	if b.N()*b.DegreePlus() < lendCost {
		t.Fatalf("hypercube:10 has n·d⁺ %d below lendCost %d", b.N()*b.DegreePlus(), lendCost)
	}
	x := make([]int64, b.N())
	for u := range x {
		x[u] = int64(u*u) % 1031
	}
	eng := MustEngine(b, flatMaskSplit{}, x)
	if !eng.TakesHelper() {
		t.Fatal("engine above lendCost takes no helper")
	}
	return eng, MustEngine(b, flatMaskSplit{}, x)
}

// waitSeated waits until a goroutine has taken the engine's helper seat.
func waitSeated(t *testing.T, eng *Engine) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); eng.crew.seated.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("helper never took the seat")
		}
		runtime.Gosched()
	}
}

// TestHelpRespectsBudget pins the helper budget: Help refuses while every
// slot is occupied, a seated helper widens rounds to 2, rounds fall back to
// width 1 while the budget is overbooked, and Close sends the helper home.
// Every round matches the serial engine.
func TestHelpRespectsBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	eng, ref := lendable(t)
	defer eng.Close()
	small := MustEngine(graph.Lazy(graph.Cycle(16)), flatMaskSplit{}, pointMass(16, 100))
	if small.TakesHelper() || small.Help() {
		t.Fatal("an engine below lendCost took a helper")
	}
	fixed := MustEngine(eng.Balancing(), flatMaskSplit{}, eng.Loads(), WithWorkers(2))
	if fixed.TakesHelper() || fixed.Help() {
		t.Fatal("a fixed-width engine took a lent helper")
	}
	fixed.Close()

	Occupy() // the stepping goroutine's own slot
	defer Release()
	Occupy()
	if eng.Help() {
		t.Fatal("Help seated a helper with the budget used up")
	}
	Release()

	helped := make(chan bool)
	go func() { helped <- eng.Help() }()
	waitSeated(t, eng)
	step := func(wantWidth int) {
		t.Helper()
		if got := eng.width(); got != wantWidth {
			t.Fatalf("round width %d, want %d", got, wantWidth)
		}
		if err := eng.Step(); err != nil {
			t.Fatal(err)
		}
		if err := ref.Step(); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(eng.Loads(), ref.Loads()) {
			t.Fatalf("round %d: loads differ from the serial engine", eng.Round())
		}
	}
	step(2)
	step(2)
	Occupy() // a third simulation goroutine on two CPUs
	step(1)
	Release()
	step(2)
	if eng.Help() {
		t.Fatal("a second helper took the engine's only seat")
	}
	eng.Close()
	select {
	case ok := <-helped:
		if !ok {
			t.Fatal("Help returned false after serving")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Help did not return after Close")
	}
	if eng.Help() {
		t.Fatal("Help seated a helper on a closed engine")
	}
}

// TestHelperPanicReachesCaller checks that a panic in a helper's chunk is
// raised again on the stepping goroutine, for a lent helper and for a fixed
// crew, and that the helpers still shut down.
func TestHelperPanicReachesCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	b := graph.Lazy(graph.Hypercube(10))
	x := pointMass(b.N(), 1<<20)
	mustPanic := func(eng *Engine) {
		t.Helper()
		defer func() {
			if r := recover(); r != "helper chunk" {
				t.Fatalf("Step recovered %v, want the helper's panic", r)
			}
		}()
		eng.Step()
	}

	fixed := MustEngine(b, panicOnChunk{}, x, WithWorkers(2))
	mustPanic(fixed)
	fixed.Close()

	lent := MustEngine(b, panicOnChunk{}, x)
	done := make(chan struct{})
	go func() {
		lent.Help()
		close(done)
	}()
	waitSeated(t, lent)
	mustPanic(lent)
	lent.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("lent helper did not return after Close")
	}
}

// TestLentAccumulatorReused: a helper lent to one engine after another
// takes its accumulator from the pool the last one returned it to, zeroed,
// so a pooled accumulator left dirty and longer than the engine needs still
// gives every round of the serial engine.
func TestLentAccumulatorReused(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for range 2 {
		eng, ref := lendable(t)
		dirty := make([]int64, 2*eng.N())
		for i := range dirty {
			dirty[i] = int64(i) + 1
		}
		accPool.Put(&dirty)
		helped := make(chan bool)
		go func() { helped <- eng.Help() }()
		waitSeated(t, eng)
		for range 3 {
			if err := eng.Step(); err != nil {
				t.Fatal(err)
			}
			if err := ref.Step(); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(eng.Loads(), ref.Loads()) {
				t.Fatalf("round %d: loads differ from the serial engine", eng.Round())
			}
		}
		eng.Close()
		ref.Close()
		if !<-helped {
			t.Fatal("Help returned false after serving")
		}
	}
	if acc := takeAcc(8); len(*acc) != 8 || slices.ContainsFunc(*acc, func(v int64) bool { return v != 0 }) {
		t.Fatalf("pooled accumulator %v, want 8 zeros", *acc)
	}
}

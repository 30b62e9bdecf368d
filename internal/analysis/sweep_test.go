package analysis

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"detlb/internal/balancer"
	"detlb/internal/core"
	"detlb/internal/graph"
	"detlb/internal/protocol"
	"detlb/internal/workload"
)

// sweepSpecs builds a mixed 24-spec family: two graphs × three algorithms ×
// four workloads, with a couple of pooled-engine specs mixed in.
func sweepSpecs() []RunSpec {
	expander := graph.Lazy(graph.RandomRegular(64, 8, 3))
	cycle := graph.Lazy(graph.Cycle(33))
	algos := []core.Balancer{
		balancer.NewSendFloor(),
		balancer.NewRotorRouter(),
		balancer.NewGoodS(2),
	}
	var specs []RunSpec
	for _, b := range []*graph.Balancing{expander, cycle} {
		for ai, algo := range algos {
			for w := 0; w < 4; w++ {
				spec := RunSpec{
					Balancing: b,
					Algorithm: algo,
					Initial:   workload.PointMass(b.N(), w%b.N(), int64(100*(w+1))+7),
					MaxRounds: 40,
				}
				if ai == 1 && w == 3 {
					spec.Workers = 2 // exercise pooled engines inside a sweep
				}
				specs = append(specs, spec)
			}
		}
	}
	return specs
}

// TestSweepMatchesSerialRunLoop pins the headline contract: Sweep's group
// scheduling yields bit-identical per-spec results to a serial loop of Run
// calls, at every sweep worker count.
func TestSweepMatchesSerialRunLoop(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	specs := sweepSpecs()

	ref := make([]RunResult, len(specs))
	for i, spec := range specs {
		ref[i] = Run(spec)
		if ref[i].Err != nil {
			t.Fatalf("spec %d: %v", i, ref[i].Err)
		}
	}

	for _, workers := range []int{1, 4, 8} {
		got := Sweep(specs, SweepOptions{Workers: workers})
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: %d results for %d specs", workers, len(got), len(specs))
		}
		for i := range ref {
			if !reflect.DeepEqual(ref[i], got[i]) {
				t.Fatalf("workers=%d spec %d: sweep result diverges from serial Run:\n got %+v\nwant %+v",
					workers, i, got[i], ref[i])
			}
		}
	}
}

// TestSweepLargestFirstMatchesSerial runs a family of three graph sizes ×
// three algorithms, listed smallest graph first, plus a protocol-model spec,
// a spec without a graph and one on a graph whose gap solve panics. The
// parallel path reorders the groups and warms the gaps first; every result
// must still equal the serial loop's, and the bad specs keep their errors.
func TestSweepLargestFirstMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	// family builds fresh graphs on every call, so each sweep starts with
	// its gap memo cold and the warm-ups do the solving.
	family := func() []RunSpec {
		algos := []core.Balancer{balancer.NewSendFloor(), balancer.NewRotorRouter(), balancer.NewBiasedRounding()}
		var specs []RunSpec
		for _, n := range []int{32, 64, 128} {
			b := graph.Lazy(graph.RandomRegular(n, 8, int64(n)))
			for _, algo := range algos {
				specs = append(specs, RunSpec{
					Balancing: b,
					Algorithm: algo,
					Initial:   workload.PointMass(n, 1, int64(16*n)+3),
					Patience:  64,
				})
			}
		}
		return append(specs,
			majoritySpec(protocol.NewMajority(64, 7), 0),
			RunSpec{Algorithm: balancer.NewSendFloor(), Initial: workload.PointMass(16, 0, 1)},
			RunSpec{Balancing: graph.Lazy(&graph.Graph{}), Algorithm: balancer.NewSendFloor(), MaxRounds: 10},
		)
	}
	specs := family()
	nilGraph, badGraph := len(specs)-2, len(specs)-1

	ref := make([]RunResult, len(specs))
	for i, spec := range specs[:badGraph] {
		ref[i] = Run(spec)
	}
	// Run does not contain a panicking solve; the serial sweep path does.
	ref[badGraph] = Sweep(specs[badGraph:], SweepOptions{Workers: 1})[0]
	for _, i := range []int{nilGraph, badGraph} {
		if ref[i].Err == nil {
			t.Fatalf("spec %d should have failed", i)
		}
	}

	for _, workers := range []int{1, 2, 8} {
		got := Sweep(family(), SweepOptions{Workers: workers})
		for i := range ref {
			if !reflect.DeepEqual(ref[i], got[i]) {
				t.Fatalf("workers=%d spec %d: sweep result diverges from serial Run:\n got %+v\nwant %+v",
					workers, i, got[i], ref[i])
			}
		}
	}
}

// TestSweepNoGoroutineGrowth is the regression test for the pooled-engine
// leak: analysis.Run used to construct Workers > 1 engines and never close
// them, leaking pool goroutines until GC. Repeated pooled runs and sweeps
// must leave the goroutine count where it started.
func TestSweepNoGoroutineGrowth(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	b := graph.Lazy(graph.RandomRegular(64, 8, 5))
	spec := RunSpec{
		Balancing: b,
		Algorithm: balancer.NewSendFloor(),
		Initial:   workload.PointMass(64, 0, 641),
		MaxRounds: 5,
		Workers:   4,
	}

	before := runtime.NumGoroutine()
	for i := 0; i < 25; i++ {
		if res := Run(spec); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	specs := make([]RunSpec, 50)
	for i := range specs {
		specs[i] = spec
	}
	for _, res := range Sweep(specs, SweepOptions{Workers: 4}) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	// Several graphs make several groups, so the runners also take gap
	// warm-ups.
	for i := range specs {
		if i%10 == 0 {
			spec.Balancing = graph.Lazy(graph.RandomRegular(64, 8, int64(10+i)))
		}
		specs[i] = spec
	}
	for _, res := range Sweep(specs, SweepOptions{Workers: 4}) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}

	// Close makes workers exit on channel close, but their final descheduling
	// is asynchronous; poll briefly before declaring a leak.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+2 {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d across pooled runs", before, g)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSweepSurvivesBadSpecs: invalid specs report through Err without
// aborting the sweep or corrupting neighboring results.
func TestSweepSurvivesBadSpecs(t *testing.T) {
	b := graph.Lazy(graph.Hypercube(4))
	good := RunSpec{
		Balancing: b,
		Algorithm: balancer.NewSendFloor(),
		Initial:   workload.PointMass(16, 0, 163),
		MaxRounds: 20,
	}
	specs := []RunSpec{
		good,
		{Balancing: b, Algorithm: balancer.NewSendFloor(), Initial: make([]int64, 7)}, // wrong length
		{Algorithm: balancer.NewSendFloor(), Initial: workload.PointMass(16, 0, 1)},   // nil graph
		{Balancing: b, Initial: workload.PointMass(16, 0, 1)},                         // nil algorithm
		// good-s with s > d° panics at bind time; the sweep must contain it.
		{Balancing: b, Algorithm: balancer.NewGoodS(99), Initial: workload.PointMass(16, 0, 163)},
		good,
	}
	results := Sweep(specs, SweepOptions{Workers: 2})
	for _, i := range []int{1, 2, 3, 4} {
		if results[i].Err == nil {
			t.Fatalf("spec %d should have failed", i)
		}
	}
	want := Run(good)
	for _, i := range []int{0, 5} {
		if !reflect.DeepEqual(want, results[i]) {
			t.Fatalf("good spec %d corrupted by neighboring bad specs:\n got %+v\nwant %+v", i, results[i], want)
		}
	}
}

// TestRunReportsInvalidSpec: the Run entry point itself must not panic on a
// bad spec (it used to, via core.MustEngine).
func TestRunReportsInvalidSpec(t *testing.T) {
	b := graph.Lazy(graph.Cycle(8))
	res := Run(RunSpec{Balancing: b, Algorithm: balancer.NewSendFloor(), Initial: make([]int64, 3)})
	if res.Err == nil {
		t.Fatal("wrong-length initial vector must surface through Err")
	}
	if res := Run(RunSpec{}); res.Err == nil {
		t.Fatal("empty spec must surface through Err")
	}
}

// TestSweepAuditorSpecsGetFreshEngines: a spec with auditors runs inside a
// group of auditor-free specs without perturbing them.
func TestSweepAuditorSpecsGetFreshEngines(t *testing.T) {
	b := graph.Lazy(graph.RandomRegular(32, 6, 2))
	rotor := balancer.NewRotorRouter()
	plain := RunSpec{Balancing: b, Algorithm: rotor, Initial: workload.PointMass(32, 0, 321), MaxRounds: 30}
	audited := plain
	audited.Auditors = []core.Auditor{core.NewConservationAuditor(), core.NewCumulativeFairnessAuditor(1)}

	results := Sweep([]RunSpec{plain, audited, plain}, SweepOptions{Workers: 1})
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("spec %d: %v", i, res.Err)
		}
	}
	if !reflect.DeepEqual(results[0], results[2]) {
		t.Fatalf("audited middle spec perturbed its neighbors:\n%+v\n%+v", results[0], results[2])
	}
}

// TestSweepEmpty covers the degenerate inputs.
func TestSweepEmpty(t *testing.T) {
	if got := Sweep(nil, SweepOptions{}); len(got) != 0 {
		t.Fatalf("nil specs produced %d results", len(got))
	}
	if got := Sweep([]RunSpec{}, SweepOptions{Workers: 100}); len(got) != 0 {
		t.Fatalf("empty specs produced %d results", len(got))
	}
}

// TestSweepSampling: sampled series survive the sweep path and carry the
// load extrema for trace export.
func TestSweepSampling(t *testing.T) {
	b := graph.Lazy(graph.Hypercube(4))
	specs := []RunSpec{{
		Balancing:   b,
		Algorithm:   balancer.NewSendFloor(),
		Initial:     workload.PointMass(16, 0, 160),
		MaxRounds:   100,
		SampleEvery: 10,
	}}
	res := Sweep(specs, SweepOptions{})[0]
	if len(res.Series) != 10 {
		t.Fatalf("expected 10 samples, got %d", len(res.Series))
	}
	for _, p := range res.Series {
		if p.Max-p.Min != p.Discrepancy {
			t.Fatalf("sample %+v: extrema inconsistent with discrepancy", p)
		}
	}
}

func ExampleSweep() {
	b := graph.Lazy(graph.Hypercube(4))
	specs := []RunSpec{
		{Balancing: b, Algorithm: balancer.NewSendFloor(), Initial: workload.PointMass(16, 0, 163)},
		{Balancing: b, Algorithm: balancer.NewSendFloor(), Initial: workload.PointMass(16, 3, 301)},
	}
	for _, res := range Sweep(specs, SweepOptions{Workers: 2}) {
		fmt.Println(res.FinalDiscrepancy <= 8)
	}
	// Output:
	// true
	// true
}

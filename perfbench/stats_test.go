package main

import (
	"context"
	"math"
	"testing"
	"time"

	"detlb/internal/analysis"
	"detlb/internal/archive"
	"detlb/internal/scenario"
)

func ascending(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending input: tailOf must sort
	}
	return xs
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{1, math.Inf(1), math.Inf(1)}, math.Inf(1)},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		name string
		xs   []float64
		want tail
	}{
		{"hundred", ascending(100), tail{Value: 90, Percentile: 90, N: 100, Beyond: 10}},
		{"eleven", ascending(11), tail{Value: 1, Percentile: 100.0 / 11, N: 11, Beyond: 10}},
		{"too few: the maximum, nothing beyond", ascending(5), tail{Value: 5, Percentile: 100, N: 5}},
		{"empty", nil, tail{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := tailOf(tc.xs); got != tc.want {
				t.Errorf("tailOf = %+v, want %+v", got, tc.want)
			}
		})
	}
}

func TestTailCountsFailuresAsMissingTheLimit(t *testing.T) {
	xs := ascending(28)
	xs = append(xs, math.Inf(1), math.Inf(1))
	got := tailOf(xs)
	// 30 samples: index 19 has exactly 10 above it, the two failures among
	// them.
	if got.Value != 20 || got.Beyond != 10 || got.N != 30 {
		t.Errorf("tailOf = %+v, want value 20 with 10 beyond of 30", got)
	}
	for range 9 {
		xs = append(xs, math.Inf(1))
	}
	if got := tailOf(xs); !math.IsInf(got.Value, 1) {
		t.Errorf("with 11 failures the tail must miss every limit, got %v", got.Value)
	}
}

func TestFailedFrac(t *testing.T) {
	var tl tally
	for range 7 {
		tl.add(nil, false)
	}
	tl.add(context.DeadlineExceeded, false) // a timeout
	tl.add(errTest, false)                  // a non-2xx answer
	tl.add(errTest, true)                   // a correctness mismatch
	if tl.Attempted != 10 || tl.Failed != 3 || tl.Mismatched != 1 {
		t.Fatalf("tally = %+v, want 10 attempted, 3 failed, 1 mismatched", tl)
	}
	if got := tl.failedFrac(); got != 0.3 {
		t.Errorf("failedFrac = %v, want 0.3", got)
	}
	if got := (tally{}).failedFrac(); got != 0 {
		t.Errorf("failedFrac of nothing = %v, want 0", got)
	}
}

type testErr struct{}

func (testErr) Error() string { return "test failure" }

var errTest = testErr{}

func TestNodeRounds(t *testing.T) {
	// Three graphs of 8, 8 and 5 nodes reach the target after different
	// round counts, so the sum has to weigh each cell by its own n.
	fam, err := scenario.ParseFamily("cycle:8;hypercube:3;complete:5", "send-floor", "point:64", "", "")
	if err != nil {
		t.Fatal(err)
	}
	fam.Run = scenario.RunParams{Rounds: 40, Target: target(1)}
	digest, _, err := fam.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	specs, cells, err := fam.Bind()
	if err != nil {
		t.Fatal(err)
	}
	results := analysis.SweepContext(context.Background(), specs, analysis.SweepOptions{})
	var want int64
	for i, res := range results {
		want += int64(specs[i].Balancing.N() * res.Rounds)
	}
	if got := nodeRoundsOf(specs, results); got != want {
		t.Errorf("nodeRoundsOf = %d, want %d", got, want)
	}
	if results[0].Rounds == results[1].Rounds && results[1].Rounds == results[2].Rounds {
		t.Fatalf("degenerate fixture: rounds %d, %d, %d", results[0].Rounds, results[1].Rounds, results[2].Rounds)
	}
	metas := make([]scenario.CellColumns, len(cells))
	for i, c := range cells {
		metas[i] = c.Columns()
	}
	doc, _, err := archive.BuildResultDoc(fam.Name, digest, metas, specs, results)
	if err != nil {
		t.Fatal(err)
	}
	got, err := nodeRoundsOfDoc(doc)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("nodeRoundsOfDoc = %d, want %d", got, want)
	}
}

func TestSelfTimes(t *testing.T) {
	d := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	spans := []span{
		{ID: 0, Parent: -1, Name: "request", Start: d(0), End: d(100)},
		{ID: 1, Parent: 0, Name: "a", Start: d(10), End: d(40)},
		{ID: 2, Parent: 0, Name: "b", Start: d(30), End: d(60)}, // overlaps a
		{ID: 3, Parent: 0, Name: "c", Start: d(80), End: d(90)},
		{ID: 4, Parent: 1, Name: "a.inner", Start: d(15), End: d(20)},
		{ID: 5, Parent: 3, Name: "c.spill", Start: d(85), End: d(120)}, // runs past its parent
	}
	want := []time.Duration{
		d(100) - d(50) - d(10), // children cover [10,60] and [80,90]
		d(30) - d(5),
		d(30),
		d(10) - d(5), // only [85,90] of the spill lies inside c
		d(5),
		d(35),
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestParseMetrics(t *testing.T) {
	text := `# HELP lbserve_cache_hits_total hits
# TYPE lbserve_cache_hits_total counter
lbserve_cache_hits_total 42
# TYPE lbserve_queue_seconds histogram
lbserve_queue_seconds_bucket{le="0.005"} 3
lbserve_queue_seconds_bucket{le="+Inf"} 4
lbserve_queue_seconds_sum 0.25
lbserve_queue_seconds_count 4
`
	m, err := parseMetrics(text)
	if err != nil {
		t.Fatal(err)
	}
	for series, want := range map[string]float64{
		"lbserve_cache_hits_total":                42,
		`lbserve_queue_seconds_bucket{le="+Inf"}`: 4,
		"lbserve_queue_seconds_sum":               0.25,
		"lbserve_queue_seconds_count":             4,
	} {
		if m[series] != want {
			t.Errorf("%s = %v, want %v", series, m[series], want)
		}
	}
	before := map[string]float64{"lbserve_queue_seconds_sum": 0.05, "lbserve_queue_seconds_count": 2}
	if got := meanMs(before, m, "lbserve_queue_seconds"); math.Abs(got-100) > 1e-9 {
		t.Errorf("window mean = %v ms, want 100", got)
	}
	if _, err := parseMetrics("novalue\n"); err == nil {
		t.Error("a line without a value must not parse")
	}
}

func TestSlicedFiguresShrugOffASlowSpell(t *testing.T) {
	// 400 time-ordered samples: the first quarter come from a spell when the
	// host ran everything 3× slower.
	var xs []float64
	for i := range 400 {
		v := 1 + float64(i%10)/100
		if i < 100 {
			v *= 3
		}
		xs = append(xs, v)
	}
	if got := slicedMedian(xs); got > 1.1 {
		t.Errorf("slicedMedian = %v, want the calm median ≈ 1.05", got)
	}
	if got := median(xs); got < 1.05 || got > 1.1 {
		t.Fatalf("fixture: whole-window median %v", got)
	}
	tl, n := slicedTail(xs)
	// Four slices of 100: the tail rule lands at p90 of each, and the slow
	// spell fills only the first.
	if n != 4 || tl.N != 100 || tl.Beyond != 10 || tl.Percentile != 90 || tl.Value > 1.1 {
		t.Errorf("slicedTail = %+v over %d slices, want a calm p90 of 4 slices of 100", tl, n)
	}
	if got := sliceBounds(5, minSliceMedian, maxSlices); len(got) != 1 || got[0] != [2]int{0, 5} {
		t.Errorf("a short population must stay one slice, got %v", got)
	}
}

func TestSlicedRate(t *testing.T) {
	start := time.Unix(0, 0)
	var samples []sample
	var work []float64
	// 40 back-to-back requests of 100 ms, 1000 node-rounds each: 10k/s.
	for i := range 40 {
		samples = append(samples, sample{Due: start.Add(time.Duration(i) * 100 * time.Millisecond), Latency: 100 * time.Millisecond})
		work = append(work, 1000)
	}
	if got := slicedRate(samples, work); math.Abs(got-10000) > 1e-6 {
		t.Errorf("slicedRate = %v, want 10000", got)
	}
	// The same requests sent open-loop once a second: the schedule's gaps
	// are not the program's time, so the rate is unchanged ...
	for i := range samples {
		samples[i].Due = start.Add(time.Duration(i) * time.Second)
	}
	if got := slicedRate(samples, work); math.Abs(got-10000) > 1e-6 {
		t.Errorf("open-loop slicedRate = %v, want 10000", got)
	}
	// ... and requests twice as slow on the same schedule halve it.
	for i := range samples {
		samples[i].Latency *= 2
	}
	if got := slicedRate(samples, work); math.Abs(got-5000) > 1e-6 {
		t.Errorf("slower open-loop slicedRate = %v, want 5000", got)
	}
}

func TestHostFactor(t *testing.T) {
	t0 := time.Unix(100, 0)
	at := func(s int) time.Time { return t0.Add(time.Duration(s) * time.Second) }
	// Computation probes one second apart read the nominal time, then twice
	// it from the fourth on, with one stray reading of ten times it; the
	// round trips read three times their nominal time throughout.
	n, r := refNominal[refCompute], refNominal[refTrip]
	h := &hostTrack{}
	for i, ms := range []float64{n, n, n, 2 * n, 2 * n, 10 * n, 2 * n, 2 * n} {
		h.at = append(h.at, at(i))
		h.ms[refCompute] = append(h.ms[refCompute], ms)
		h.ms[refTrip] = append(h.ms[refTrip], 3*r)
	}
	for _, c := range []struct {
		t    time.Time
		want float64
	}{
		{at(-1), 1},                   // before the first probe: the first two
		{at(0), 1},                    // probe 0 at it, 1-2 after
		{at(1).Add(500e6), 1},         // 0-1, 2-3: n n n 2n
		{at(2).Add(500e6), 1.0 / 1.5}, // 1-2, 3-4: n n 2n 2n
		{at(5).Add(500e6), 0.5},       // 4-5, 6-7: the stray reading is outvoted
		{at(9), 0.5},                  // after the last: the last two
	} {
		if got := h.factor(refCompute, c.t); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("computation factor at %v = %v, want %v", c.t.Sub(t0), got, c.want)
		}
		if got := h.factor(refTrip, c.t); math.Abs(got-1.0/3) > 1e-12 {
			t.Errorf("round-trip factor at %v = %v, want 1/3", c.t.Sub(t0), got)
		}
	}
	// A cold POST that ran while the computation was slow by half is scaled
	// back by it; a hit at the same time by the round trips.
	in := []sample{{Kind: kindCold, Due: at(9), Latency: 30 * time.Millisecond}, {Kind: kindHit, Due: at(9), Latency: 3 * time.Millisecond}}
	out := h.scaled(in)
	if out[0].Latency != 15*time.Millisecond || out[1].Latency != time.Millisecond || in[0].Latency != 30*time.Millisecond {
		t.Errorf("scaled %v and %v (input now %v), want 15ms, 1ms and the input untouched", out[0].Latency, out[1].Latency, in[0].Latency)
	}
	if f := (&hostTrack{}).factor(refCompute, t0); f != 1 {
		t.Errorf("factor with no probes = %v, want 1", f)
	}
}

func TestPartFor(t *testing.T) {
	for k, want := range map[kind]refPart{kindCold: refCompute, kindWrite: refCompute, kindHit: refTrip, kindQuery: refTrip} {
		if got := partFor(k); got != want {
			t.Errorf("partFor(%v) = %v, want %v", k, got, want)
		}
	}
}

func TestReferenceWorkIsFixed(t *testing.T) {
	// The reference must do the same work on every call: the token total
	// is conserved and the vector stays normalised.
	r := newRefWork(1)
	var total int64
	for _, x := range r.x {
		total += x
	}
	for range 3 {
		r.run()
		var got int64
		for _, x := range r.x {
			got += x
		}
		var norm float64
		for _, v := range r.v {
			norm += v * v
		}
		if got != total || math.Abs(norm-1) > 1e-9 {
			t.Fatalf("after a run: tokens %d (want %d), norm² %v (want 1)", got, total, norm)
		}
	}
}

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"
)

// fakeClock is a clock one goroutine advances by hand.
type fakeClock struct{ t time.Time }

func (c *fakeClock) Now() time.Time        { return c.t }
func (c *fakeClock) Sleep(d time.Duration) { c.t = c.t.Add(d) }

func TestOpenLoopTimesFromScheduledSend(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	start := clk.t
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	reqs := []request{{At: 0}, {At: ms(10)}, {At: ms(20)}, {At: ms(100)}}
	// Every request takes 25 ms, so with one worker the second and third
	// go out late; the fourth finds the worker idle and waits for its slot.
	samples := openLoop(reqs, 1, start, clk, func(request) outcome {
		clk.t = clk.t.Add(ms(25))
		return outcome{}
	})
	want := []struct{ late, latency time.Duration }{
		{0, ms(25)},
		{ms(15), ms(40)},
		{ms(30), ms(55)},
		{0, ms(25)},
	}
	for i, w := range want {
		s := samples[i]
		if s.Late != w.late || s.Latency != w.latency || !s.Due.Equal(start.Add(reqs[i].At)) {
			t.Errorf("request %d: late %v latency %v due %v, want late %v latency %v due %v",
				i, s.Late, s.Latency, s.Due.Sub(start), w.late, w.latency, reqs[i].At)
		}
	}
}

func TestClosedLoopStopsAtDeadline(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	deadline := clk.t.Add(100 * time.Millisecond)
	var after []int
	samples := closedLoop(make([]request, 10), deadline, clk, func(request) outcome {
		clk.t = clk.t.Add(30 * time.Millisecond)
		return outcome{}
	}, func(i int, _ outcome) { after = append(after, i) })
	// Requests start at 0, 30, 60 and 90 ms; the fifth would start at 120.
	if len(samples) != 4 || len(after) != 4 {
		t.Fatalf("%d samples, %d follow-ups; want 4", len(samples), len(after))
	}
	for i, s := range samples {
		if s.Latency != 30*time.Millisecond || s.Late != 0 || s.Req != i {
			t.Errorf("sample %d = %+v", i, s)
		}
	}
}

func TestScheduleParts(t *testing.T) {
	// Requests 100 ms apart cut at 500 ms: every part but the last holds
	// five, and the last takes the remainder.
	var reqs []request
	for i := range 5*parts + 1 {
		reqs = append(reqs, request{At: time.Duration(i) * 100 * time.Millisecond})
	}
	cuts := scheduleParts(reqs, 500*time.Millisecond)
	if len(cuts) != parts {
		t.Fatalf("%d parts, want %d", len(cuts), parts)
	}
	next := 0
	for k, p := range cuts {
		if p[0] != next {
			t.Fatalf("part %d starts at %d, want %d", k, p[0], next)
		}
		for i := p[0]; i < p[1]; i++ {
			at := reqs[i].At / (500 * time.Millisecond)
			if int(at) != k && (k != parts-1 || int(at) < k) {
				t.Errorf("request %d due at %v lies in part %d", i, reqs[i].At, k)
			}
		}
		next = p[1]
	}
	if next != len(reqs) {
		t.Errorf("parts cover %d of %d requests", next, len(reqs))
	}
}

func TestSegmentedCallsBetweenAfterEveryPart(t *testing.T) {
	var order []string
	_, err := segmented(func(k int) error {
		order = append(order, fmt.Sprint("between", k))
		return nil
	}, func(k int) { order = append(order, fmt.Sprint(k)) })
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for k := range parts {
		want = append(want, fmt.Sprint(k), fmt.Sprint("between", k))
	}
	if strings.Join(order, " ") != strings.Join(want, " ") {
		t.Errorf("order %v, want %v", order, want)
	}
}

func TestSetUpsSpreadOverTheWindow(t *testing.T) {
	// Every set-up but the window's own runs after a part, evenly spaced,
	// the last after the last part.
	var after []int
	for k := range parts {
		if setupAfter(k) {
			after = append(after, k)
		}
	}
	if len(after) != setupRepeats-1 || after[len(after)-1] != parts-1 {
		t.Fatalf("set-ups after parts %v; want %d, the last after part %d", after, setupRepeats-1, parts-1)
	}
	for i := 1; i < len(after); i++ {
		if after[i]-after[i-1] != setupEvery {
			t.Errorf("set-ups after parts %v are not %d apart", after, setupEvery)
		}
	}
}

// TestRunServeMix runs the benchmark end to end on serve-mix for one second,
// untraced and traced, and checks the result line carries every metric.
func TestRunServeMix(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a server and drives it for several seconds")
	}
	e2e := []string{"latency_p50_ms", "latency_tail_ms", "node_rounds_per_s", "query_latency_p50_ms",
		"write_latency_p50_ms", "success_frac", "setup_s", "rss_peak_mb"}
	perLayer := []string{"scenario.decode_ms", "spectral.gap_ms", "analysis.rounds_ms", "core.step_allocs",
		"archive.query_ms", "serve.residual_ms", "load.achieved_rps", "trace.overhead_frac"}
	for trace, names := range [][]string{e2e, perLayer} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-workload", "serve-mix", "-seed", "5", "-seconds", "1",
			"-trace", []string{"0", "1"}[trace], "-work", t.TempDir()}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("trace %d: exit %d: %s", trace, code, stderr.String())
		}
		var last string
		for sc := bufio.NewScanner(strings.NewReader(stdout.String())); sc.Scan(); {
			last = sc.Text()
		}
		var res result
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			t.Fatalf("trace %d: last line %q: %v", trace, last, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("trace %d: correct=%v failed=%d attempted=%d", trace, res.Correct, res.Failed, res.Attempted)
		}
		for _, name := range names {
			if _, ok := res.Metrics[name]; !ok {
				t.Errorf("trace %d: metric %s missing", trace, name)
			}
		}
		if trace == 1 && res.Metrics["core.step_allocs"].Value != 0 {
			t.Errorf("core.step_allocs = %v, want 0", res.Metrics["core.step_allocs"].Value)
		}
	}
}

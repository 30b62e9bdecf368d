// Command perfbench is the repository's benchmark. It boots the serving tier
// (serve.New on a loopback listener), drives one seeded workload against it
// over real HTTP, checks the answers, and prints one JSON result line:
//
//	perfbench -workload <name> -seed <n> -seconds <s> -trace <0|1>
//
// With -trace 0 the result holds the end-to-end metrics; with -trace 1 it
// holds the per-layer metrics of a traced in-process replay (see
// STAGES.md). run.sh builds it from the checkout's sources and runs it.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// workload is one traffic mix.
type workload struct {
	name string
	// open selects the open loop (serve-mix); the others are closed loops
	// with one client.
	open bool
	gen  func(seed int64, seconds int) inputs
}

// primary is the kind of request latency_p50_ms is taken over.
func (w workload) primary() kind {
	if w.open {
		return kindHit
	}
	return kindCold
}

var workloads = []workload{
	{name: "cold-expander", gen: genColdExpander},
	{name: "kernel-hypercube", gen: genKernelHypercube},
	{name: "serve-mix", open: true, gen: genServeMix},
}

const (
	// setupRepeats: set-up runs this many times per run and setup_s is the
	// median. The first set-up's server is the one the window measures; the
	// others run between the window's parts (see setupAfter).
	setupRepeats = 7
	// readBacks is how many of a closed loop's first POSTs are followed by
	// the read-your-write queries. A fixed count, not a share of the window,
	// so the index those queries scan has the same size on every commit.
	readBacks = 96
	// rssAfter is how many of a closed loop's POSTs rss_peak_mb covers. The
	// server keeps every finished run, so its memory grows with the number
	// of POSTs, which a window of fixed length sets by the host's speed; a
	// fixed count makes rss_peak_mb a figure of fixed work. The open loop's
	// schedule is fixed already, so there it covers the whole window.
	rssAfter = 48
	// runLimit stops a run that has hung, well inside the 180 s a run may
	// take.
	runLimit = 170 * time.Second
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: cold-expander, kernel-hypercube or serve-mix")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "length of the measured window in seconds")
	traceFlag := fs.Int("trace", 0, "1 reports per-layer metrics from a traced replay")
	work := fs.String("work", ".bench_build", "directory for archives and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload cold-expander|kernel-hypercube|serve-mix, -seconds ≥ 1, -trace 0|1\n")
		return 2
	}
	dir := filepath.Join(*work, "runs", strconv.Itoa(os.Getpid()))
	defer os.RemoveAll(dir)
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(stderr, "perfbench: run exceeded %v\n", runLimit)
		os.RemoveAll(dir)
		os.Exit(3)
	})
	defer watchdog.Stop()

	fmt.Fprintln(stdout, hostLine())
	in := wl.gen(*seed, *seconds)
	fmt.Fprintf(stdout, "inputs: workload=%s seed=%d hot=%d warm=%d measured=%d sha256=%s\n",
		wl.name, *seed, len(in.Hot), len(in.Warm), len(in.Reqs), in.digest())
	spinBefore := spinMs()
	rep, err := measure(*wl, in, dir, *seconds, *traceFlag == 1)
	spinAfter := spinMs()
	fmt.Fprintf(stdout, "host: spin_before_ms=%.1f spin_after_ms=%.1f\n", spinBefore, spinAfter)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, line := range rep.notes {
		fmt.Fprintln(stdout, line)
	}
	metrics := rep.e2e
	if *traceFlag == 1 {
		metrics = rep.layers
		if err := writeSpans(filepath.Join(*work, "traces", fmt.Sprintf("%s-seed%d.json", wl.name, *seed)), rep.spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	for _, m := range metrics {
		fmt.Fprintf(stdout, "%-28s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(stderr, "perfbench: MISMATCH %s\n", p)
	}
	out := result{
		Correct:   rep.tally.Mismatched == 0,
		Attempted: rep.tally.Attempted,
		Failed:    rep.tally.Failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range metrics {
		out.Metrics[m.Name] = metricValue{Value: finite(m.Value), Unit: m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metric struct {
	Name  string
	Unit  string
	Value float64
}

// report is everything one run measured.
type report struct {
	e2e      []metric
	layers   []metric
	notes    []string
	problems []string
	tally    tally
	spans    []span
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// window is the measured window's outcome. rssMB is the peak RSS after
// the closed loop's first rssAfter POSTs, 0 for the open loop.
type window struct {
	samples []sample
	wall    time.Duration
	rssMB   float64
}

// measure sets up, runs the window, checks, and — traced — replays.
func measure(wl workload, in inputs, dir string, seconds int, traced bool) (*report, error) {
	rep := &report{}
	track, err := newHostTrack()
	if err != nil {
		return nil, err
	}
	defer track.close()
	// Each set-up runs between two probes of the host (the one after it is
	// the next part's) and is scaled, once the run is over, like a request
	// that started when it did.
	var setupRaw []float64
	var setupAt []time.Time
	timedSetup := func() (*server, error) {
		settle()
		if err := track.probe(); err != nil {
			return nil, err
		}
		start := time.Now()
		s, err := setup(filepath.Join(dir, fmt.Sprintf("setup%d", len(setupRaw))), in)
		if err != nil {
			return nil, err
		}
		setupRaw = append(setupRaw, time.Since(start).Seconds())
		setupAt = append(setupAt, start)
		return s, nil
	}
	srv, err := timedSetup()
	if err != nil {
		return nil, err
	}
	defer srv.close()
	// between runs after each part of the window: after every
	// setupEvery-th part one more set-up, whose server is closed at once
	// (its archive stays until the run ends: deleting files makes the
	// file system slow for a while after), then a settle and a probe of the
	// host.
	between := func(k int) error {
		if setupAfter(k) {
			s, err := timedSetup()
			if err != nil {
				return err
			}
			s.close()
		}
		settle()
		return track.probe()
	}

	cl := newClient(srv.base, 1)
	defer cl.close()
	before, err := cl.scrape()
	if err != nil {
		return nil, err
	}
	cpu0 := processCPU()
	st0, tot0 := stealTicks()
	settle()
	if err := track.probe(); err != nil {
		return nil, err
	}
	var win window
	if wl.open {
		win, err = runOpen(srv, in, seconds, between)
	} else {
		win, err = runClosed(srv, in, seconds, between)
	}
	if err != nil {
		return nil, err
	}
	cpu1 := processCPU()
	st1, tot1 := stealTicks()
	var setupS []float64
	for i, raw := range setupRaw {
		setupS = append(setupS, raw*track.factor(refCompute, setupAt[i]))
	}
	rep.note("setup_s samples: scaled %.4g, raw %.4g", setupS, setupRaw)
	rep.note("host: window wall %.3fs in %d parts; over the window and its set-ups, process cpu %.3fs, host steal %.4f of cpu time",
		win.wall.Seconds(), parts, (cpu1 - cpu0).Seconds(), safeDiv(st1-st0, tot1-tot0))
	for _, p := range []refPart{refCompute, refTrip} {
		probes := sortedCopy(track.ms[p])
		rep.note("host: %d probes of the reference %s, median %.4g ms (nominal %.4g ms), range %.4g-%.4g ms: %.3g",
			len(probes), p, median(probes), refNominal[p], probes[0], probes[len(probes)-1], track.ms[p])
	}
	after, err := cl.scrape()
	if err != nil {
		return nil, err
	}
	rssEnd, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	rss := win.rssMB
	if rss == 0 {
		rss = rssEnd
	}
	rep.note("rss_peak_mb %.3f at its fixed point, %.3f at the window's end", rss, rssEnd)
	for _, s := range win.samples {
		rep.tally.add(s.Err, s.Mismatch)
		if s.Err != nil && len(rep.problems) < 10 {
			rep.problems = append(rep.problems, fmt.Sprintf("request %d (%s): %v", s.Req, s.Kind, s.Err))
		}
	}
	problems, err := check(cl, srv, in, win.samples, &rep.tally)
	if err != nil {
		return nil, err
	}
	rep.problems = append(rep.problems, problems...)

	// The end-to-end figures come from latencies scaled to the nominal host
	// speed; the raw ones are noted.
	scaled := track.scaled(win.samples)
	primary := wl.primary()
	lat := latencies(scaled, primary)
	tl, tailSlices := slicedTail(lat)
	queries := latencies(scaled, kindQuery)
	var written []sample
	var work []float64
	for _, s := range scaled {
		if s.Kind == kindCold || s.Kind == kindWrite {
			written = append(written, s)
			var n int64
			if s.Err == nil {
				if n, err = nodeRoundsOfDoc(s.Body); err != nil {
					return nil, err
				}
			}
			work = append(work, float64(n))
		}
	}
	writes := latencies(written, kindCold, kindWrite)
	rep.note("latency_p50_ms over %d %s requests in %d slices; latency_tail_ms at p%.2f of each of %d slices of %d samples (%d beyond); whole window: p50 %.4g ms, tail %.4g ms",
		len(lat), primary, len(sliceBounds(len(lat), minSliceMedian, maxSlices)), tl.Percentile, tailSlices, tl.N, tl.Beyond,
		median(lat), tailOf(lat).Value)
	rep.note("slice medians: latency_p50_ms %.4g; write_latency_p50_ms %.4g", sliceMedians(lat), sliceMedians(writes))
	rawLat := latencies(win.samples, primary)
	rawTail, _ := slicedTail(rawLat)
	rep.note("raw, unscaled: latency_p50_ms %.4g, latency_tail_ms %.4g, query_latency_p50_ms %.4g, setup_s %.4g",
		slicedMedian(rawLat), rawTail.Value, slicedMedian(latencies(win.samples, kindQuery)), median(setupRaw))
	rep.note("failed_frac=%.6g (failed %d of %d attempted, %d correctness mismatches)",
		rep.tally.failedFrac(), rep.tally.Failed, rep.tally.Attempted, rep.tally.Mismatched)
	if wl.open {
		var late []float64
		for _, s := range win.samples {
			late = append(late, ms(s.Late))
		}
		lt := tailOf(late)
		rep.note("generator lateness: median %.3f ms, p%.2f %.3f ms", median(late), lt.Percentile, lt.Value)
	}
	rep.note("%d writes, %d queries over %.3fs", len(writes), len(queries), win.wall.Seconds())
	rep.e2e = []metric{
		{"latency_p50_ms", "ms", slicedMedian(lat)},
		{"latency_tail_ms", "ms", tl.Value},
		{"node_rounds_per_s", "1/s", slicedRate(written, work)},
		{"query_latency_p50_ms", "ms", slicedMedian(queries)},
		{"write_latency_p50_ms", "ms", slicedMedian(writes)},
		{"success_frac", "ratio", 1 - rep.tally.failedFrac()},
		{"setup_s", "s", median(setupS)},
		{"rss_peak_mb", "MB", rss},
	}
	if !traced {
		return rep, nil
	}
	srv.close()
	if err := layers(rep, wl, in, srv.dir, filepath.Join(dir, "replay"), win, before, after); err != nil {
		return nil, err
	}
	return rep, nil
}

// settle brings the process and the file system to the same state before
// every timed phase: a collection, so no phase pays for the garbage of the
// one before, and a sync, so none pays for writing back the files of the
// one before. On this kind of host the same file creations take 30 ms right
// after a sync and up to 180 ms while earlier writes are still pending.
func settle() {
	runtime.GC()
	syscall.Sync()
}

// readBackID numbers the q-th read-back query after POST i of a list of n,
// past the POSTs' own numbers.
func readBackID(n, i, q int) int { return n + 2*i + q }

// latencies is the latency population of the given kinds, in ms.
func latencies(samples []sample, kinds ...kind) []float64 {
	var out []float64
	for _, s := range samples {
		for _, k := range kinds {
			if s.Kind == k {
				out = append(out, s.latencyMs())
			}
		}
	}
	return out
}

// runClosed drives a closed loop with one client for the window, following
// each of the first readBacks POSTs with the read-your-write queries.
func runClosed(srv *server, in inputs, seconds int, between func(int) error) (window, error) {
	cl := newClient(srv.base, 1)
	defer cl.close()
	var samples, queries []sample
	var rss float64
	next := 0
	wall, err := segmented(between, func(int) {
		part := closedLoop(in.Reqs[next:], time.Now().Add(partLen(seconds)), wallClock{}, cl.do,
			func(i int, out outcome) {
				i += next
				if i == rssAfter-1 {
					rss, _ = peakRSSMB()
				}
				if i >= readBacks || out.Err != nil {
					return
				}
				for q, qs := range readBackQueries(out.Digest) {
					due := time.Now()
					res := cl.query(qs)
					queries = append(queries, sample{Req: readBackID(len(in.Reqs), i, q), Kind: kindQuery, Due: due, Latency: time.Since(due), outcome: res})
				}
			})
		for j := range part {
			part[j].Req += next
		}
		next += len(part)
		samples = append(samples, part...)
	})
	return window{samples: append(samples, queries...), wall: wall, rssMB: rss}, err
}

// runOpen drives serve-mix's schedule from conns workers, one part's share
// of it at a time.
func runOpen(srv *server, in inputs, seconds int, between func(int) error) (window, error) {
	cl := newClient(srv.base, conns)
	defer cl.close()
	var samples []sample
	seg := partLen(seconds)
	cuts := scheduleParts(in.Reqs, seg)
	wall, err := segmented(between, func(k int) {
		lo, hi := cuts[k][0], cuts[k][1]
		// The part's schedule starts now: it holds the requests due from
		// offset k·seg on.
		part := openLoop(in.Reqs[lo:hi], conns, time.Now().Add(-time.Duration(k)*seg), wallClock{}, cl.do)
		for j := range part {
			part[j].Req += lo
		}
		samples = append(samples, part...)
	})
	return window{samples: samples, wall: wall}, err
}

// scheduleParts cuts a schedule, ordered by At, into parts index ranges:
// part k holds the requests due in [k·seg, (k+1)·seg), and the last part
// also everything due later.
func scheduleParts(reqs []request, seg time.Duration) [][2]int {
	cuts := make([][2]int, parts)
	lo := 0
	for k := range cuts {
		hi := lo
		for hi < len(reqs) && (k == parts-1 || reqs[hi].At < time.Duration(k+1)*seg) {
			hi++
		}
		cuts[k] = [2]int{lo, hi}
		lo = hi
	}
	return cuts
}

// writeSpans writes the traced replay's spans as JSON.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(spans); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

package main

// The benchmark's own arithmetic: order statistics, the failure ratio, the
// n·rounds work count, span self time, and the Prometheus text scrape. Each
// is a pure function so stats_test.go can pin it.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"detlb/internal/analysis"
	"detlb/internal/archive"
)

// minBeyond is the tail rule: a tail figure is the highest percentile that
// still has at least this many samples ranked above it.
const minBeyond = 10

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle sample (the mean of the two middle samples for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tail is a tail-latency report: Value sits at Percentile (the share of
// samples ranked at or below it) and Beyond samples rank above it.
type tail struct {
	Value      float64
	Percentile float64
	N          int
	Beyond     int
}

// tailOf applies the tail rule. With fewer than minBeyond+1 samples no
// percentile has enough samples beyond it, so the maximum is reported with
// Beyond = 0.
func tailOf(xs []float64) tail {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return tail{}
	}
	k := n - 1 - minBeyond
	if k < 0 {
		return tail{Value: s[n-1], Percentile: 100, N: n}
	}
	return tail{Value: s[k], Percentile: 100 * float64(k+1) / float64(n), N: n, Beyond: n - 1 - k}
}

const (
	// A window's time-ordered population is cut into consecutive slices, each
	// figure is taken per slice, and the median over the slices is reported,
	// so a slow spell of the host that covers less than half of the window
	// barely moves it. A median needs minSliceMedian samples per slice and
	// uses at most maxSlices slices.
	maxSlices      = 10
	minSliceMedian = 20
	// A tail figure uses slices of minSliceTail samples, as many as there
	// are, so the tail rule lands near p90 of every slice. Higher up, the
	// figure reads the host rather than the program: serve-mix's p95 tripled
	// in runs where the hypervisor took 9% of the CPU time, and its rare
	// hit-behind-a-write delays put a knee near p98.
	minSliceTail = 100
)

// sliceBounds cuts n time-ordered samples into as many consecutive slices
// of at least minPer samples as maxK allows, at least one.
func sliceBounds(n, minPer, maxK int) [][2]int {
	k := max(1, min(maxK, n/minPer))
	out := make([][2]int, k)
	for i := range out {
		out[i] = [2]int{i * n / k, (i + 1) * n / k}
	}
	return out
}

// slicedMedian is the median over slices of each slice's median.
func slicedMedian(xs []float64) float64 { return median(sliceMedians(xs)) }

// sliceMedians is each slice's median, in time order.
func sliceMedians(xs []float64) []float64 {
	var per []float64
	for _, b := range sliceBounds(len(xs), minSliceMedian, maxSlices) {
		per = append(per, median(xs[b[0]:b[1]]))
	}
	return per
}

// slicedTail applies the tail rule to each slice and reports the median
// slice value, with the percentile and sample count of a single slice.
func slicedTail(xs []float64) (tail, int) {
	bounds := sliceBounds(len(xs), minSliceTail, len(xs))
	var per []float64
	var first tail
	for i, b := range bounds {
		t := tailOf(xs[b[0]:b[1]])
		if i == 0 {
			first = t
		}
		per = append(per, t.Value)
	}
	first.Value = median(per)
	return first, len(bounds)
}

// slicedRate is work per second of the program's own time: per slice, the
// work of its samples over the sum of their latencies; the median over
// slices is reported. Summing latencies rather than taking the slice's wall
// span keeps the figure a property of the program on the open loop too,
// where the span is set by the schedule: slower writes lower it there
// exactly as they do on a closed loop.
func slicedRate(samples []sample, work []float64) float64 {
	var per []float64
	for _, b := range sliceBounds(len(samples), minSliceMedian, maxSlices) {
		var sum float64
		var busy time.Duration
		for i := b[0]; i < b[1]; i++ {
			sum += work[i]
			busy += samples[i].Latency
		}
		per = append(per, safeDiv(sum, busy.Seconds()))
	}
	return median(per)
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tally counts operations for the failure ratio. Attempted covers every
// request of the measured window and every correctness check; Failed counts
// the failed ones (transport errors, non-2xx answers, timeouts, unexpected
// answers and mismatches); Mismatched is the subset of Failed that are
// correctness mismatches, which make the run exit non-zero.
type tally struct {
	Attempted  int
	Failed     int
	Mismatched int
}

// add records one operation.
func (t *tally) add(err error, mismatch bool) {
	t.Attempted++
	if err != nil {
		t.Failed++
		if mismatch {
			t.Mismatched++
		}
	}
}

// failedFrac is Failed over Attempted.
func (t tally) failedFrac() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.Failed) / float64(t.Attempted)
}

// nodeRoundsOf is the work a run did: the sum over cells of n·rounds
// executed.
func nodeRoundsOf(specs []analysis.RunSpec, results []analysis.RunResult) int64 {
	var sum int64
	for i, res := range results {
		if specs[i].Balancing != nil {
			sum += int64(specs[i].Balancing.N()) * int64(res.Rounds)
		}
	}
	return sum
}

// nodeRoundsOfDoc is nodeRoundsOf read back from an archived result
// document, the form the HTTP client sees.
func nodeRoundsOfDoc(doc []byte) (int64, error) {
	var d archive.ResultDoc
	if err := json.Unmarshal(doc, &d); err != nil {
		return 0, fmt.Errorf("result document: %w", err)
	}
	var sum int64
	for _, c := range d.Cells {
		sum += int64(c.N) * int64(c.Rounds)
	}
	return sum, nil
}

// span is one timed call into a layer. Parent is the ID of the span that
// caused it (-1 for a request's root); Req groups the spans of one request.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Req    int           `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its children cover. Overlapping children (parallel work)
// are merged, so covered time is never counted twice. The result is indexed
// like spans.
func selfTimes(spans []span) []time.Duration {
	byID := make(map[int]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	children := make(map[int][]span)
	for _, s := range spans {
		if _, ok := byID[s.Parent]; ok {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered time.Duration
		lo, hi := s.Start, s.Start
		for _, k := range kids {
			start, end := max(k.Start, s.Start), min(k.End, s.End)
			if end <= start {
				continue
			}
			if start > hi {
				covered += hi - lo
				lo, hi = start, end
			} else if end > hi {
				hi = end
			}
		}
		covered += hi - lo
		out[i] = s.End - s.Start - covered
	}
	return out
}

// parseMetrics reads a Prometheus text exposition into series → value,
// keyed by the series as written (name plus any labels).
func parseMetrics(text string) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			return nil, fmt.Errorf("metrics line %q: no value", line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:cut]] = v
	}
	return out, sc.Err()
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// finite clamps the +Inf that a failed request contributes to a latency
// population (it misses every limit) to a number JSON can carry.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return 1e12
	}
	return v
}

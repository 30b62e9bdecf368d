package main

// Per-layer metrics (-trace 1). STAGES.md maps each to the end-to-end
// metric and workload it should move.

import (
	"bytes"
	"fmt"
	"time"

	"detlb/internal/archive"
	"detlb/internal/scenario"
)

const (
	// replayCold is how many of a closed loop's first POSTs are replayed
	// (each with its read-back queries).
	replayCold = 9
	// serve-mix replays its first hits, queries and writes.
	replayHits    = 31
	replayQueries = 15
	replayWrites  = 9
)

// replayItems picks the fixed subset of the measured requests to replay.
func replayItems(wl workload, in inputs) []item {
	var items []item
	if !wl.open {
		for i := 0; i < replayCold && i < len(in.Reqs); i++ {
			items = append(items, item{id: i, req: in.Reqs[i]})
			for q := range readBackQueries("") {
				items = append(items, item{id: readBackID(len(in.Reqs), i, q), req: request{Kind: kindQuery}, readBack: q + 1})
			}
		}
		return items
	}
	want := map[kind]int{kindHit: replayHits, kindQuery: replayQueries, kindWrite: replayWrites}
	for i, r := range in.Reqs {
		if want[r.Kind] > 0 {
			want[r.Kind]--
			items = append(items, item{id: i, req: r})
		}
	}
	return items
}

// delta is a counter's or histogram field's change over the window.
func delta(before, after map[string]float64, series string) float64 {
	return after[series] - before[series]
}

// meanMs is a histogram's mean over the window, in ms.
func meanMs(before, after map[string]float64, hist string) float64 {
	n := delta(before, after, hist+"_count")
	if n == 0 {
		return 0
	}
	return 1000 * delta(before, after, hist+"_sum") / n
}

// layers replays the subset, runs the core step loop, and fills
// rep.layers. archiveDir is the window's archive, read by replayed hits and
// queries; dir receives the replay's own writes.
func layers(rep *report, wl workload, in inputs, archiveDir, dir string, win window, before, after map[string]float64) error {
	src, err := archive.Open(archiveDir)
	if err != nil {
		return err
	}
	tr, recs, err := replaySet(dir, src, replayItems(wl, in), time.Now())
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		return fmt.Errorf("nothing replayed")
	}
	rep.spans = tr.spans
	st := newStageStats(tr, recs)

	primaryKind := wl.primary()
	primary := st.reqsOf(primaryKind)
	writes := st.reqsOf(kindCold, kindWrite)
	hits := st.reqsOf(kindHit)
	queries := st.reqsOf(kindQuery)

	var nodeRounds int64
	var docBytes []float64
	var traced, untraced time.Duration
	for _, r := range recs {
		traced += r.traced
		untraced += r.untraced
		if r.kind == kindCold || r.kind == kindWrite {
			nodeRounds += r.nodeRounds
			docBytes = append(docBytes, float64(r.docBytes))
		}
	}
	roundsS := st.totalMs(writes, stSweep) / 1000

	// The serve residual pairs each replayed primary request with its own
	// untraced HTTP latency from the window.
	latency := map[int]sample{}
	for _, s := range win.samples {
		latency[s.Req] = s
	}
	var residual, stageSums []float64
	for _, id := range primary {
		sum := ms(st.stageSum(id))
		stageSums = append(stageSums, sum)
		if s, ok := latency[id]; ok && s.Err == nil {
			residual = append(residual, ms(s.Latency)-sum)
		}
	}

	g, err := coreGraph(in)
	if err != nil {
		return err
	}
	algo, err := scenario.ParseAlgo("rotor-router")
	if err != nil {
		return err
	}
	load, err := scenario.ParseWorkload("point")
	if err != nil {
		return err
	}
	ns1, allocs1, err := coreStep(g, algo, load, 1)
	if err != nil {
		return err
	}
	ns2, allocs2, err := coreStep(g, algo, load, 2)
	if err != nil {
		return err
	}

	var late []float64
	completed := 0
	for _, s := range win.samples {
		late = append(late, ms(s.Late))
		if s.Err == nil {
			completed++
		}
	}
	offered := float64(len(win.samples)) / win.wall.Seconds()
	if wl.open {
		offered = serveMixRate
	}
	hitsD := delta(before, after, "lbserve_cache_hits_total")
	missesD := delta(before, after, "lbserve_cache_misses_total")
	hitRatio := 0.0
	if hitsD+missesD > 0 {
		hitRatio = hitsD / (hitsD + missesD)
	}
	rep.note("core step loop on %s: workers 1 %.2f ns/node, workers 2 %.2f ns/node", g.String(), ns1, ns2)
	// The hit path and the open loop's lateness exist on serve-mix only, so
	// they are notes rather than metrics of the workloads BENCHMARK.json runs.
	rep.note("serve.cache_hit_ratio=%.4f over %.0f POSTs (%.0f hits, %.0f misses)", hitRatio, hitsD+missesD, hitsD, missesD)
	rep.note("archive.get_result_ms=%.4g over %d hits; load.generator_late_ms=%.4g", st.medianMs(hits, stGetResult), len(hits), tailOf(late).Value)
	rep.note("replayed %d requests (%d primary %s, %d writes, %d hits, %d queries); spans: %d",
		len(recs), len(primary), primaryKind, len(writes), len(hits), len(queries), len(tr.spans))

	rep.layers = []metric{
		{"scenario.decode_ms", "ms", st.medianMs(primary, stLoad)},
		{"scenario.fingerprint_ms", "ms", st.medianMs(primary, stFingerprint)},
		{"scenario.bind_ms", "ms", st.medianMs(writes, stBind, stRebind)},
		{"scenario.binds_per_run", "count", st.medianCalls(writes, stBind, stRebind)},
		{"scenario.share", "ratio", st.share(primary, scenarioStages...)},
		{"spectral.gap_ms", "ms", st.medianMs(writes, stGap)},
		{"spectral.gap_share", "ratio", st.share(primary, stGap)},
		{"spectral.gaps_per_run", "count", st.medianCalls(writes, stGap)},
		{"analysis.rounds_ms", "ms", st.medianMs(writes, stSweep)},
		{"analysis.rounds_share", "ratio", st.share(primary, stSweep)},
		{"analysis.node_rounds", "count", float64(nodeRounds)},
		{"analysis.node_rounds_per_s", "1/s", safeDiv(float64(nodeRounds), roundsS)},
		{"core.step_ns_per_node", "ns", ns1},
		{"core.step_ns_per_node_w2", "ns", ns2},
		{"core.step_allocs", "count", max(allocs1, allocs2)},
		{"archive.query_ms", "ms", st.medianMs(queries, queryStages...)},
		{"archive.index_rows", "count", after["lbserve_archive_index_rows"]},
		{"archive.put_ms", "ms", st.medianMs(writes, stPut)},
		{"archive.index_add_ms", "ms", st.medianMs(writes, stIndexAdd)},
		{"archive.encode_ms", "ms", st.medianMs(writes, stEncode)},
		{"archive.result_bytes", "bytes", median(docBytes)},
		{"archive.share", "ratio", st.share(primary, archiveStages...)},
		{"serve.residual_ms", "ms", median(residual)},
		{"serve.queue_wait_ms", "ms", meanMs(before, after, "lbserve_queue_seconds")},
		{"serve.run_ms", "ms", meanMs(before, after, "lbserve_run_seconds")},
		{"serve.runs_failed", "count", delta(before, after, "lbserve_runs_failed_total")},
		{"load.offered_rps", "1/s", offered},
		{"load.achieved_rps", "1/s", float64(completed) / win.wall.Seconds()},
		{"trace.stage_sum_ms", "ms", median(stageSums)},
		{"trace.overhead_frac", "ratio", safeDiv(float64(traced-untraced), float64(untraced))},
	}
	return nil
}

// coreGraph picks the graph the core step loop runs on: the largest graph
// of the workload's first cold request.
func coreGraph(in inputs) (scenario.GraphSpec, error) {
	for _, r := range in.Reqs {
		if r.Kind == kindCold || r.Kind == kindWrite {
			fam, err := scenario.Load(bytes.NewReader(r.Body))
			if err != nil {
				return scenario.GraphSpec{}, err
			}
			return fam.Graphs[len(fam.Graphs)-1], nil
		}
	}
	return scenario.GraphSpec{}, fmt.Errorf("no cold request to take a graph from")
}

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"detlb/internal/analysis"
	"detlb/internal/archive"
	"detlb/internal/scenario"
	"detlb/internal/trace"
)

// testFamily builds the suite's standard small dynamic family: one graph,
// one algorithm, a static and a shocked schedule, every round sampled.
func testFamily(t *testing.T) *scenario.Family {
	t.Helper()
	fam, err := scenario.ParseFamily("cycle:16", "rotor-router", "point:160", "none;burst:3,0,256", "")
	if err != nil {
		t.Fatal(err)
	}
	fam.Name = "serve-test"
	fam.Run = scenario.RunParams{Rounds: 40, Target: analysis.Target(8), SampleEvery: 1}
	return fam
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// postScenario submits a family and returns the accepted run summary.
func postScenario(t *testing.T, base string, fam *scenario.Family) RunSummary {
	t.Helper()
	body, err := fam.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	return postBytes(t, base, body)
}

func postBytes(t *testing.T, base string, body []byte) RunSummary {
	t.Helper()
	resp, err := http.Post(base+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/runs: %d: %s", resp.StatusCode, data)
	}
	var sum RunSummary
	if err := json.Unmarshal(data, &sum); err != nil {
		t.Fatalf("summary: %v (%s)", err, data)
	}
	return sum
}

// waitResult blocks on the result endpoint until the run is terminal,
// returning the HTTP status and body.
func waitResult(t *testing.T, base, id string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/runs/%s/result?wait=1", base, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, data
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("GET %s: %v (%s)", url, err, data)
	}
	return resp.StatusCode
}

// wireEvent is one NDJSON stream line.
type wireEvent struct {
	Event string          `json:"event"`
	Data  json.RawMessage `json:"data"`
}

// readStream consumes a whole NDJSON stream body.
func readStream(t *testing.T, body io.Reader) []wireEvent {
	t.Helper()
	var events []wireEvent
	dec := json.NewDecoder(body)
	for {
		var ev wireEvent
		if err := dec.Decode(&ev); err == io.EOF {
			return events
		} else if err != nil {
			t.Fatalf("stream decode: %v", err)
		}
		events = append(events, ev)
	}
}

// streamSamples extracts the per-cell snapshot samples of a stream.
func streamSamples(t *testing.T, events []wireEvent) map[int][]trace.Sample {
	t.Helper()
	out := map[int][]trace.Sample{}
	for _, ev := range events {
		if ev.Event != eventSnapshot {
			continue
		}
		var snap struct {
			Cell int `json:"cell"`
			trace.Sample
		}
		if err := json.Unmarshal(ev.Data, &snap); err != nil {
			t.Fatal(err)
		}
		out[snap.Cell] = append(out[snap.Cell], snap.Sample)
	}
	return out
}

// TestRunLifecycleAndResult: POST → done → deterministic result document,
// with the run visible in the registry listing.
func TestRunLifecycleAndResult(t *testing.T) {
	_, ts := newTestServer(t, Config{ArchiveDir: t.TempDir()})
	sum := postScenario(t, ts.URL, testFamily(t))
	if sum.Cells != 2 || sum.ID == "" || len(sum.Digest) != 64 {
		t.Fatalf("summary: %+v", sum)
	}
	code, doc := waitResult(t, ts.URL, sum.ID)
	if code != http.StatusOK {
		t.Fatalf("result: %d: %s", code, doc)
	}
	var res archive.ResultDoc
	if err := json.Unmarshal(doc, &res); err != nil {
		t.Fatal(err)
	}
	if res.Version != archive.ResultVersion || res.Digest != sum.Digest || len(res.Cells) != 2 {
		t.Fatalf("result doc: version=%d digest=%s cells=%d", res.Version, res.Digest, len(res.Cells))
	}
	if res.Cells[1].Schedule != "burst:3,0,256" || len(res.Cells[1].Shocks) != 1 {
		t.Fatalf("dynamic cell: %+v", res.Cells[1])
	}
	if res.Cells[0].Rounds == 0 || len(res.Cells[0].Series) == 0 {
		t.Fatalf("static cell: %+v", res.Cells[0])
	}

	var list []RunSummary
	if code := getJSON(t, ts.URL+"/v1/runs", &list); code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	if len(list) != 1 || list[0].ID != sum.ID || list[0].Status != StatusDone {
		t.Fatalf("listing: %+v", list)
	}
	if list[0].Archive != "created" {
		t.Fatalf("archive state: %+v", list[0])
	}
}

// TestResultMatchesDirectSweep: the canonical execution's cells are
// bit-identical to running the same bound specs directly.
func TestResultMatchesDirectSweep(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	fam := testFamily(t)
	sum := postScenario(t, ts.URL, fam)
	_, doc := waitResult(t, ts.URL, sum.ID)
	var res archive.ResultDoc
	if err := json.Unmarshal(doc, &res); err != nil {
		t.Fatal(err)
	}

	specs, cells, err := fam.Bind()
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		want := analysis.Run(spec)
		got := res.Cells[i]
		if got.Rounds != want.Rounds || got.FinalDisc != want.FinalDiscrepancy ||
			got.MinDisc != want.MinDiscrepancy || got.TargetRound != want.TargetRound {
			t.Fatalf("cell %d (%s): served %+v vs direct %+v", i, cells[i].Schedule, got, want)
		}
		if len(got.Series) != len(want.Series) {
			t.Fatalf("cell %d: %d served samples vs %d direct", i, len(got.Series), len(want.Series))
		}
		for j, p := range want.Series {
			if !reflect.DeepEqual(got.Series[j], p.Sample()) {
				t.Fatalf("cell %d sample %d: %+v vs %+v", i, j, got.Series[j], p.Sample())
			}
		}
	}
}

// TestStreamConsumersBitIdentical is the concurrency contract: N concurrent
// stream consumers over one server, each re-executing on distinct engines,
// produce byte-identical streams whose snapshots match a serial analysis.Run
// exactly.
func TestStreamConsumersBitIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	fam := testFamily(t)
	sum := postScenario(t, ts.URL, fam)
	waitResult(t, ts.URL, sum.ID)

	const consumers = 4
	bodies := make([][]byte, consumers)
	var wg sync.WaitGroup
	errs := make([]error, consumers)
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(fmt.Sprintf("%s/v1/runs/%s/stream", ts.URL, sum.ID))
			if err != nil {
				errs[c] = err
				return
			}
			defer resp.Body.Close()
			bodies[c], errs[c] = io.ReadAll(resp.Body)
		}()
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("consumer %d: %v", c, err)
		}
	}
	for c := 1; c < consumers; c++ {
		if !bytes.Equal(bodies[0], bodies[c]) {
			t.Fatalf("consumer %d stream differs from consumer 0:\n%s\nvs\n%s", c, bodies[c], bodies[0])
		}
	}

	// The streamed snapshots are the serial Run's trajectory: round 0 opens
	// each cell, then exactly the SampleEvery=1 series (rounds + shocks, in
	// order, same wire encoding).
	events := readStream(t, bytes.NewReader(bodies[0]))
	perCell := streamSamples(t, events)
	specs, _, err := fam.Bind()
	if err != nil {
		t.Fatal(err)
	}
	if len(perCell) != len(specs) {
		t.Fatalf("snapshots for %d cells, want %d", len(perCell), len(specs))
	}
	for i, spec := range specs {
		want := analysis.Run(spec)
		got := perCell[i]
		if got[0].Round != 0 {
			t.Fatalf("cell %d: stream must open at round 0, got %+v", i, got[0])
		}
		wantSamples := make([]trace.Sample, len(want.Series))
		for j, p := range want.Series {
			wantSamples[j] = p.Sample()
		}
		if !reflect.DeepEqual(got[1:], wantSamples) {
			t.Fatalf("cell %d: streamed samples differ from serial Run series:\n%+v\nvs\n%+v",
				i, got[1:], wantSamples)
		}
	}

	// The stream closes with a done event.
	if last := events[len(events)-1]; last.Event != eventDone {
		t.Fatalf("stream ended with %q", last.Event)
	}
}

// longFamily is a run that would take ages — the subject of the cancellation
// and disconnect tests. Workers=4 gives each engine a worker pool whose
// goroutines must be released on disconnect.
func longFamily(t *testing.T, workers int) *scenario.Family {
	t.Helper()
	fam, err := scenario.ParseFamily("cycle:64", "rotor-router", "point:640", "", "")
	if err != nil {
		t.Fatal(err)
	}
	fam.Run = scenario.RunParams{Rounds: 50_000_000, Workers: workers}
	return fam
}

// TestStreamDisconnectCancelsWithinOneRound: a mid-stream client disconnect
// stops the consumer's execution within one round and releases its engine —
// the worker-pool goroutine count returns to the pre-stream baseline.
func TestStreamDisconnectCancelsWithinOneRound(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxRunRounds: 1 << 30})
	fam := longFamily(t, 4)
	sum := postScenario(t, ts.URL, fam)
	// The canonical execution would run ~forever: cancel it first so the
	// stream below is the only execution alive (and prove streams still
	// serve canceled runs — determinism doesn't care about run status).
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/runs/%s", ts.URL, sum.ID), nil)
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	if code, body := waitResult(t, ts.URL, sum.ID); code != http.StatusConflict {
		t.Fatalf("canceled run result: %d: %s", code, body)
	}

	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	req, _ = http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/v1/runs/%s/stream", ts.URL, sum.ID), nil)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read a handful of live snapshots, then vanish mid-stream.
	dec := json.NewDecoder(resp.Body)
	snapshots := 0
	for snapshots < 5 {
		var ev wireEvent
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("stream ended early: %v", err)
		}
		if ev.Event == eventSnapshot {
			snapshots++
		}
	}
	cancel()
	resp.Body.Close()
	client.CloseIdleConnections()

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("disconnected stream leaked goroutines: %d -> %d", before, after)
	}
}

// TestCancelRunStopsPromptly: DELETE cancels a running sweep within one
// round — the result endpoint unblocks almost immediately with 409.
func TestCancelRunStopsPromptly(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxRunRounds: 1 << 30})
	sum := postScenario(t, ts.URL, longFamily(t, 0))
	// Let it actually start before canceling.
	waitRunning(t, ts.URL, sum.ID)
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/runs/%s", ts.URL, sum.ID), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	start := time.Now()
	code, body := waitResult(t, ts.URL, sum.ID)
	if code != http.StatusConflict {
		t.Fatalf("result after cancel: %d: %s", code, body)
	}
	var got RunSummary
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusCanceled {
		t.Fatalf("status after cancel: %+v", got)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v — not round-granular", elapsed)
	}
}

// TestPresetRunAndSSE: ?preset= runs the named preset, and the SSE encoding
// carries shock-marked snapshot frames.
func TestPresetRunAndSSE(t *testing.T) {
	_, ts := newTestServer(t, Config{ArchiveDir: t.TempDir()})
	resp, err := http.Post(ts.URL+"/v1/runs?preset=shock-recovery", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("preset POST: %d: %s", resp.StatusCode, data)
	}
	var sum RunSummary
	if err := json.Unmarshal(data, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Name != "shock-recovery" || sum.Cells != 12 {
		t.Fatalf("preset summary: %+v", sum)
	}
	if code, _ := waitResult(t, ts.URL, sum.ID); code != http.StatusOK {
		t.Fatalf("preset result: %d", code)
	}

	sresp, err := http.Get(fmt.Sprintf("%s/v1/runs/%s/stream?format=sse", ts.URL, sum.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type: %q", ct)
	}
	body, err := io.ReadAll(sresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	if !strings.Contains(text, "event: snapshot\ndata: ") {
		t.Fatal("no SSE snapshot frames")
	}
	if !strings.Contains(text, `"shock"`) {
		t.Fatal("SSE stream carries no shock-marked snapshots")
	}
	if !strings.Contains(text, "event: done") {
		t.Fatal("SSE stream did not close with done")
	}
}

// TestFaultedPresetRunSSEAndArchiveReplay is the serving layer's half of the
// fault-injection acceptance criteria: the link-failure-recovery preset runs
// to completion, its result document carries per-cell topology labels and
// fault records with recovery metrics, the SSE stream carries fault-marked
// snapshot frames, and the archived scenario replays bit-identically.
func TestFaultedPresetRunSSEAndArchiveReplay(t *testing.T) {
	_, ts := newTestServer(t, Config{ArchiveDir: t.TempDir(), CacheMode: CacheVerify})
	resp, err := http.Post(ts.URL+"/v1/runs?preset=link-failure-recovery", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("preset POST: %d: %s", resp.StatusCode, data)
	}
	var sum RunSummary
	if err := json.Unmarshal(data, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Name != "link-failure-recovery" || sum.Cells != 12 {
		t.Fatalf("preset summary: %+v", sum)
	}
	code, r1 := waitResult(t, ts.URL, sum.ID)
	if code != http.StatusOK {
		t.Fatalf("preset result: %d: %s", code, r1)
	}

	var doc archive.ResultDoc
	if err := json.Unmarshal(r1, &doc); err != nil {
		t.Fatal(err)
	}
	faulted, recovered, partitioned := 0, 0, 0
	for _, c := range doc.Cells {
		if c.Err != "" {
			t.Fatalf("cell %s/%s/%s failed: %s", c.Graph, c.Algo, c.Topology, c.Err)
		}
		if c.Topology == "" {
			if len(c.Faults) != 0 {
				t.Fatalf("static-topology cell carries faults: %+v", c)
			}
			continue
		}
		faulted++
		if len(c.Faults) == 0 {
			t.Fatalf("faulted cell %s has no fault records", c.Topology)
		}
		for _, f := range c.Faults {
			if f.Components > 1 {
				partitioned++
			}
			if f.RecoveryRounds >= 0 {
				recovered++
			}
		}
	}
	if faulted != 8 {
		t.Fatalf("faulted cells: %d, want 8", faulted)
	}
	if recovered == 0 || partitioned == 0 {
		t.Fatalf("expected recovered and partitioned fault events (recovered=%d partitioned=%d)",
			recovered, partitioned)
	}

	// The SSE stream carries fault-marked snapshot frames.
	sresp, err := http.Get(fmt.Sprintf("%s/v1/runs/%s/stream?format=sse", ts.URL, sum.ID))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	if !strings.Contains(text, `"fault"`) {
		t.Fatal("SSE stream carries no fault-marked snapshots")
	}
	if !strings.Contains(text, `"topology"`) {
		t.Fatal("SSE cell headers carry no topology labels")
	}
	if !strings.Contains(text, "event: done") {
		t.Fatal("SSE stream did not close with done")
	}

	// The archived scenario re-POSTs to the same digest and reproduces the
	// archived faulted result bit-identically.
	aresp, err := http.Get(fmt.Sprintf("%s/v1/archive/%s/scenario", ts.URL, sum.Digest))
	if err != nil {
		t.Fatal(err)
	}
	archived, _ := io.ReadAll(aresp.Body)
	aresp.Body.Close()
	sum2 := postBytes(t, ts.URL, archived)
	if sum2.Digest != sum.Digest {
		t.Fatalf("re-POST digest %s != %s", sum2.Digest, sum.Digest)
	}
	code, r2 := waitResult(t, ts.URL, sum2.ID)
	if code != http.StatusOK {
		t.Fatalf("replay: %d: %s", code, r2)
	}
	if !bytes.Equal(r1, r2) {
		t.Fatal("faulted replay is not bit-identical to the archived result")
	}
	var got RunSummary
	getJSON(t, fmt.Sprintf("%s/v1/runs/%s", ts.URL, sum2.ID), &got)
	if got.Archive != "verified" {
		t.Fatalf("replay archive state: %+v", got)
	}
}

// TestProtocolPresetRunAndArchiveReplay is the serving layer's half of the
// model-kernel acceptance criteria: the majority-vs-rotor preset — one
// diffusion cell and one population-protocol cell over the same opinion
// vector — runs to completion, the protocol cell's record carries its metric
// name, and the archived scenario replays bit-identically.
func TestProtocolPresetRunAndArchiveReplay(t *testing.T) {
	_, ts := newTestServer(t, Config{ArchiveDir: t.TempDir(), CacheMode: CacheVerify})
	resp, err := http.Post(ts.URL+"/v1/runs?preset=majority-vs-rotor", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("preset POST: %d: %s", resp.StatusCode, data)
	}
	var sum RunSummary
	if err := json.Unmarshal(data, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Name != "majority-vs-rotor" || sum.Cells != 2 {
		t.Fatalf("preset summary: %+v", sum)
	}
	code, r1 := waitResult(t, ts.URL, sum.ID)
	if code != http.StatusOK {
		t.Fatalf("preset result: %d: %s", code, r1)
	}

	var doc archive.ResultDoc
	if err := json.Unmarshal(r1, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Cells) != 2 {
		t.Fatalf("cells: %d, want 2", len(doc.Cells))
	}
	diffusion, protocolCells := 0, 0
	for _, c := range doc.Cells {
		if c.Err != "" {
			t.Fatalf("cell %s/%s failed: %s", c.Graph, c.Algo, c.Err)
		}
		if !c.ReachedTarget {
			t.Fatalf("cell %s/%s did not reach the preset target", c.Graph, c.Algo)
		}
		if len(c.Series) == 0 {
			t.Fatalf("cell %s/%s has no sampled series", c.Graph, c.Algo)
		}
		switch c.Metric {
		case "":
			diffusion++
		case "unconverged":
			protocolCells++
		default:
			t.Fatalf("unexpected metric %q on cell %s/%s", c.Metric, c.Graph, c.Algo)
		}
	}
	if diffusion != 1 || protocolCells != 1 {
		t.Fatalf("expected 1 diffusion + 1 protocol cell, got %d + %d", diffusion, protocolCells)
	}

	// The archived scenario re-POSTs to the same digest and reproduces the
	// archived result bit-identically — model runs are as deterministic as
	// diffusion runs.
	aresp, err := http.Get(fmt.Sprintf("%s/v1/archive/%s/scenario", ts.URL, sum.Digest))
	if err != nil {
		t.Fatal(err)
	}
	archived, _ := io.ReadAll(aresp.Body)
	aresp.Body.Close()
	sum2 := postBytes(t, ts.URL, archived)
	if sum2.Digest != sum.Digest {
		t.Fatalf("re-POST digest %s != %s", sum2.Digest, sum.Digest)
	}
	code, r2 := waitResult(t, ts.URL, sum2.ID)
	if code != http.StatusOK {
		t.Fatalf("replay: %d: %s", code, r2)
	}
	if !bytes.Equal(r1, r2) {
		t.Fatal("protocol replay is not bit-identical to the archived result")
	}
	var got RunSummary
	getJSON(t, fmt.Sprintf("%s/v1/runs/%s", ts.URL, sum2.ID), &got)
	if got.Archive != "verified" {
		t.Fatalf("replay archive state: %+v", got)
	}
}

// TestArchiveRoundTrip is the regression-tracking contract end to end:
// the archived scenario re-POSTs to the same digest and reproduces the
// archived result bit-identically (run state "verified").
func TestArchiveRoundTrip(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{ArchiveDir: dir, CacheMode: CacheVerify})
	fam := testFamily(t)
	sum := postScenario(t, ts.URL, fam)
	code, r1 := waitResult(t, ts.URL, sum.ID)
	if code != http.StatusOK {
		t.Fatalf("first run: %d", code)
	}

	var entries []archive.Entry
	if code := getJSON(t, ts.URL+"/v1/archive", &entries); code != http.StatusOK {
		t.Fatalf("archive list: %d", code)
	}
	if len(entries) != 1 || entries[0].Digest != sum.Digest ||
		entries[0].Name != "serve-test" || entries[0].Cells != 2 {
		t.Fatalf("archive entries: %+v", entries)
	}

	resp, err := http.Get(fmt.Sprintf("%s/v1/archive/%s/scenario", ts.URL, sum.Digest))
	if err != nil {
		t.Fatal(err)
	}
	archived, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	canonical, err := fam.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(archived, canonical) {
		t.Fatalf("archived scenario differs from canonical bytes:\n%s\nvs\n%s", archived, canonical)
	}

	sum2 := postBytes(t, ts.URL, archived)
	if sum2.Digest != sum.Digest {
		t.Fatalf("re-POST digest %s != %s", sum2.Digest, sum.Digest)
	}
	code, r2 := waitResult(t, ts.URL, sum2.ID)
	if code != http.StatusOK {
		t.Fatalf("re-run: %d: %s", code, r2)
	}
	if !bytes.Equal(r1, r2) {
		t.Fatal("re-run result is not bit-identical to the archived result")
	}
	var got RunSummary
	getJSON(t, fmt.Sprintf("%s/v1/runs/%s", ts.URL, sum2.ID), &got)
	if got.Archive != "verified" {
		t.Fatalf("re-run archive state: %+v", got)
	}

	// The raw archived result matches what both runs served.
	resp, err = http.Get(fmt.Sprintf("%s/v1/archive/%s/result", ts.URL, sum.Digest))
	if err != nil {
		t.Fatal(err)
	}
	fromArchive, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Equal(fromArchive, r1) {
		t.Fatal("archive result file differs from the served result")
	}
}

// TestArchiveMismatchFailsRun: a pre-existing archive entry with a different
// result marks the re-run failed — the regression signal.
func TestArchiveMismatchFailsRun(t *testing.T) {
	dir := t.TempDir()
	fam := testFamily(t)
	digest, canonical, err := fam.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	arch, err := archive.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := arch.Put(digest, canonical, []byte("{\"version\":1,\"cells\":[]}\n")); err != nil {
		t.Fatal(err)
	}

	// Verify mode: the archived entry is stale, so serving it as a hit would
	// hide the regression — the sampled re-execution must catch it instead.
	_, ts := newTestServer(t, Config{ArchiveDir: dir, CacheMode: CacheVerify})
	sum := postScenario(t, ts.URL, fam)
	code, body := waitResult(t, ts.URL, sum.ID)
	if code != http.StatusConflict {
		t.Fatalf("mismatched run result: %d: %s", code, body)
	}
	// The 409 body is the divergent result document — the evidence of the
	// regression, diffable against the archived result.
	var doc archive.ResultDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("mismatch body is not a result doc: %v (%s)", err, body)
	}
	if len(doc.Cells) != 2 || doc.Digest != digest {
		t.Fatalf("divergent doc: %+v", doc)
	}
	var got RunSummary
	getJSON(t, ts.URL+"/v1/runs/"+sum.ID, &got)
	if got.Status != StatusFailed || !strings.Contains(got.Error, "differs from the archived run") {
		t.Fatalf("mismatch summary: %+v", got)
	}
}

// TestArchiveStaleEntryMigratesQuietly: an entry archived under an older
// result version is not a regression. The re-run finishes done with
// "archive":"stale", serves its own document, leaves the stored entry as it
// is and counts no mismatch.
func TestArchiveStaleEntryMigratesQuietly(t *testing.T) {
	dir := t.TempDir()
	fam := testFamily(t)
	digest, canonical, err := fam.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	// A version-1 result.json, as older code archived it.
	old := []byte(fmt.Sprintf("{\"version\":1,\"digest\":%q,\"cells\":[]}\n", digest))
	arch, err := archive.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := arch.Put(digest, canonical, old); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{ArchiveDir: dir, CacheMode: CacheVerify})
	sum := postScenario(t, ts.URL, fam)
	code, body := waitResult(t, ts.URL, sum.ID)
	if code != http.StatusOK {
		t.Fatalf("stale re-run result: %d: %s", code, body)
	}
	var doc archive.ResultDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Version != archive.ResultVersion || len(doc.Cells) != 2 {
		t.Fatalf("stale re-run served %+v, want its own version-%d document", doc, archive.ResultVersion)
	}
	if got := runSummary(t, ts.URL, sum.ID); got.Status != StatusDone || got.Archive != "stale" || got.Error != "" {
		t.Fatalf("stale summary: %+v", got)
	}
	if v := metricValue(t, ts.URL, "lbserve_archive_mismatches_total"); v != 0 {
		t.Fatalf("mismatches: %v, want 0", v)
	}
	if stored, err := arch.GetResult(digest); err != nil || !bytes.Equal(stored, old) {
		t.Fatalf("stale entry changed: %v %s", err, stored)
	}
}

// TestQueueing: with one execution slot, submitted runs still all complete,
// in bounded-concurrency order.
func TestQueueing(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrentRuns: 1})
	var ids []string
	for i := 0; i < 3; i++ {
		ids = append(ids, postScenario(t, ts.URL, testFamily(t)).ID)
	}
	for _, id := range ids {
		if code, body := waitResult(t, ts.URL, id); code != http.StatusOK {
			t.Fatalf("run %s: %d: %s", id, code, body)
		}
	}
}

// TestServerCloseCancelsRuns: Close is the drain hammer — queued and
// in-flight runs terminate within one round.
func TestServerCloseCancelsRuns(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxConcurrentRuns: 1, MaxRunRounds: 1 << 30})
	running := postScenario(t, ts.URL, longFamily(t, 0))
	queued := postScenario(t, ts.URL, longFamily(t, 2))
	done := make(chan struct{})
	go func() {
		srv.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("Close did not terminate the runs")
	}
	for _, id := range []string{running.ID, queued.ID} {
		var got RunSummary
		getJSON(t, fmt.Sprintf("%s/v1/runs/%s", ts.URL, id), &got)
		if got.Status != StatusCanceled {
			t.Fatalf("run %s after Close: %+v", id, got)
		}
	}
}

// TestRetentionEvictsTerminalRuns: the registry is bounded — old finished
// runs vanish from listings while their archive entries stay addressable.
func TestRetentionEvictsTerminalRuns(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{ArchiveDir: dir, MaxRetainedRuns: 2})
	var ids []string
	for i := 0; i < 3; i++ {
		sum := postScenario(t, ts.URL, testFamily(t))
		ids = append(ids, sum.ID)
		if code, _ := waitResult(t, ts.URL, sum.ID); code != http.StatusOK {
			t.Fatalf("run %d: %d", i, code)
		}
	}
	var list []RunSummary
	getJSON(t, ts.URL+"/v1/runs", &list)
	if len(list) != 2 || list[0].ID != ids[1] || list[1].ID != ids[2] {
		t.Fatalf("retained runs: %+v", list)
	}
	resp, err := http.Get(ts.URL + "/v1/runs/" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted run still addressable: %d", resp.StatusCode)
	}
	// The archive keeps the result: identical scenarios share one entry.
	var entries []archive.Entry
	getJSON(t, ts.URL+"/v1/archive", &entries)
	if len(entries) != 1 {
		t.Fatalf("archive entries: %+v", entries)
	}
}

// TestPostAfterCloseRejected: Close is atomic with acceptance — no run can
// slip in behind it.
func TestPostAfterCloseRejected(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	body, err := testFamily(t).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST after Close: %d", resp.StatusCode)
	}
}

// TestAdmissionCaps: hostile or typo'd sizes are rejected before anything
// is bound — the daemon must answer 400, not OOM.
func TestAdmissionCaps(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxCells: 4, MaxTopologyParts: 8})
	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(data)
	}

	code, body := post(`{"graphs":[{"kind":"cycle","args":[2000000000]}],` +
		`"algos":[{"kind":"send-floor"}],"workloads":[{"kind":"point"}]}`)
	if code != http.StatusBadRequest || !strings.Contains(body, "arcs") {
		t.Fatalf("giant cycle: %d: %s", code, body)
	}
	code, body = post(`{"graphs":[{"kind":"complete","args":[200000]}],` +
		`"algos":[{"kind":"send-floor"}],"workloads":[{"kind":"point"}]}`)
	if code != http.StatusBadRequest || !strings.Contains(body, "arcs") {
		t.Fatalf("dense complete graph: %d: %s", code, body)
	}
	code, body = post(`{"graphs":[{"kind":"cycle","args":[8]},{"kind":"cycle","args":[16]},{"kind":"cycle","args":[32]}],` +
		`"algos":[{"kind":"send-floor"},{"kind":"rotor-router"}],"workloads":[{"kind":"point"}]}`)
	if code != http.StatusBadRequest || !strings.Contains(body, "cells") {
		t.Fatalf("oversized cross product: %d: %s", code, body)
	}
	code, body = post(`{"graphs":[{"kind":"cycle","args":[64]}],` +
		`"algos":[{"kind":"send-floor"}],"workloads":[{"kind":"point"}],` +
		`"run":{"rounds":2000000000,"sample_every":1}}`)
	if code != http.StatusBadRequest || !strings.Contains(body, "run.rounds") {
		t.Fatalf("giant round count: %d: %s", code, body)
	}
	// The topology dimension multiplies into the cell cap...
	topo := `[{"kind":"faillink","args":[1,0,1]}]`
	code, body = post(`{"graphs":[{"kind":"cycle","args":[8]}],` +
		`"algos":[{"kind":"send-floor"}],"workloads":[{"kind":"point"}],` +
		`"topologies":[` + topo + `,` + topo + `,` + topo + `,` + topo + `,` + topo + `]}`)
	if code != http.StatusBadRequest || !strings.Contains(body, "cells") {
		t.Fatalf("oversized topology cross product: %d: %s", code, body)
	}
	// ...and a single spec packed with fault parts trips the density cap.
	parts := strings.Repeat(`{"kind":"faillink","args":[1,0,1]},`, 9)
	code, body = post(`{"graphs":[{"kind":"cycle","args":[8]}],` +
		`"algos":[{"kind":"send-floor"}],"workloads":[{"kind":"point"}],` +
		`"topologies":[[` + strings.TrimSuffix(parts, ",") + `]]}`)
	if code != http.StatusBadRequest || !strings.Contains(body, "parts") {
		t.Fatalf("topology part bomb: %d: %s", code, body)
	}
	code, body = post(`{"graphs":[{"kind":"cycle","args":[64]}],` +
		`"algos":[{"kind":"send-floor"}],"workloads":[{"kind":"point"}],` +
		`"run":{"sample_every":1}}`)
	if code != http.StatusBadRequest || !strings.Contains(body, "sample_every") {
		t.Fatalf("sampling without a rounds cap: %d: %s", code, body)
	}
	// A family within the caps still runs.
	sum := postScenario(t, ts.URL, testFamily(t))
	if code, _ := waitResult(t, ts.URL, sum.ID); code != http.StatusOK {
		t.Fatalf("in-bounds family: %d", code)
	}
}

// TestStreamConcurrencyCap: stream re-executions are bounded work — a full
// table answers 503 and a freed slot serves again.
func TestStreamConcurrencyCap(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxRunRounds: 1 << 30, MaxConcurrentStreams: 1})
	sum := postScenario(t, ts.URL, longFamily(t, 0))
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/runs/%s", ts.URL, sum.ID), nil)
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	waitResult(t, ts.URL, sum.ID)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ = http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/v1/runs/%s/stream", ts.URL, sum.ID), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// The stream is live (one event read) and holds the only slot.
	var ev wireEvent
	if err := json.NewDecoder(resp.Body).Decode(&ev); err != nil {
		t.Fatal(err)
	}
	second, err := http.Get(fmt.Sprintf("%s/v1/runs/%s/stream", ts.URL, sum.ID))
	if err != nil {
		t.Fatal(err)
	}
	second.Body.Close()
	if second.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second stream: %d", second.StatusCode)
	}
	cancel()
	resp.Body.Close()
	// The slot frees once the disconnected handler unwinds.
	deadline := time.Now().Add(5 * time.Second)
	for {
		again, err := http.Get(fmt.Sprintf("%s/v1/runs/%s/stream?format=sse", ts.URL, sum.ID))
		if err != nil {
			t.Fatal(err)
		}
		code := again.StatusCode
		if code == http.StatusOK {
			// Drain a little then hang up; the body is a live stream.
			io.CopyN(io.Discard, again.Body, 256)
			again.Body.Close()
			return
		}
		again.Body.Close()
		if time.Now().After(deadline) {
			t.Fatalf("stream slot never freed: %d", code)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestBadRequests: malformed inputs answer 4xx, not 500s or silent runs.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		do   func() (*http.Response, error)
		code int
	}{
		{"empty body", func() (*http.Response, error) {
			return http.Post(ts.URL+"/v1/runs", "application/json", nil)
		}, http.StatusBadRequest},
		{"bad json", func() (*http.Response, error) {
			return http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader("{nope"))
		}, http.StatusBadRequest},
		{"unknown field", func() (*http.Response, error) {
			return http.Post(ts.URL+"/v1/runs", "application/json",
				strings.NewReader(`{"graphs":[{"kind":"cycle","args":[8]}],"algos":[{"kind":"rotor-router"}],"workloads":[{"kind":"point"}],"typo":1}`))
		}, http.StatusBadRequest},
		{"unknown preset", func() (*http.Response, error) {
			return http.Post(ts.URL+"/v1/runs?preset=nope", "application/json", nil)
		}, http.StatusNotFound},
		{"body and preset", func() (*http.Response, error) {
			return http.Post(ts.URL+"/v1/runs?preset=shock-recovery", "application/json", strings.NewReader("{}"))
		}, http.StatusBadRequest},
		{"unknown run", func() (*http.Response, error) {
			return http.Get(ts.URL + "/v1/runs/r9999")
		}, http.StatusNotFound},
		{"unknown run stream", func() (*http.Response, error) {
			return http.Get(ts.URL + "/v1/runs/r9999/stream")
		}, http.StatusNotFound},
		{"traversal digest", func() (*http.Response, error) {
			return http.Get(ts.URL + "/v1/archive/../../etc/passwd/scenario")
		}, http.StatusNotFound},
		{"oversized body", func() (*http.Response, error) {
			return http.Post(ts.URL+"/v1/runs", "application/json",
				bytes.NewReader(make([]byte, 1<<20+1)))
		}, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		resp, err := tc.do()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Fatalf("%s: got %d, want %d", tc.name, resp.StatusCode, tc.code)
		}
	}
}

// TestPresetsEndpoint lists the catalog.
func TestPresetsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var presets []struct{ Name, Description string }
	if code := getJSON(t, ts.URL+"/v1/presets", &presets); code != http.StatusOK {
		t.Fatalf("presets: %d", code)
	}
	if len(presets) != len(scenario.PresetNames()) {
		t.Fatalf("presets: %+v", presets)
	}
}

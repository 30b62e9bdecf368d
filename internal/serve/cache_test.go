package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"detlb/internal/archive"
)

// metricValue scrapes GET /metrics and returns one metric's value. Missing
// metrics are fatal: the exposition always carries every registered name.
func metricValue(t *testing.T, base, name string) float64 {
	t.Helper()
	return scrapeMetrics(t, base, name)[0]
}

// scrapeMetrics reads the named unlabelled metrics from one GET /metrics.
func scrapeMetrics(t *testing.T, base string, names ...string) []float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	values := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 2 {
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				t.Fatalf("metric %s: %v", fields[0], err)
			}
			values[fields[0]] = v
		}
	}
	out := make([]float64, len(names))
	for i, name := range names {
		v, ok := values[name]
		if !ok {
			t.Fatalf("metric %s not exposed", name)
		}
		out[i] = v
	}
	return out
}

// runSummary fetches one run's registry summary.
func runSummary(t *testing.T, base, id string) RunSummary {
	t.Helper()
	var sum RunSummary
	if code := getJSON(t, base+"/v1/runs/"+id, &sum); code != http.StatusOK {
		t.Fatalf("GET run %s: %d", id, code)
	}
	return sum
}

// waitRunning polls a run's summary until it reports running.
func waitRunning(t *testing.T, base, id string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runSummary(t, base, id).Status != StatusRunning {
		if time.Now().After(deadline) {
			t.Fatalf("run %s did not start within 5s", id)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCacheHitServesArchivedResult is the memoized tier's core contract: a
// re-POST of an archived fingerprint is terminal at the POST response itself
// — no execution — and serves the archived bytes verbatim, while its stream
// still re-executes deterministically.
func TestCacheHitServesArchivedResult(t *testing.T) {
	_, ts := newTestServer(t, Config{ArchiveDir: t.TempDir()})
	fam := testFamily(t)

	first := postScenario(t, ts.URL, fam)
	code, cold := waitResult(t, ts.URL, first.ID)
	if code != http.StatusOK {
		t.Fatalf("cold run: %d: %s", code, cold)
	}
	if got := runSummary(t, ts.URL, first.ID); got.Archive != "created" {
		t.Fatalf("cold run archive state: %+v", got)
	}

	// The POST response itself is already terminal: status done, archive
	// "hit" — the run never touched the executor pool.
	hit := postScenario(t, ts.URL, fam)
	if hit.Status != StatusDone || hit.Archive != "hit" {
		t.Fatalf("hit POST summary: %+v", hit)
	}
	if hit.Digest != first.Digest {
		t.Fatalf("hit digest %s != cold digest %s", hit.Digest, first.Digest)
	}
	code, warm := waitResult(t, ts.URL, hit.ID)
	if code != http.StatusOK {
		t.Fatalf("hit result: %d: %s", code, warm)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("hit result differs from archived result:\n%s\nvs\n%s", cold, warm)
	}

	// Exactly one execution happened; the second POST was a pure hit.
	if v := metricValue(t, ts.URL, "lbserve_runs_executed_total"); v != 1 {
		t.Fatalf("runs executed: %v, want 1", v)
	}
	if v := metricValue(t, ts.URL, "lbserve_cache_hits_total"); v != 1 {
		t.Fatalf("cache hits: %v, want 1", v)
	}
	if v := metricValue(t, ts.URL, "lbserve_cache_misses_total"); v != 1 {
		t.Fatalf("cache misses: %v, want 1", v)
	}

	// Streams are untouched by the cache: the hit run re-executes for its
	// consumer and reaches the terminal done event.
	resp, err := http.Get(fmt.Sprintf("%s/v1/runs/%s/stream", ts.URL, hit.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := readStream(t, resp.Body)
	if len(events) == 0 || events[len(events)-1].Event != eventDone {
		t.Fatalf("hit stream events: %d, last %q", len(events), events[len(events)-1].Event)
	}
}

// TestCacheOff pins the pre-cache behavior behind CacheOff: every POST
// executes and re-executions verify against the archive.
func TestCacheOff(t *testing.T) {
	_, ts := newTestServer(t, Config{ArchiveDir: t.TempDir(), CacheMode: CacheOff})
	fam := testFamily(t)
	first := postScenario(t, ts.URL, fam)
	waitResult(t, ts.URL, first.ID)
	second := postScenario(t, ts.URL, fam)
	waitResult(t, ts.URL, second.ID)
	if got := runSummary(t, ts.URL, second.ID); got.Archive != "verified" {
		t.Fatalf("re-run archive state with cache off: %+v", got)
	}
	if v := metricValue(t, ts.URL, "lbserve_runs_executed_total"); v != 2 {
		t.Fatalf("runs executed: %v, want 2", v)
	}
	if v := metricValue(t, ts.URL, "lbserve_cache_hits_total"); v != 0 {
		t.Fatalf("cache hits with cache off: %v, want 0", v)
	}
}

// TestCacheVerifySampling: with CacheVerifyEvery=2 the hit sequence is
// re-execute, serve, re-execute — a pure function of the hit ordinal — and
// every re-execution passes through Archive.Put's bit-identical check.
func TestCacheVerifySampling(t *testing.T) {
	_, ts := newTestServer(t, Config{
		ArchiveDir: t.TempDir(), CacheMode: CacheVerify, CacheVerifyEvery: 2,
	})
	fam := testFamily(t)
	cold := postScenario(t, ts.URL, fam)
	waitResult(t, ts.URL, cold.ID)
	want := []string{"verified", "hit", "verified", "hit"}
	for i, exp := range want {
		sum := postScenario(t, ts.URL, fam)
		waitResult(t, ts.URL, sum.ID)
		if got := runSummary(t, ts.URL, sum.ID); got.Archive != exp {
			t.Fatalf("hit %d archive state %q, want %q (%+v)", i, got.Archive, exp, got)
		}
	}
	if v := metricValue(t, ts.URL, "lbserve_cache_verifies_total"); v != 2 {
		t.Fatalf("cache verifies: %v, want 2", v)
	}
	if v := metricValue(t, ts.URL, "lbserve_cache_hits_total"); v != 2 {
		t.Fatalf("cache hits: %v, want 2", v)
	}
	if v := metricValue(t, ts.URL, "lbserve_archive_mismatches_total"); v != 0 {
		t.Fatalf("mismatches: %v, want 0", v)
	}
}

// TestSingleFlightDedup: N concurrent POSTs of one uncached fingerprint cost
// one execution — one leader runs, the rest follow — and every run serves
// the same bytes.
func TestSingleFlightDedup(t *testing.T) {
	_, ts := newTestServer(t, Config{
		ArchiveDir: t.TempDir(), MaxConcurrentRuns: 1, MaxRunRounds: 1 << 30,
	})
	// Occupy the single executor slot so the deduplicated burst stays queued
	// while its POSTs land — the in-flight window the dedup exists for. The
	// blocker must hold the slot before the burst's leader can queue for it.
	blocker := postScenario(t, ts.URL, longFamily(t, 0))
	waitRunning(t, ts.URL, blocker.ID)

	fam := testFamily(t)
	body, err := fam.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	var wg sync.WaitGroup
	sums := make([]RunSummary, n)
	errs := make([]error, n)
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusAccepted {
				errs[i] = fmt.Errorf("POST %d: %s", resp.StatusCode, data)
				return
			}
			errs[i] = json.Unmarshal(data, &sums[i])
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Free the slot; the leader executes and the followers copy its state.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+blocker.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}

	var leaders, followers int
	var results [][]byte
	for _, sum := range sums {
		code, res := waitResult(t, ts.URL, sum.ID)
		if code != http.StatusOK {
			t.Fatalf("run %s result: %d: %s", sum.ID, code, res)
		}
		results = append(results, res)
		switch got := runSummary(t, ts.URL, sum.ID); got.Archive {
		case "created":
			leaders++
		case "hit":
			followers++
		default:
			t.Fatalf("run %s archive state: %+v", sum.ID, got)
		}
	}
	if leaders != 1 || followers != n-1 {
		t.Fatalf("leaders=%d followers=%d, want 1 and %d", leaders, followers, n-1)
	}
	for i, res := range results[1:] {
		if !bytes.Equal(results[0], res) {
			t.Fatalf("result %d differs from result 0", i+1)
		}
	}
	// Two executions total: the blocker and the leader.
	if v := metricValue(t, ts.URL, "lbserve_runs_executed_total"); v != 2 {
		t.Fatalf("runs executed: %v, want 2", v)
	}
	if v := metricValue(t, ts.URL, "lbserve_dedup_followers_total"); v != n-1 {
		t.Fatalf("dedup followers: %v, want %d", v, n-1)
	}
}

// TestFollowerCancelDoesNotDisturbLeader: DELETE on a deduplicated follower
// cancels only the follower; the leader still completes and archives.
func TestFollowerCancelDoesNotDisturbLeader(t *testing.T) {
	_, ts := newTestServer(t, Config{
		ArchiveDir: t.TempDir(), MaxConcurrentRuns: 1, MaxRunRounds: 1 << 30,
	})
	blocker := postScenario(t, ts.URL, longFamily(t, 0))
	waitRunning(t, ts.URL, blocker.ID)
	fam := testFamily(t)
	leader := postScenario(t, ts.URL, fam)
	follower := postScenario(t, ts.URL, fam)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+follower.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+blocker.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}

	if code, _ := waitResult(t, ts.URL, leader.ID); code != http.StatusOK {
		t.Fatalf("leader result: %d", code)
	}
	if got := runSummary(t, ts.URL, leader.ID); got.Archive != "created" {
		t.Fatalf("leader archive state: %+v", got)
	}
	waitResult(t, ts.URL, follower.ID)
	if got := runSummary(t, ts.URL, follower.ID); got.Status != StatusCanceled {
		t.Fatalf("follower status: %+v", got)
	}
}

// TestInvalidCacheModeRejected: an unknown mode is a construction error, not
// a silently defaulted config.
func TestInvalidCacheModeRejected(t *testing.T) {
	if _, err := New(Config{CacheMode: "banana"}); err == nil ||
		!strings.Contains(err.Error(), "unknown cache mode") {
		t.Fatalf("New with bad cache mode: %v", err)
	}
}

// TestStreamBusyRetryAfterAndOccupancy: a saturated stream table answers 503
// with the configured Retry-After and its occupancy in the body.
func TestStreamBusyRetryAfterAndOccupancy(t *testing.T) {
	_, ts := newTestServer(t, Config{
		MaxRunRounds: 1 << 30, MaxConcurrentStreams: 1, StreamRetryAfter: 7,
	})
	sum := postScenario(t, ts.URL, longFamily(t, 0))
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+sum.ID, nil)
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
	var ev wireEvent
	if err := json.NewDecoder(resp.Body).Decode(&ev); err != nil {
		t.Fatal(err)
	}

	second, err := http.Get(fmt.Sprintf("%s/v1/runs/%s/stream", ts.URL, sum.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer second.Body.Close()
	if second.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second stream: %d", second.StatusCode)
	}
	if got := second.Header.Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After: %q, want \"7\"", got)
	}
	var busy streamBusyBody
	if err := json.NewDecoder(second.Body).Decode(&busy); err != nil {
		t.Fatal(err)
	}
	if busy.ActiveStreams != 1 || busy.MaxStreams != 1 || busy.RetryAfter != 7 {
		t.Fatalf("busy body: %+v", busy)
	}
	if v := metricValue(t, ts.URL, "lbserve_streams_rejected_total"); v != 1 {
		t.Fatalf("streams rejected: %v, want 1", v)
	}
}

// TestInfoEndpoint: /v1/info reports the daemon's cache mode, archive size,
// and admission caps.
func TestInfoEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{
		ArchiveDir: t.TempDir(), CacheMode: CacheVerify, CacheVerifyEvery: 3,
	})
	sum := postScenario(t, ts.URL, testFamily(t))
	waitResult(t, ts.URL, sum.ID)

	var info infoBody
	if code := getJSON(t, ts.URL+"/v1/info", &info); code != http.StatusOK {
		t.Fatalf("GET /v1/info: %d", code)
	}
	if info.CacheMode != CacheVerify || info.CacheVerifyEvery != 3 {
		t.Fatalf("info cache fields: %+v", info)
	}
	if !info.ArchiveEnabled || info.ArchiveEntries != 1 {
		t.Fatalf("info archive fields: %+v", info)
	}
	if info.MaxConcurrentRuns != 4 || info.MaxConcurrentStreams != 8 || info.MaxCells != 4096 {
		t.Fatalf("info caps: %+v", info)
	}
	if info.ScenarioVersion != 1 || info.ResultVersion != archive.ResultVersion {
		t.Fatalf("info versions: %+v", info)
	}
}

// TestMetricsExposition checks the Prometheus text format and that the
// executor records every run metric before the result becomes visible: a
// scrape straight after each ?wait=1 response counts exactly the runs so
// far and no busy executor.
func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{ArchiveDir: t.TempDir()})
	for i := 1; i <= 5; i++ {
		fam := testFamily(t)
		fam.Run.Rounds = 40 + i // a new fingerprint, so every POST executes
		sum := postScenario(t, ts.URL, fam)
		if code, body := waitResult(t, ts.URL, sum.ID); code != http.StatusOK {
			t.Fatalf("run %d: result %d: %s", i, code, body)
		}
		got := scrapeMetrics(t, ts.URL, "lbserve_run_seconds_count", "lbserve_runs_done_total", "lbserve_executors_busy")
		if want := []float64{float64(i), float64(i), 0}; !slices.Equal(got, want) {
			t.Fatalf("after run %d: run_seconds_count, runs_done_total, executors_busy = %v, want %v", i, got, want)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type: %q", ct)
	}
	text, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"# TYPE lbserve_runs_accepted_total counter",
		"# TYPE lbserve_queue_depth gauge",
		"# TYPE lbserve_run_seconds histogram",
	} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

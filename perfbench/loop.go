package main

// The load generator: the server under test on a loopback listener, an HTTP
// client, and the closed and open loops that drive it.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"detlb/internal/serve"
)

// server is serve.New behind a real HTTP listener on loopback.
type server struct {
	srv  *serve.Server
	hs   *http.Server
	dir  string
	base string
	done chan struct{}
	once sync.Once
}

// bootServer starts the serving tier over a fresh archive directory, with
// every setting at the default a user gets.
func bootServer(dir string) (*server, error) {
	srv, err := serve.New(serve.Config{ArchiveDir: dir})
	if err != nil {
		return nil, fmt.Errorf("boot server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("boot server: %w", err)
	}
	s := &server{
		srv:  srv,
		hs:   &http.Server{Handler: srv},
		dir:  dir,
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln)
	}()
	return s, nil
}

// close stops the listener, waits for the serving goroutine, then drains
// the executor pool. Closing twice is harmless.
func (s *server) close() {
	s.once.Do(func() {
		s.hs.Close()
		<-s.done
		s.srv.Close()
	})
}

// outcome is one operation's result. Err is nil on success; Mismatch marks
// an Err that is a correctness failure (an answer of the wrong kind or with
// the wrong bytes) rather than a transport or status failure.
type outcome struct {
	Err      error
	Mismatch bool
	Digest   string
	Body     []byte
}

func mismatch(format string, args ...any) outcome {
	return outcome{Err: fmt.Errorf(format, args...), Mismatch: true}
}

// client talks to one server over at most conns connections.
type client struct {
	base string
	hc   *http.Client
}

// requestTimeout bounds one operation; a request that takes longer is a
// failure.
const requestTimeout = 60 * time.Second

func newClient(base string, conns int) *client {
	return &client{base: base, hc: &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// send performs one request and returns its body, failing on transport
// errors and unexpected status codes.
func (c *client) send(method, path string, body []byte, want int) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d: %.200s", method, path, resp.StatusCode, data)
	}
	return data, nil
}

func (c *client) post(body []byte) (serve.RunSummary, error) {
	var sum serve.RunSummary
	data, err := c.send(http.MethodPost, "/v1/runs", body, http.StatusAccepted)
	if err != nil {
		return sum, err
	}
	if err := json.Unmarshal(data, &sum); err != nil {
		return sum, fmt.Errorf("POST /v1/runs: %w", err)
	}
	return sum, nil
}

// cold POSTs a family that must miss the cache and waits for the terminal
// result document.
func (c *client) cold(body []byte) outcome {
	sum, err := c.post(body)
	if err != nil {
		return outcome{Err: err}
	}
	if sum.Archive == "hit" {
		return mismatch("cold POST %s answered as a cache hit", sum.Digest[:12])
	}
	doc, err := c.send(http.MethodGet, "/v1/runs/"+sum.ID+"/result?wait=1", nil, http.StatusOK)
	if err != nil {
		return outcome{Err: err}
	}
	return outcome{Digest: sum.Digest, Body: doc}
}

// hit POSTs an archived family, which must answer terminally from the
// cache.
func (c *client) hit(body []byte) outcome {
	sum, err := c.post(body)
	if err != nil {
		return outcome{Err: err}
	}
	if sum.Status != serve.StatusDone || sum.Archive != "hit" {
		return mismatch("hit POST %s answered status %s, archive %q", sum.Digest[:12], sum.Status, sum.Archive)
	}
	return outcome{Digest: sum.Digest}
}

// query runs one archive query.
func (c *client) query(qs string) outcome {
	data, err := c.send(http.MethodGet, "/v1/archive/query?"+qs, nil, http.StatusOK)
	return outcome{Err: err, Body: data}
}

// do dispatches a generated request.
func (c *client) do(r request) outcome {
	switch r.Kind {
	case kindHit:
		return c.hit(r.Body)
	case kindQuery:
		return c.query(r.Query)
	default:
		return c.cold(r.Body)
	}
}

// scrape reads /metrics.
func (c *client) scrape() (map[string]float64, error) {
	data, err := c.send(http.MethodGet, "/metrics", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	return parseMetrics(string(data))
}

// sample is one measured operation. Latency runs from the time the request
// was due to the time its answer arrived; Late is how far after its due time
// the generator actually sent it (always 0 in a closed loop, where a
// request is due when the previous one ends).
type sample struct {
	Req     int
	Kind    kind
	Due     time.Time
	Late    time.Duration
	Latency time.Duration
	outcome
}

// latencyMs is the sample's latency for a latency population: a failed
// request misses every limit, so it counts as +Inf.
func (s sample) latencyMs() float64 {
	if s.Err != nil {
		return math.Inf(1)
	}
	return ms(s.Latency)
}

// clock abstracts time for the loops, so tests can drive them with a fake.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// spinWindow is how much of a wait is spent yielding in a loop instead of
// sleeping: a timer on a virtualised host fires about half a millisecond
// late, as long as a cache hit takes, and an open loop charges that
// lateness to the request.
const spinWindow = time.Millisecond

func (wallClock) Sleep(d time.Duration) {
	until := time.Now().Add(d)
	if d > spinWindow {
		time.Sleep(d - spinWindow)
	}
	for time.Now().Before(until) {
		runtime.Gosched()
	}
}

// openLoop sends reqs on their schedule from conns workers: each takes the
// next request, waits until start+At, sends it and times it from its due
// time. A request that finds every worker busy goes out late, and that
// wait is part of its latency.
func openLoop(reqs []request, conns int, start time.Time, clk clock, do func(request) outcome) []sample {
	samples := make([]sample, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				due := start.Add(reqs[i].At)
				if d := due.Sub(clk.Now()); d > 0 {
					clk.Sleep(d)
				}
				sent := clk.Now()
				out := do(reqs[i])
				samples[i] = sample{
					Req: i, Kind: reqs[i].Kind, Due: due,
					Late: sent.Sub(due), Latency: clk.Now().Sub(due), outcome: out,
				}
			}
		}()
	}
	wg.Wait()
	return samples
}

// closedLoop sends reqs one at a time, each as soon as the previous one has
// finished, until the deadline passes or the list runs out. after runs
// once per request outside its timing (the read-back queries).
func closedLoop(reqs []request, deadline time.Time, clk clock, do func(request) outcome, after func(i int, out outcome)) []sample {
	var samples []sample
	for i, r := range reqs {
		due := clk.Now()
		if !due.Before(deadline) {
			break
		}
		out := do(r)
		samples = append(samples, sample{Req: i, Kind: r.Kind, Due: due, Latency: clk.Now().Sub(due), outcome: out})
		after(i, out)
	}
	return samples
}

// The measured window is cut into parts. The host's speed is probed after
// every part (see hostspeed.go), so a time measured in a part is scaled by
// the host's speed around it, and a set-up runs after every setupEvery-th
// part, so the set-ups behind setup_s's median sample the whole run as the
// window's time slices do rather than one spell of the host.
const (
	setupEvery = 3
	parts      = (setupRepeats - 1) * setupEvery
)

// partLen is one part's share of a window of the given seconds.
func partLen(seconds int) time.Duration {
	return time.Duration(seconds) * time.Second / parts
}

// setupAfter reports whether a set-up runs after part k.
func setupAfter(k int) bool { return (k+1)%setupEvery == 0 }

// segmented runs part(k) for each part k, calling between(k) after each.
// wall is the time spent in the parts.
func segmented(between func(k int) error, part func(k int)) (time.Duration, error) {
	var wall time.Duration
	for k := range parts {
		start := time.Now()
		part(k)
		wall += time.Since(start)
		if err := between(k); err != nil {
			return wall, err
		}
	}
	return wall, nil
}

// setup boots a server over dir and brings it to the state the measured
// window starts from: the hot set archived (two clients, as fast as the
// server takes them) and the fixed warm-up sent. Any failure here is fatal.
func setup(dir string, in inputs) (*server, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	srv, err := bootServer(dir)
	if err != nil {
		return nil, err
	}
	cl := newClient(srv.base, conns)
	defer cl.close()
	var mu sync.Mutex
	var setupErr error
	var wg sync.WaitGroup
	var next atomic.Int64
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(in.Hot); i = int(next.Add(1) - 1) {
				if out := cl.cold(in.Hot[i]); out.Err != nil {
					mu.Lock()
					setupErr = errors.Join(setupErr, out.Err)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if setupErr == nil {
		for _, r := range in.Warm {
			if out := cl.do(r); out.Err != nil {
				setupErr = out.Err
				break
			}
		}
	}
	if setupErr != nil {
		srv.close()
		return nil, fmt.Errorf("set-up: %w", setupErr)
	}
	return srv, nil
}

// conns is the client concurrency cap: the host's 2 cores.
const conns = 2

package main

// Host-speed scaling. The host's speed moves between runs in spells of many
// minutes, longer than a run: the same kernel-hypercube window has read a
// 55 ms median in one hour and 115 ms in another, with every slice of each
// run agreeing. No statistic over one run's requests can take that out, so
// every timed end-to-end figure is scaled to a nominal host speed instead.
//
// A fixed reference, written here and sharing no code with the program, is
// timed before the first set-up, before every later set-up and after every
// part of the measured window. It has two parts, because the host does not
// slow all work alike: a computation (how a cold POST or a set-up slows)
// and loopback HTTP round trips between idle cores (how a cache hit or a
// small query slows, which is mostly waking cores and handing a request
// over a socket). A time measured at t is multiplied by its part's nominal
// time over the median of that part's probes nearest t. A change to the
// program moves the scaled figures exactly as it moves the raw ones, since
// it cannot move the reference. The raw figures are printed beside the
// scaled ones.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"
)

// refPart is one of the reference's two parts.
type refPart int

const (
	refCompute refPart = iota
	refTrip
)

func (p refPart) String() string { return [...]string{"computation", "round trip"}[p] }

// refNominal is each part's nominal time in ms: the computation's is what
// it takes on a quiet host of the kind the benchmark was built on (2 vCPUs
// of a Xeon Sapphire Rapids under KVM), so scaled figures read close to raw
// ones there; the round trip's is a round figure, as it was only measured
// on a slow host (0.36–0.52 ms). Only the ratio between runs matters.
var refNominal = [2]float64{refCompute: 9.4, refTrip: 0.2}

// partFor is the reference part that slows like a request of kind k: cache
// hits and archive queries compute little, so they slow like round trips;
// cold POSTs and writes are mostly computation, as set-ups are.
func partFor(k kind) refPart {
	if k == kindHit || k == kindQuery {
		return refTrip
	}
	return refCompute
}

// refWork is the reference computation's state: the same mix of work the
// program does, in miniature. A token-distribution round and a float
// matrix-vector pass over a random sparse graph (the core kernel and the
// spectral power iteration), and a JSON encoding of a small document (the
// serving path).
type refWork struct {
	n, d  int
	adj   []int32
	x, y  []int64
	rotor []int32
	v, w  []float64
	doc   []refRow
}

type refRow struct {
	Graph  string  `json:"graph"`
	Algo   string  `json:"algo"`
	N      int     `json:"n"`
	Rounds int     `json:"rounds"`
	Disc   float64 `json:"discrepancy"`
}

// newRefWork builds the reference state from a fixed seed.
func newRefWork(seed int64) *refWork {
	const n, d = 2048, 8
	rng := rand.New(rand.NewSource(seed))
	r := &refWork{n: n, d: d, adj: make([]int32, n*d), x: make([]int64, n), y: make([]int64, n),
		rotor: make([]int32, n), v: make([]float64, n), w: make([]float64, n)}
	for i := range r.adj {
		r.adj[i] = int32(rng.Intn(n))
	}
	for i := range r.x {
		r.x[i] = int64(rng.Intn(1 << 12))
		r.v[i] = rng.Float64()
	}
	for i := range 64 {
		r.doc = append(r.doc, refRow{Graph: "random:512,8", Algo: "rotor-router", N: 512 + i, Rounds: 1000 + 7*i, Disc: float64(i) / 3})
	}
	return r
}

// run does one fixed unit of reference work. The token total is conserved
// and the vector is renormalised, so every call does the same work.
func (r *refWork) run() {
	d := r.d
	for range 48 {
		for u := range r.n {
			load := r.x[u]
			base, excess := load/int64(d+1), int(load%int64(d+1))
			pos := int(r.rotor[u])
			var sent int64
			for j, v := range r.adj[u*d : (u+1)*d] {
				give := base
				if (j-pos+d)%d < excess {
					give++
				}
				r.y[v] += give
				sent += give
			}
			r.y[u] += load - sent
			r.rotor[u] = int32((pos + excess) % d)
		}
		r.x, r.y = r.y, r.x
		clear(r.y)
	}
	for range 48 {
		var norm float64
		for u := range r.n {
			var s float64
			for _, v := range r.adj[u*d : (u+1)*d] {
				s += r.v[v]
			}
			r.w[u] = s + r.v[u]
			norm += r.w[u] * r.w[u]
		}
		norm = math.Sqrt(norm)
		for u := range r.w {
			r.v[u] = r.w[u] / norm
		}
	}
	for range 24 {
		data, err := json.Marshal(r.doc)
		if err != nil {
			panic(err)
		}
		spinSink += uint64(bits.OnesCount(uint(len(data))))
	}
}

// refEcho is the reference's serving half: a loopback HTTP server of its
// own (the standard library's, none of the program's code) that decodes a
// small JSON document and encodes it back. A cache hit on a quiet host is
// mostly this kind of work: two goroutines on two cores handing a request
// over a socket, each core idle and woken in between.
type refEcho struct {
	hs   *http.Server
	hc   *http.Client
	url  string
	body []byte
	done chan struct{}
}

func newRefEcho(doc []refRow) (*refEcho, error) {
	body, err := json.Marshal(doc[:16])
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &refEcho{
		hs: &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			var rows []refRow
			if err := json.NewDecoder(r.Body).Decode(&rows); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			json.NewEncoder(w).Encode(rows)
		})},
		hc:   &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}},
		url:  "http://" + ln.Addr().String() + "/",
		body: body,
		done: make(chan struct{}),
	}
	go func() {
		defer close(e.done)
		e.hs.Serve(ln)
	}()
	return e, nil
}

// refTrips is how many round trips one probe times, each after an idle
// gap long enough for both cores to go idle, as they do between
// serve-mix's requests.
const (
	refTrips = 16
	refGap   = 2 * time.Millisecond
)

// roundTrip times refTrips round trips, each after an idle gap, and
// returns their median in ms: one slow trip does not move it, as one slow
// hit does not move a median.
func (e *refEcho) roundTrip() (float64, error) {
	var rtt []float64
	for range refTrips {
		time.Sleep(refGap)
		start := time.Now()
		resp, err := e.hc.Post(e.url, "application/json", bytes.NewReader(e.body))
		if err != nil {
			return 0, err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("reference round trip: status %d, %v", resp.StatusCode, err)
		}
		rtt = append(rtt, ms(time.Since(start)))
	}
	return median(rtt), nil
}

// close stops the server and waits for its goroutine.
func (e *refEcho) close() {
	e.hc.CloseIdleConnections()
	e.hs.Close()
	<-e.done
}

// hostTrack holds one run's probes of the host: when each was taken and
// what each part read.
type hostTrack struct {
	work [2]*refWork
	echo *refEcho
	at   []time.Time
	ms   [2][]float64
}

func newHostTrack() (*hostTrack, error) {
	h := &hostTrack{work: [2]*refWork{newRefWork(1), newRefWork(2)}}
	echo, err := newRefEcho(h.work[0].doc)
	if err != nil {
		return nil, err
	}
	h.echo = echo
	return h, nil
}

func (h *hostTrack) close() { h.echo.close() }

// probe times both parts of the reference and records them. The
// computation runs three times, each time on both cores at once and then
// on one, as the program spreads a sweep over both cores and serves on one;
// the mean is recorded, since a request's time adds up the host's speed
// over its whole length.
func (h *hostTrack) probe() error {
	start := time.Now()
	for range 3 {
		var wg sync.WaitGroup
		for _, w := range h.work {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w.run()
			}()
		}
		wg.Wait()
		h.work[0].run()
	}
	compute := ms(time.Since(start)) / 3
	trip, err := h.echo.roundTrip()
	if err != nil {
		return err
	}
	h.at = append(h.at, time.Now())
	h.ms[refCompute] = append(h.ms[refCompute], compute)
	h.ms[refTrip] = append(h.ms[refTrip], trip)
	return nil
}

// factor scales a time measured at t by part p: p's nominal time over the
// median of p's probes nearest t, up to two taken at or before t and two
// after it. A part of the window lies between two probes under two
// seconds apart, so its factor follows the host over a few seconds
// without resting on one probe.
func (h *hostTrack) factor(p refPart, t time.Time) float64 {
	if len(h.at) == 0 {
		return 1
	}
	i := sort.Search(len(h.at), func(i int) bool { return h.at[i].After(t) })
	return refNominal[p] / median(h.ms[p][max(0, i-2):min(len(h.at), i+2)])
}

// scaled returns copies of samples whose latencies are scaled by their
// kinds' parts at their due times.
func (h *hostTrack) scaled(samples []sample) []sample {
	out := make([]sample, len(samples))
	for i, s := range samples {
		s.Latency = time.Duration(float64(s.Latency) * h.factor(partFor(s.Kind), s.Due))
		out[i] = s
	}
	return out
}

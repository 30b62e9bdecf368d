// Package serve is the scenario-driven serving layer: a long-running HTTP
// server that accepts scenario descriptions (the docs/scenarios.md JSON
// format, or a preset name), executes them on the sweep harness, streams
// per-round snapshots out live over SSE/NDJSON, and persists every finished
// run as a content-addressed archive entry — the canonical scenario bytes
// paired with a deterministic result document — for regression tracking.
//
// Two execution paths share one primitive:
//
//   - POST /v1/runs binds the family once and enqueues the canonical
//     execution: the bound specs run once on a bounded runner pool via
//     analysis.SweepContext, and the result document is archived on
//     completion. Cancellation (DELETE, server drain) stops the in-flight
//     cell within one round.
//   - GET /v1/runs/{id}/stream re-executes the run live for that consumer,
//     cell by cell, through analysis.StreamInto with the request's context:
//     every consumer gets distinct, freshly bound engines, and because runs
//     are pure functions of their canonical scenario, every consumer's
//     stream is bit-identical to every other's and to the archived result.
//     Client disconnect cancels the consumer's execution within one round
//     and releases its engine; the canonical run is unaffected.
//
// Determinism is what makes the layer thin: there is no snapshot broadcast,
// no replay buffer, and no coordination between consumers — re-execution is
// the replay.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"detlb/internal/analysis"
	"detlb/internal/archive"
	"detlb/internal/scenario"
)

// Config configures a Server. The zero value serves with defaults and no
// archive.
type Config struct {
	// ArchiveDir is the content-addressed result store's directory; empty
	// disables archiving (runs still execute and serve in-memory results).
	ArchiveDir string
	// MaxConcurrentRuns bounds how many POSTed runs execute at once; further
	// runs queue in submission order. 0 means 4. Stream re-executions are
	// not gated: each is tied to (and billed to) its own client connection.
	MaxConcurrentRuns int
	// MaxRetainedRuns bounds the run registry: accepting a run beyond the
	// bound evicts the oldest terminal runs (their archived results stay
	// addressable by digest). 0 means 1024; active runs are never evicted.
	MaxRetainedRuns int
	// MaxGraphArcs caps each accepted graph descriptor's estimated directed
	// arc count n·d (engine memory is proportional to it) so a small hostile
	// body — cycle:2e9, complete:100000 — is a 400, not a daemon OOM.
	// 0 means 1<<26 (~64M arcs).
	MaxGraphArcs int64
	// MaxCells caps an accepted scenario's expanded cross-product size.
	// 0 means 4096.
	MaxCells int
	// MaxRunRounds caps an accepted scenario's explicit round count and,
	// because sampling memory is Series ≈ rounds/sample_every, a sampled
	// scenario must carry an explicit rounds cap at all. 0 means 1<<20.
	MaxRunRounds int
	// MaxTopologyParts caps the total fault-schedule part count across a
	// scenario's topology dimension. Each part is O(1) state but costs a
	// per-round schedule probe, so a hostile body packed with tens of
	// thousands of parts would turn every round into a linear scan.
	// 0 means 1024.
	MaxTopologyParts int
	// MaxConcurrentStreams bounds concurrent stream re-executions — each is
	// a full deterministic re-run, so without a cap anonymous GETs could
	// multiply the work the POST-side semaphore exists to bound. Excess
	// stream requests answer 503. 0 means 8.
	MaxConcurrentStreams int
	// StreamRetryAfter is the Retry-After hint (seconds) on stream 503s.
	// 0 means 1.
	StreamRetryAfter int
	// CacheMode selects the memoized serving tier's POST behavior: CacheOn
	// (the default — archived fingerprints are admitted as terminal
	// cache-hit runs, no execution), CacheVerify (a sampled fraction of
	// hits re-executes and enforces the bit-identical-replay contract), or
	// CacheOff (every POST executes, the pre-cache behavior). See cache.go.
	CacheMode string
	// CacheVerifyEvery is CacheVerify's sampling period: every Nth hit
	// (the first always) re-executes. 0 means 1 — every hit re-executes,
	// which makes verify mode exactly the old always-replay behavior.
	CacheVerifyEvery int
	// SweepWorkers bounds each run's group-level concurrency
	// (analysis.SweepOptions.Workers); 0 selects GOMAXPROCS.
	SweepWorkers int
	// Log receives server events; nil discards them.
	Log *log.Logger
}

// maxScenarioBytes caps a POSTed scenario body.
const maxScenarioBytes = 1 << 20

// Server is the serving layer: an http.Handler plus the executor pool behind
// it. Create with New, shut down with Close (optionally Drain first).
type Server struct {
	cfg Config
	// archive is the content-addressed store behind the memoized tier and
	// the analytics endpoints; nil when archiving is disabled. The server
	// depends only on the interface — any archive.Archive implementation
	// serves.
	archive archive.Archive
	// index is the queryable per-cell view over the archive, warmed by the
	// executor as runs land and refreshed lazily from the store on every
	// query; nil exactly when archive is.
	index     *archive.Index
	reg       *registry
	sem       chan struct{}
	streamSem chan struct{}
	mux       *http.ServeMux
	log       *log.Logger
	metrics   *serverMetrics

	// baseCtx parents every run's context; cancelAll is the drain hammer —
	// canceling it stops every queued and in-flight run within one round.
	baseCtx   context.Context
	cancelAll context.CancelCauseFunc
	runs      runGroup

	// acceptMu makes run acceptance atomic with Close: a run is either
	// registered in the runGroup before Close starts waiting, or rejected.
	// It also guards flights, so the single-flight decision (join the
	// in-flight leader or become one) is atomic with acceptance.
	acceptMu sync.Mutex
	closed   bool
	// flights maps each in-flight execution's fingerprint to its leader
	// run while the cache is enabled; concurrent POSTs of the same
	// fingerprint join as followers instead of executing (cache.go).
	flights map[string]*run

	// verifySeq orders verify-mode cache hits for deterministic sampling.
	verifySeq atomic.Uint64
	// hitMu guards hitFailureMemo, the per-digest failure counts cache
	// hits report without re-parsing the archived result document.
	hitMu          sync.Mutex
	hitFailureMemo map[string]int
}

// runGroup is a WaitGroup whose wait honors a context, so Drain can give up
// when its deadline passes while executors are still running.
type runGroup struct {
	mu      sync.Mutex
	n       int
	waiters []chan struct{}
}

func (g *runGroup) add(d int) {
	g.mu.Lock()
	g.n += d
	g.mu.Unlock()
}

func (g *runGroup) done() {
	g.mu.Lock()
	g.n--
	if g.n == 0 {
		for _, ch := range g.waiters {
			close(ch)
		}
		g.waiters = nil
	}
	g.mu.Unlock()
}

func (g *runGroup) wait(ctx context.Context) error {
	g.mu.Lock()
	if g.n == 0 {
		g.mu.Unlock()
		return nil
	}
	ch := make(chan struct{})
	g.waiters = append(g.waiters, ch)
	g.mu.Unlock()
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// New builds a Server, opening (creating) the archive directory if one is
// configured.
func New(cfg Config) (*Server, error) {
	if cfg.MaxConcurrentRuns <= 0 {
		cfg.MaxConcurrentRuns = 4
	}
	if cfg.MaxRetainedRuns <= 0 {
		cfg.MaxRetainedRuns = 1024
	}
	if cfg.MaxGraphArcs <= 0 {
		cfg.MaxGraphArcs = 1 << 26
	}
	if cfg.MaxCells <= 0 {
		cfg.MaxCells = 4096
	}
	if cfg.MaxRunRounds <= 0 {
		cfg.MaxRunRounds = 1 << 20
	}
	if cfg.MaxTopologyParts <= 0 {
		cfg.MaxTopologyParts = 1024
	}
	if cfg.MaxConcurrentStreams <= 0 {
		cfg.MaxConcurrentStreams = 8
	}
	if cfg.StreamRetryAfter <= 0 {
		cfg.StreamRetryAfter = 1
	}
	mode, err := normalizeCacheMode(cfg.CacheMode)
	if err != nil {
		return nil, err
	}
	cfg.CacheMode = mode
	if cfg.CacheVerifyEvery <= 0 {
		cfg.CacheVerifyEvery = 1
	}
	logger := cfg.Log
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	// The interface field is assigned only from a non-nil *Store: a typed
	// nil inside a non-nil interface would defeat every `s.archive == nil`
	// guard below.
	var arch archive.Archive
	var index *archive.Index
	if cfg.ArchiveDir != "" {
		store, err := archive.Open(cfg.ArchiveDir)
		if err != nil {
			return nil, err
		}
		arch = store
		index = archive.NewIndex(store)
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	s := &Server{
		cfg:            cfg,
		archive:        arch,
		index:          index,
		reg:            newRegistry(cfg.MaxRetainedRuns),
		sem:            make(chan struct{}, cfg.MaxConcurrentRuns),
		streamSem:      make(chan struct{}, cfg.MaxConcurrentStreams),
		mux:            http.NewServeMux(),
		log:            logger,
		metrics:        newServerMetrics(),
		baseCtx:        ctx,
		cancelAll:      cancel,
		flights:        map[string]*run{},
		hitFailureMemo: map[string]int{},
	}
	s.routes()
	return s, nil
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.Handle("GET /metrics", s.metrics.registry.Handler())
	s.mux.HandleFunc("GET /v1/info", s.handleInfo)
	s.mux.HandleFunc("GET /v1/presets", s.handlePresets)
	s.mux.HandleFunc("POST /v1/runs", s.handleCreateRun)
	s.mux.HandleFunc("GET /v1/runs", s.handleListRuns)
	s.mux.HandleFunc("GET /v1/runs/{id}", s.handleGetRun)
	s.mux.HandleFunc("DELETE /v1/runs/{id}", s.handleCancelRun)
	s.mux.HandleFunc("GET /v1/runs/{id}/stream", s.handleStream)
	s.mux.HandleFunc("GET /v1/runs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/runs/{id}/scenario", s.handleRunScenario)
	s.mux.HandleFunc("GET /v1/archive", s.handleArchiveList)
	s.mux.HandleFunc("GET /v1/archive/columns", s.handleArchiveColumns)
	s.mux.HandleFunc("GET /v1/archive/query", s.handleArchiveQuery)
	s.mux.HandleFunc("GET /v1/archive/diff", s.handleArchiveDiff)
	s.mux.HandleFunc("GET /v1/archive/{digest}/scenario", s.handleArchiveFile(archive.ScenarioFile))
	s.mux.HandleFunc("GET /v1/archive/{digest}/result", s.handleArchiveFile(archive.ResultFile))
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Drain waits until every accepted run has reached a terminal status, or ctx
// expires. It does not stop the HTTP side — pair it with http.Server.Shutdown.
func (s *Server) Drain(ctx context.Context) error {
	return s.runs.wait(ctx)
}

// Close stops accepting runs (POST answers 503), cancels every queued and
// in-flight run — in-flight cells stop within one round — and waits for the
// executors to exit. Status, result, and archive reads stay functional after
// Close; streams do not (their executions are children of the server
// context, so a post-Close stream is canceled at its first round).
func (s *Server) Close() error {
	s.acceptMu.Lock()
	s.closed = true
	s.acceptMu.Unlock()
	s.cancelAll(errors.New("server closing"))
	return s.runs.wait(context.Background())
}

// --- handlers ---

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// streamBusyBody is the 503 payload on a saturated stream table.
type streamBusyBody struct {
	Error         string `json:"error"`
	ActiveStreams int    `json:"active_streams"`
	MaxStreams    int    `json:"max_streams"`
	RetryAfter    int    `json:"retry_after_seconds"`
}

// infoBody is the GET /v1/info payload: the daemon's capability surface —
// cache mode, archive size, and the admission caps a client must stay under.
type infoBody struct {
	ScenarioVersion  int    `json:"scenario_version"`
	ResultVersion    int    `json:"result_version"`
	CacheMode        string `json:"cache_mode"`
	CacheVerifyEvery int    `json:"cache_verify_every"`
	ArchiveEnabled   bool   `json:"archive_enabled"`
	ArchiveEntries   int    `json:"archive_entries"`

	MaxConcurrentRuns    int   `json:"max_concurrent_runs"`
	MaxConcurrentStreams int   `json:"max_concurrent_streams"`
	MaxRetainedRuns      int   `json:"max_retained_runs"`
	MaxGraphArcs         int64 `json:"max_graph_arcs"`
	MaxCells             int   `json:"max_cells"`
	MaxRunRounds         int   `json:"max_run_rounds"`
	MaxTopologyParts     int   `json:"max_topology_parts"`
	MaxScenarioBytes     int   `json:"max_scenario_bytes"`
}

func (s *Server) handleInfo(w http.ResponseWriter, _ *http.Request) {
	info := infoBody{
		ScenarioVersion:      scenario.Version,
		ResultVersion:        archive.ResultVersion,
		CacheMode:            s.cfg.CacheMode,
		CacheVerifyEvery:     s.cfg.CacheVerifyEvery,
		MaxConcurrentRuns:    s.cfg.MaxConcurrentRuns,
		MaxConcurrentStreams: s.cfg.MaxConcurrentStreams,
		MaxRetainedRuns:      s.cfg.MaxRetainedRuns,
		MaxGraphArcs:         s.cfg.MaxGraphArcs,
		MaxCells:             s.cfg.MaxCells,
		MaxRunRounds:         s.cfg.MaxRunRounds,
		MaxTopologyParts:     s.cfg.MaxTopologyParts,
		MaxScenarioBytes:     maxScenarioBytes,
	}
	if s.archive != nil {
		info.ArchiveEnabled = true
		if n, err := s.archive.Len(); err == nil {
			info.ArchiveEntries = n
		}
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handlePresets(w http.ResponseWriter, _ *http.Request) {
	type preset struct {
		Name        string `json:"name"`
		Description string `json:"description"`
	}
	var out []preset
	for _, name := range scenario.PresetNames() {
		out = append(out, preset{Name: name, Description: scenario.PresetDescription(name)})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleCreateRun accepts a scenario JSON body (the docs/scenarios.md family
// format) or ?preset=<name> and fingerprints it before binding: the digest is
// the memoization key, so a POST of an archived scenario resolves to a
// terminal cache-hit run without constructing a single graph (see cache.go).
// On a miss the family binds eagerly — an unbindable scenario is a 400 now,
// not a failed run later — and enqueues the canonical execution, unless an
// execution of the same fingerprint is already in flight, in which case the
// run joins it as a deduplicated follower.
func (s *Server) handleCreateRun(w http.ResponseWriter, r *http.Request) {
	//detcheck:allow wallclock cache-hit latency telemetry for the /metrics histogram; never enters a result document
	start := time.Now()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxScenarioBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("scenario body exceeds %d bytes", tooBig.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Sprintf("read body: %v", err))
		return
	}
	preset := r.URL.Query().Get("preset")
	var fam *scenario.Family
	switch {
	case preset != "" && len(bytes.TrimSpace(body)) > 0:
		writeError(w, http.StatusBadRequest, "pass a scenario body or ?preset, not both")
		return
	case preset != "":
		fam, err = scenario.Preset(preset)
		if err != nil {
			writeError(w, http.StatusNotFound, err.Error())
			return
		}
	case len(bytes.TrimSpace(body)) == 0:
		writeError(w, http.StatusBadRequest, "empty body: POST a scenario JSON family or ?preset=<name>")
		return
	default:
		fam, err = scenario.Load(bytes.NewReader(body))
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
	}

	// Admission control before any binding: binding allocates the graphs, so
	// size caps must be enforced on the descriptors alone or a hostile body
	// OOMs the daemon right here on the handler goroutine.
	if err := s.admit(fam); err != nil {
		s.metrics.admissionRejected.Inc()
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Fingerprint before binding: the digest is the cache key, and a hit
	// must not pay for graph construction it will never use.
	digest, canonical, err := fam.Fingerprint()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if s.cacheEnabled() && s.archive != nil {
		if resultJSON, lookupErr := s.archive.GetResult(digest); lookupErr == nil {
			if s.cfg.CacheMode == CacheVerify && s.verifyDue() {
				// This hit is in the verification sample: fall through to a
				// full execution, whose Archive.Put enforces the
				// bit-identical-replay contract against the stored entry.
				s.metrics.cacheVerifies.Inc()
			} else {
				// Expanded (not bound) cells keep the run listable and
				// streamable; streams bind their own instances per consumer.
				cells := fam.Scenarios()
				s.acceptMu.Lock()
				if s.closed {
					s.acceptMu.Unlock()
					writeError(w, http.StatusServiceUnavailable, "server is draining")
					return
				}
				run := s.reg.create(s.baseCtx, fam, cells, digest, canonical)
				s.acceptMu.Unlock()
				s.metrics.runsAccepted.Inc()
				s.serveCacheHit(run, resultJSON, start)
				writeJSON(w, http.StatusAccepted, run.summary())
				return
			}
		} else if errors.Is(lookupErr, archive.ErrNotFound) {
			s.metrics.cacheMisses.Inc()
		}
	}
	// A POST whose fingerprint is already executing joins that execution
	// before binding: its canonical bytes equal the leader's, which binding
	// already validated, so a follower builds no graphs.
	if s.accept(w, fam, digest, canonical, nil, nil) {
		return
	}
	// Bind once, here, to validate every cell; the executor runs these
	// specs. Streams bind their own instances per consumer, so balancer
	// state is never shared across concurrent executions.
	specs, cells, err := fam.Bind()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(cells) == 0 {
		writeError(w, http.StatusBadRequest, "empty family: no cells to run")
		return
	}
	s.accept(w, fam, digest, canonical, specs, cells)
}

// accept admits a POST atomically with Close and with the single-flight
// decision. While an execution of digest is in flight, the run joins it as
// a follower (single-flight dedup), with cells expanded but not bound.
// Otherwise bound specs start a new execution, which leads digest's flight
// while the cache is enabled; without specs nothing is admitted and accept
// reports false, so the caller binds and calls again (an identical POST may
// have become the leader while it bound).
func (s *Server) accept(w http.ResponseWriter, fam *scenario.Family, digest string, canonical []byte,
	specs []analysis.RunSpec, cells []scenario.Scenario) bool {
	s.acceptMu.Lock()
	leader := s.flights[digest]
	if leader == nil && specs == nil {
		s.acceptMu.Unlock()
		return false
	}
	if s.closed {
		s.acceptMu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return true
	}
	if leader != nil {
		cells = fam.Scenarios()
	}
	run := s.reg.create(s.baseCtx, fam, cells, digest, canonical)
	s.runs.add(1)
	if leader == nil && s.cacheEnabled() {
		s.flights[digest] = run
	}
	s.acceptMu.Unlock()
	s.metrics.runsAccepted.Inc()
	if leader != nil {
		s.metrics.dedupFollowers.Inc()
		go s.follow(run, leader)
		s.log.Printf("run %s deduplicated onto in-flight %s: scenario %s", run.id, leader.id, digest[:12])
	} else {
		s.metrics.queueDepth.Inc()
		go s.execute(run, specs)
		s.log.Printf("run %s accepted: %d cells, scenario %s", run.id, len(cells), digest[:12])
	}
	writeJSON(w, http.StatusAccepted, run.summary())
	return true
}

func (s *Server) handleListRuns(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.list())
}

func (s *Server) handleGetRun(w http.ResponseWriter, r *http.Request) {
	run := s.reg.get(r.PathValue("id"))
	if run == nil {
		writeError(w, http.StatusNotFound, "no such run")
		return
	}
	writeJSON(w, http.StatusOK, run.summary())
}

func (s *Server) handleCancelRun(w http.ResponseWriter, r *http.Request) {
	run := s.reg.get(r.PathValue("id"))
	if run == nil {
		writeError(w, http.StatusNotFound, "no such run")
		return
	}
	run.cancel(errors.New("canceled by client"))
	writeJSON(w, http.StatusOK, run.summary())
}

// handleResult serves the archived result document. Until the run finishes
// it answers 202 with the summary — or, with ?wait=1, blocks until the run
// reaches a terminal status (or the client gives up). Canceled runs answer
// 409 with the summary; a run failed by an archive mismatch answers 409
// with the computed (divergent) result document, so the regression the
// archive just caught can be diffed over the API.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	run := s.reg.get(r.PathValue("id"))
	if run == nil {
		writeError(w, http.StatusNotFound, "no such run")
		return
	}
	if wait := r.URL.Query().Get("wait"); wait != "" && wait != "0" && wait != "false" {
		select {
		case <-run.done:
		case <-r.Context().Done():
			return
		}
	}
	status, resultJSON := run.snapshot()
	switch {
	case status == StatusDone:
		w.Header().Set("Content-Type", "application/json")
		w.Write(resultJSON)
	case status.terminal() && resultJSON != nil:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusConflict)
		w.Write(resultJSON)
	case status.terminal():
		writeJSON(w, http.StatusConflict, run.summary())
	default:
		writeJSON(w, http.StatusAccepted, run.summary())
	}
}

func (s *Server) handleRunScenario(w http.ResponseWriter, r *http.Request) {
	run := s.reg.get(r.PathValue("id"))
	if run == nil {
		writeError(w, http.StatusNotFound, "no such run")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(run.canonical)
}

// handleStream re-executes the run live for this consumer. The request's
// context drives analysis.StreamInto's per-round cancellation: a client
// disconnect (or server drain) stops the in-flight cell within one round and
// releases the consumer's engine.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	run := s.reg.get(r.PathValue("id"))
	if run == nil {
		writeError(w, http.StatusNotFound, "no such run")
		return
	}
	// Each stream is a full re-execution: bound like any other work. A full
	// table answers 503 immediately rather than queueing invisible load,
	// reporting its occupancy and a tunable Retry-After so clients can back
	// off proportionally instead of hammering a saturated daemon.
	select {
	case s.streamSem <- struct{}{}:
		s.metrics.streamsServed.Inc()
		s.metrics.streamsActive.Inc()
		defer func() {
			s.metrics.streamsActive.Dec()
			<-s.streamSem
		}()
	default:
		s.metrics.streamsRejected.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(s.cfg.StreamRetryAfter))
		writeJSON(w, http.StatusServiceUnavailable, streamBusyBody{
			Error:         "too many concurrent streams",
			ActiveStreams: len(s.streamSem),
			MaxStreams:    cap(s.streamSem),
			RetryAfter:    s.cfg.StreamRetryAfter,
		})
		return
	}
	// The stream's context dies with the client or with the server's drain,
	// whichever first.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stop := context.AfterFunc(s.baseCtx, cancel)
	defer stop()

	// Freshly bound cells: this consumer's engines and balancer state are
	// its own, shared with no other execution.
	specs, err := scenario.BindScenarios(run.cells)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	enc := newStreamEncoder(w, r)
	if err := enc.send(eventRun, runEvent{
		ID: run.id, Name: run.family.Name, Digest: run.digest, Cells: len(specs),
	}); err != nil {
		return
	}
	failures := 0
	for i, spec := range specs {
		if ctx.Err() != nil {
			return
		}
		cols := run.cells[i].Columns()
		labels := cellEvent{
			Cell:     i,
			Graph:    cols.Graph,
			Algo:     cols.Algo,
			Workload: cols.Workload,
			Schedule: cols.Schedule,
			Topology: cols.Topology,
		}
		if err := enc.send(eventCell, labels); err != nil {
			return
		}
		var res analysis.RunResult
		for round, snap := range analysis.StreamInto(ctx, spec, &res) {
			if err := enc.send(eventSnapshot, snapshotEvent{Cell: i, Sample: snap.Sample(round)}); err != nil {
				// Client gone: breaking the loop finalizes StreamInto's
				// bookkeeping and closes this consumer's engine.
				return
			}
		}
		if ctx.Err() != nil {
			return
		}
		if res.Err != nil {
			failures++
		}
		rec := resultEvent{Cell: i, CellResult: archive.CellResultOf(spec, res, cols)}
		if err := enc.send(eventResult, rec); err != nil {
			return
		}
	}
	enc.send(eventDone, doneEvent{Cells: len(specs), Failures: failures})
}

func (s *Server) handleArchiveFile(file string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.archive == nil {
			writeError(w, http.StatusNotFound, "archiving is disabled (no archive dir configured)")
			return
		}
		scenarioJSON, resultJSON, err := s.archive.Get(r.PathValue("digest"))
		if errors.Is(err, archive.ErrNotFound) {
			writeError(w, http.StatusNotFound, "no such archive entry")
			return
		}
		if err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if file == archive.ScenarioFile {
			w.Write(scenarioJSON)
		} else {
			w.Write(resultJSON)
		}
	}
}

// admit enforces the server's size caps on a normalized family's descriptors
// — estimated per-graph arcs and expanded cell count — without constructing
// anything.
func (s *Server) admit(fam *scenario.Family) error {
	if err := fam.Normalize(); err != nil {
		return err
	}
	for _, g := range fam.Graphs {
		arcs, err := g.Arcs()
		if err != nil {
			return err
		}
		if arcs > s.cfg.MaxGraphArcs {
			return fmt.Errorf("graph %s: ~%d arcs exceeds this server's limit of %d",
				g.String(), arcs, s.cfg.MaxGraphArcs)
		}
	}
	// Multiply with an early bail so absurd list lengths cannot overflow
	// the product past the cap.
	cells := int64(1)
	for _, k := range []int{len(fam.Graphs), len(fam.Algos), len(fam.Workloads), max(1, len(fam.Schedules)), max(1, len(fam.Topologies))} {
		cells *= int64(k)
		if cells > int64(s.cfg.MaxCells) {
			return fmt.Errorf("family expands to more than %d cells, this server's limit", s.cfg.MaxCells)
		}
	}
	// Fault-schedule density cap: every part of every topology spec is
	// probed once per round per cell, so the total part count bounds the
	// per-round fault-injection work.
	parts := 0
	for _, spec := range fam.Topologies {
		parts += len(spec)
		if parts > s.cfg.MaxTopologyParts {
			return fmt.Errorf("topology specs total more than %d parts, this server's limit", s.cfg.MaxTopologyParts)
		}
	}
	// Run-length caps: an explicit rounds count is bounded directly, and a
	// sampled run must carry one — Series memory is rounds/sample_every, so
	// sampling against the paper's (unknown-at-admission) default horizon
	// would be an unbounded allocation.
	if fam.Run.Rounds > s.cfg.MaxRunRounds {
		return fmt.Errorf("run.rounds %d exceeds this server's limit of %d", fam.Run.Rounds, s.cfg.MaxRunRounds)
	}
	if fam.Run.HorizonMultiple > 64 {
		return fmt.Errorf("run.horizon_multiple %d exceeds this server's limit of 64", fam.Run.HorizonMultiple)
	}
	if fam.Run.SampleEvery > 0 && fam.Run.Rounds == 0 {
		return fmt.Errorf("run.sample_every requires an explicit run.rounds cap on this server")
	}
	return nil
}

// --- canonical execution ---

// execute is the run executor: one goroutine per accepted run, gated by the
// concurrency semaphore (queued runs wait their turn), sweeping the specs the
// family bound to at POST time. The specs live only as long as execute, so a
// finished run does not pin its graphs.
func (s *Server) execute(run *run, specs []analysis.RunSpec) {
	defer s.runs.done()
	// Release the run's context from baseCtx's children once it is over —
	// without this every completed run would stay registered on the server
	// context for the daemon's lifetime.
	defer run.cancel(errors.New("run finished"))
	select {
	case s.sem <- struct{}{}:
	case <-run.ctx.Done():
		s.metrics.queueDepth.Dec()
		s.finishRun(run, time.Time{}, StatusCanceled, nil, 0, "", cancelMsg(run.ctx))
		s.log.Printf("run %s canceled while queued", run.id)
		return
	}
	defer func() { <-s.sem }()
	s.metrics.queueDepth.Dec()
	s.metrics.executorsBusy.Inc()
	s.metrics.runsExecuted.Inc()
	//detcheck:allow wallclock executor latency telemetry for the /metrics histograms; never enters a result document
	slotAt := time.Now()
	s.metrics.queueSeconds.Observe(slotAt.Sub(run.created).Seconds())

	run.setRunning()
	results := analysis.SweepContext(run.ctx, specs, analysis.SweepOptions{Workers: s.cfg.SweepWorkers})
	if sweepCanceled(run.ctx, results) {
		s.finishRun(run, slotAt, StatusCanceled, nil, 0, "", cancelMsg(run.ctx))
		s.log.Printf("run %s canceled", run.id)
		return
	}
	metas := make([]scenario.CellColumns, len(run.cells))
	for i, cell := range run.cells {
		metas[i] = cell.Columns()
	}
	resultJSON, failures, err := archive.BuildResultDoc(run.family.Name, run.digest, metas, specs, results)
	if err != nil {
		s.finishRun(run, slotAt, StatusFailed, nil, failures, "", err.Error())
		return
	}
	archived := ""
	if s.archive != nil {
		switch outcome, err := s.archive.Put(run.digest, run.canonical, resultJSON); {
		case err == nil && outcome == archive.PutCreated:
			archived = "created"
		case err == nil:
			archived = "verified"
		case errors.Is(err, archive.ErrStale):
			// The entry predates the current result version: the run is
			// good, the stored entry stays as it is, and no mismatch is
			// counted. The index keeps describing the stored bytes.
			s.finishRun(run, slotAt, StatusDone, resultJSON, failures, archiveStale, "")
			s.log.Printf("run %s done: %d cells, %d failures, archive stale: %v",
				run.id, len(run.cells), failures, err)
			return
		case errors.Is(err, archive.ErrMismatch):
			// Keep the divergent document: it is the evidence of the
			// regression, served with 409 by the result endpoint.
			s.metrics.archiveMismatches.Inc()
			s.finishRun(run, slotAt, StatusFailed, resultJSON, failures, "", err.Error())
			s.log.Printf("run %s: ARCHIVE MISMATCH: %v", run.id, err)
			return
		default:
			// An I/O failure, not a reproducibility signal: fail the run
			// plainly — its archived-result contract cannot be honored.
			s.finishRun(run, slotAt, StatusFailed, nil, failures, "", err.Error())
			s.log.Printf("run %s: archive write failed: %v", run.id, err)
			return
		}
		// Warm the analytics index from the bytes just archived, so queries
		// never re-read this executor's own writes. Index damage is loggable,
		// not run-failing: the entry itself archived fine.
		if err := s.index.Add(run.digest, run.canonical, resultJSON); err != nil {
			s.log.Printf("run %s: index: %v", run.id, err)
		}
		s.metrics.indexRows.Set(int64(s.index.Rows()))
		// Seed the failure-count memo so the digest's future cache hits
		// never re-parse the result document.
		s.recordHitFailures(run.digest, failures)
	}
	s.finishRun(run, slotAt, StatusDone, resultJSON, failures, archived, "")
	s.log.Printf("run %s done: %d cells, %d failures, archive %s",
		run.id, len(run.cells), failures, orDash(archived))
}

// finishRun publishes a run's terminal state with run.finish, after
// everything that follows from it: the run's metrics are recorded and, if it
// leads an execution, its single-flight slot is cleared, so a later POST of
// the same fingerprint starts fresh (or hits the archive) instead of
// following a terminal leader. A client that saw the result, by ?wait=1 or
// a stream, then finds both already done. slotAt is when the run took an
// executor slot, or the zero time if it never held one (canceled while
// queued, a follower or a cache hit).
func (s *Server) finishRun(run *run, slotAt time.Time, status RunStatus, resultJSON []byte, failures int, archived, errMsg string) {
	if !slotAt.IsZero() {
		//detcheck:allow wallclock executor latency telemetry for the /metrics histograms; never enters a result document
		s.metrics.runSeconds.Observe(time.Since(slotAt).Seconds())
		s.metrics.executorsBusy.Dec()
	}
	switch status {
	case StatusDone:
		s.metrics.runsDone.Inc()
	case StatusFailed:
		s.metrics.runsFailed.Inc()
	case StatusCanceled:
		s.metrics.runsCanceled.Inc()
	}
	s.removeFlight(run)
	run.finish(status, resultJSON, failures, archived, errMsg)
}

// sweepCanceled reports whether the sweep actually stopped for the run's
// cancellation. A done context alone is not enough: a cancel landing after
// the last cell completed must not discard (and un-archive) finished work,
// so the decision reads the results — cancellation shows up as cell errors
// wrapping the context's cause.
func sweepCanceled(ctx context.Context, results []analysis.RunResult) bool {
	if ctx.Err() == nil {
		return false
	}
	cause := context.Cause(ctx)
	for _, res := range results {
		if res.Err != nil && errors.Is(res.Err, cause) {
			return true
		}
	}
	return false
}

func cancelMsg(ctx context.Context) string {
	if cause := context.Cause(ctx); cause != nil {
		return cause.Error()
	}
	return "canceled"
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// --- small helpers ---

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

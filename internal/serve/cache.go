package serve

// The memoized serving tier. Runs are pure functions of their canonical
// scenario bytes and the archive is content-addressed by those bytes'
// SHA-256, so a POST whose fingerprint already has a verified archive entry
// does not need an execution at all: the archived result.json IS the
// answer, bit-identical to what a fresh sweep would produce. The cache
// therefore lives entirely in front of binding — a hit never constructs a
// graph, an engine, or a worker pool — and streams stay untouched: a
// stream of a cache-hit run re-executes deterministically per consumer
// exactly like any other run.
//
// Three modes (Config.CacheMode):
//
//   - "on" (the default): an archived fingerprint is admitted as a
//     terminal cache-hit run, result served from the archive.
//   - "verify": every Config.CacheVerifyEvery'th hit (the first always)
//     re-executes the full sweep instead and pushes its result through
//     Archive.Put, which enforces the bit-identical-replay contract — a
//     divergence fails the run and counts an archive mismatch. The
//     remaining hits serve from the archive. This keeps a sampled
//     regression check alive under production traffic.
//   - "off": every POST executes, the pre-cache behavior.
//
// Single-flight: while the cache is enabled, at most one execution per
// fingerprint is in flight. Concurrent POSTs of an already-executing
// fingerprint register as followers — distinct runs in the registry whose
// terminal state is copied from the leader when it finishes, so N
// concurrent identical POSTs cost one sweep and produce N identical
// results.

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"detlb/internal/archive"
)

// Cache modes for Config.CacheMode; the zero value means CacheOn.
const (
	// CacheOn serves archived fingerprints terminally from the archive.
	CacheOn = "on"
	// CacheOff executes every POST (the pre-cache behavior).
	CacheOff = "off"
	// CacheVerify re-executes a sampled fraction of hits and enforces the
	// bit-identical-replay contract on them; the rest serve from the archive.
	CacheVerify = "verify"
)

// Archive-state labels on run summaries (RunSummary.Archive): "created" and
// "verified" come from Archive.Put; a cache hit is marked "hit"; "stale"
// marks a run whose entry was archived under an older result version
// (archive.ErrStale) and was left as it is.
const (
	archiveHit   = "hit"
	archiveStale = "stale"
)

// normalizeCacheMode folds the zero value to CacheOn and rejects anything
// outside the mode set.
func normalizeCacheMode(mode string) (string, error) {
	switch mode {
	case "":
		return CacheOn, nil
	case CacheOn, CacheOff, CacheVerify:
		return mode, nil
	default:
		return "", fmt.Errorf("serve: unknown cache mode %q (want on, off, or verify)", mode)
	}
}

// cacheEnabled reports whether the memoized tier (hit serving and
// single-flight dedup) is active.
func (s *Server) cacheEnabled() bool {
	return s.cfg.CacheMode != CacheOff
}

// verifyDue reports whether this verify-mode hit is in the re-execution
// sample: the first hit always, then every CacheVerifyEvery'th. The
// decision is a pure function of the hit's arrival ordinal — no clock, no
// randomness — so a test (or an operator replaying traffic) can predict
// exactly which POSTs re-execute.
func (s *Server) verifyDue() bool {
	n := s.verifySeq.Add(1)
	return (n-1)%uint64(s.cfg.CacheVerifyEvery) == 0
}

// serveCacheHit admits a POST of an archived fingerprint as a terminal run:
// registered like any other run (listed, addressable, streamable) but done
// at creation, its result the archived bytes. start is the handler's entry
// instant for the hit-latency histogram.
func (s *Server) serveCacheHit(run *run, resultJSON []byte, start time.Time) {
	failures := s.hitFailures(run.digest, resultJSON)
	s.metrics.cacheHits.Inc()
	//detcheck:allow wallclock cache-hit latency telemetry for the /metrics histogram; never enters a result document
	s.metrics.hitSeconds.Observe(time.Since(start).Seconds())
	s.finishRun(run, time.Time{}, StatusDone, resultJSON, failures, archiveHit, "")
	// Detach the (never-executed) run context from baseCtx so completed
	// hits don't accumulate on the server context.
	run.cancel(errors.New("run finished"))
	s.log.Printf("run %s cache hit: scenario %s", run.id, run.digest[:12])
}

// hitFailures returns the failure count a hit's summary reports — the
// number of archived cells carrying a deterministic error. The count is
// parsed from the result document once per digest and memoized (the
// executor seeds the memo directly, so only entries predating this process
// ever pay the parse).
func (s *Server) hitFailures(digest string, resultJSON []byte) int {
	s.hitMu.Lock()
	n, ok := s.hitFailureMemo[digest]
	s.hitMu.Unlock()
	if ok {
		return n
	}
	var doc archive.ResultDoc
	if err := json.Unmarshal(resultJSON, &doc); err == nil {
		for _, c := range doc.Cells {
			if c.Err != "" {
				n++
			}
		}
	}
	s.recordHitFailures(digest, n)
	return n
}

// recordHitFailures memoizes a digest's failure count.
func (s *Server) recordHitFailures(digest string, failures int) {
	s.hitMu.Lock()
	s.hitFailureMemo[digest] = failures
	s.hitMu.Unlock()
}

// removeFlight clears the single-flight slot if leader holds it.
func (s *Server) removeFlight(leader *run) {
	s.acceptMu.Lock()
	if s.flights[leader.digest] == leader {
		delete(s.flights, leader.digest)
	}
	s.acceptMu.Unlock()
}

// follow mirrors the leader's terminal state onto a deduplicated follower
// run. A follower is registered, listed, and cancelable like any run, but
// owns no execution: it waits on the leader's completion (or its own
// cancellation — a DELETE on a follower never disturbs the leader).
func (s *Server) follow(follower, leader *run) {
	defer s.runs.done()
	defer follower.cancel(errors.New("run finished"))
	select {
	case <-leader.done:
		status, resultJSON, failures, errMsg := leader.terminalState()
		switch status {
		case StatusDone:
			// Served from the leader's fresh execution — an in-flight
			// memoization hit.
			s.finishRun(follower, time.Time{}, StatusDone, resultJSON, failures, archiveHit, "")
		case StatusCanceled:
			s.finishRun(follower, time.Time{}, StatusCanceled, nil, 0, "", errMsg)
		default:
			s.finishRun(follower, time.Time{}, StatusFailed, resultJSON, failures, "", errMsg)
		}
	case <-follower.ctx.Done():
		s.finishRun(follower, time.Time{}, StatusCanceled, nil, 0, "", cancelMsg(follower.ctx))
	}
}

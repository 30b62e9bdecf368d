package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"detlb/internal/scenario"
)

// RunStatus is the lifecycle of a submitted run.
type RunStatus string

const (
	// StatusQueued: accepted, waiting for an execution slot.
	StatusQueued RunStatus = "queued"
	// StatusRunning: executing on the runner pool.
	StatusRunning RunStatus = "running"
	// StatusDone: every cell executed (individual cells may still carry
	// deterministic errors — see the result document) and, when archiving is
	// enabled, the result was archived or verified against the archive (or
	// the archived entry predates the current result version: "stale").
	StatusDone RunStatus = "done"
	// StatusCanceled: the run's context was canceled (client DELETE or
	// server drain) before it completed.
	StatusCanceled RunStatus = "canceled"
	// StatusFailed: the run could not produce a result — a bind failure or
	// an archive mismatch (the re-run did not reproduce the archived bytes).
	StatusFailed RunStatus = "failed"
)

// terminal reports whether the status is final.
func (s RunStatus) terminal() bool {
	return s == StatusDone || s == StatusCanceled || s == StatusFailed
}

// run is one registered run: the immutable description (set at creation) and
// the mutex-guarded execution state.
type run struct {
	// Immutable after creation.
	id        string
	family    *scenario.Family
	cells     []scenario.Scenario
	digest    string
	canonical []byte
	created   time.Time
	ctx       context.Context
	cancel    context.CancelCauseFunc

	mu         sync.Mutex
	status     RunStatus
	started    time.Time
	finished   time.Time
	failures   int
	errMsg     string
	archive    string // "created" | "verified" | "hit" | "stale" | "" (disabled or not archived)
	resultJSON []byte
	done       chan struct{}
}

// setRunning transitions queued → running (a no-op on an already-terminal
// run, which can happen when a cancellation races the executor's start).
func (r *run) setRunning() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.status == StatusQueued {
		r.status = StatusRunning
		//detcheck:allow wallclock registry-only start timestamp; surfaced via RunSummary, never enters the archived result document
		r.started = time.Now()
	}
}

// finish records the terminal state exactly once; later calls are ignored.
func (r *run) finish(status RunStatus, resultJSON []byte, failures int, archive string, errMsg string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.status.terminal() {
		return
	}
	r.status = status
	r.resultJSON = resultJSON
	r.failures = failures
	r.archive = archive
	r.errMsg = errMsg
	//detcheck:allow wallclock registry-only finish timestamp; surfaced via RunSummary, never enters the archived result document
	r.finished = time.Now()
	close(r.done)
}

// RunSummary is the registry's wire view of one run. Times are wall-clock
// metadata and live only here — the archived result document is fully
// deterministic and must not carry them.
type RunSummary struct {
	ID       string    `json:"id"`
	Name     string    `json:"name,omitempty"`
	Digest   string    `json:"digest"`
	Cells    int       `json:"cells"`
	Status   RunStatus `json:"status"`
	Failures int       `json:"failures"`
	Archive  string    `json:"archive,omitempty"`
	Error    string    `json:"error,omitempty"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitzero"`
	Finished time.Time `json:"finished,omitzero"`
}

func (r *run) summary() RunSummary {
	r.mu.Lock()
	defer r.mu.Unlock()
	return RunSummary{
		ID:       r.id,
		Name:     r.family.Name,
		Digest:   r.digest,
		Cells:    len(r.cells),
		Status:   r.status,
		Failures: r.failures,
		Archive:  r.archive,
		Error:    r.errMsg,
		Created:  r.created,
		Started:  r.started,
		Finished: r.finished,
	}
}

// snapshot returns the fields the result endpoint needs in one locked read.
func (r *run) snapshot() (status RunStatus, resultJSON []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.status, r.resultJSON
}

// terminalState returns the fields a single-flight follower copies from its
// leader. Callers must have observed the done channel close, so the state
// is final.
func (r *run) terminalState() (status RunStatus, resultJSON []byte, failures int, errMsg string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.status, r.resultJSON, r.failures, r.errMsg
}

// registry is the concurrent run table: insertion-ordered, ID-addressed,
// bounded — a long-lived daemon must not accumulate every run it ever served.
type registry struct {
	mu     sync.Mutex
	runs   map[string]*run
	order  []*run
	seq    int
	retain int
}

func newRegistry(retain int) *registry {
	return &registry{runs: map[string]*run{}, retain: retain}
}

// create registers a new run with a fresh ID, deriving its context (and the
// cancel that DELETE and server drain share) from base. Creation evicts the
// oldest terminal runs beyond the retention bound: their summaries vanish
// from the registry, but archived results remain addressable by digest.
func (reg *registry) create(base context.Context, fam *scenario.Family, cells []scenario.Scenario, digest string, canonical []byte) *run {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	reg.evictLocked()
	reg.seq++
	ctx, cancel := context.WithCancelCause(base)
	r := &run{
		id:        fmt.Sprintf("r%04d", reg.seq),
		family:    fam,
		cells:     cells,
		digest:    digest,
		canonical: canonical,
		//detcheck:allow wallclock registry-only creation timestamp; surfaced via RunSummary, never enters the archived result document
		created: time.Now(),
		ctx:     ctx,
		cancel:  cancel,
		status:  StatusQueued,
		done:    make(chan struct{}),
	}
	reg.runs[r.id] = r
	reg.order = append(reg.order, r)
	return r
}

// evictLocked drops the oldest terminal runs while the table sits at (or
// beyond) the retention bound, making room for one more. Active runs are
// never evicted, so a burst of live work can still exceed the bound.
func (reg *registry) evictLocked() {
	excess := len(reg.order) - (reg.retain - 1)
	if excess <= 0 {
		return
	}
	kept := reg.order[:0]
	for _, r := range reg.order {
		r.mu.Lock()
		terminal := r.status.terminal()
		r.mu.Unlock()
		if excess > 0 && terminal {
			delete(reg.runs, r.id)
			excess--
			continue
		}
		kept = append(kept, r)
	}
	reg.order = kept
}

// get returns the run by ID, or nil.
func (reg *registry) get(id string) *run {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	return reg.runs[id]
}

// list returns summaries in creation order.
func (reg *registry) list() []RunSummary {
	reg.mu.Lock()
	order := append([]*run(nil), reg.order...)
	reg.mu.Unlock()
	out := make([]RunSummary, len(order))
	for i, r := range order {
		out[i] = r.summary()
	}
	return out
}

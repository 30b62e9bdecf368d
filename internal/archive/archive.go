// Package archive is the content-addressed run store and its analytics
// layer. Every finished run persists as a pair of files under
// <dir>/<digest>/ — scenario.json, the canonical scenario bytes whose
// SHA-256 is the digest, and result.json, the deterministic result
// document. Re-executing an archived scenario must reproduce result.json
// bit-identically; Put refuses to overwrite a mismatch, making the archive
// a regression-tracking substrate.
//
// On top of the store sits the analytics substrate: an Index that
// materializes one queryable row per archived cell (descriptor labels,
// result metrics, shock/fault recovery aggregates), a typed Query that
// filters, projects, and aggregates those rows deterministically (rows in
// digest order, group keys sorted — byte-identical output across processes
// and restarts), and Diff, which aligns two entries cell-by-cell by
// canonical descriptor and reports per-cell deltas plus structural
// additions and removals. internal/serve exposes the same three operations
// over HTTP and cmd/lbquery over the CLI; both evaluate through this
// package, so offline and online analysis share one grammar and one byte
// encoding.
package archive

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"detlb/internal/scenario"
)

// Sentinel errors. Callers branch with errors.Is; every error the package
// returns wraps exactly one of these or is an underlying I/O error.
var (
	// ErrNotFound reports a lookup of an archive entry that does not exist.
	ErrNotFound = errors.New("archive: entry not found")
	// ErrMismatch reports a Put whose result differs from the archived
	// bytes. Runs are pure functions of their canonical scenario, so a
	// mismatch means the code changed behavior since the entry was archived
	// — exactly what the archive exists to catch. Nothing is overwritten.
	ErrMismatch = errors.New("archive: result differs from the archived run")
	// ErrStale reports a Put whose result differs from an entry archived
	// under an older ResultVersion: a deliberate numeric change (a new
	// solver, say) moved the document, so the difference is a migration,
	// not a regression. Nothing is overwritten.
	ErrStale = errors.New("archive: entry recorded under an older result version")
	// ErrCorrupt reports an entry whose stored bytes cannot be decoded —
	// a truncated result.json, a scenario that no longer parses, or a
	// document that contradicts its own digest. Unlike ErrMismatch this is
	// damage to the store, not a reproducibility signal.
	ErrCorrupt = errors.New("archive: corrupt entry")
)

// PutOutcome classifies a successful Archive.Put: a new entry, or a
// byte-identical re-execution of an existing one. Failure modes (mismatch,
// stale entry, I/O) are errors, distinguished with errors.Is(err,
// ErrMismatch) and errors.Is(err, ErrStale).
type PutOutcome int

const (
	// PutCreated: the entry did not exist and was written.
	PutCreated PutOutcome = iota
	// PutVerified: the entry existed and the new result is bit-identical to
	// the archived one — the re-run reproduced the archived trajectory.
	PutVerified
)

// Archive is the store's consumer-facing surface. Store implements it over
// a directory; internal/serve and the Index depend only on this interface.
type Archive interface {
	// Dir returns the store's root directory.
	Dir() string
	// Put persists one finished run; see Store.Put.
	Put(digest string, scenarioJSON, resultJSON []byte) (PutOutcome, error)
	// Get returns the archived scenario and result bytes, or ErrNotFound.
	Get(digest string) (scenarioJSON, resultJSON []byte, err error)
	// GetResult returns just the archived result bytes, or ErrNotFound.
	GetResult(digest string) ([]byte, error)
	// List enumerates complete entries in digest order.
	List() ([]Entry, error)
	// Len counts complete entries.
	Len() (int, error)
}

// Entry summarizes one archived run for listings.
type Entry struct {
	Digest string `json:"digest"`
	Name   string `json:"name,omitempty"`
	Cells  int    `json:"cells"`
}

// ScenarioFile and ResultFile are the two files of an archive entry;
// result.json is written last, so its presence marks the entry complete.
const (
	ScenarioFile = "scenario.json"
	ResultFile   = "result.json"
)

// Store is the directory-backed Archive implementation.
type Store struct {
	dir string
	// mu serializes Put: file writes are individually atomic (tmp + rename),
	// but two concurrent runs of the same scenario must resolve to one
	// "created" and one "verified", not two racing creates. It also guards
	// meta.
	mu sync.Mutex
	// meta caches each complete entry's listing metadata by digest. Entries
	// are archived immutably (Put never overwrites), so a cached record can
	// never go stale; Put populates the cache as entries are created or
	// verified and List fills it lazily for entries that predate this
	// process, paying each entry's scenario re-parse at most once.
	meta map[string]Entry
}

// Store implements Archive.
var _ Archive = (*Store)(nil)

// Open opens (creating if needed) a store rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("archive: open: %w", err)
	}
	return &Store{dir: dir, meta: map[string]Entry{}}, nil
}

// Dir returns the store's root directory.
func (a *Store) Dir() string { return a.dir }

// validDigest reports whether s looks like a SHA-256 hex digest — the only
// strings Put/Get accept, so a hostile path can never escape the store dir.
func validDigest(s string) bool {
	if len(s) != 64 {
		return false
	}
	for _, c := range s {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Put persists one finished run. The digest must be the scenario bytes'
// fingerprint (scenario.Family.Fingerprint). An existing entry is never
// overwritten: a byte-identical result verifies it, a differing result is
// an error wrapping ErrMismatch — the regression signal, distinguishable
// from plain I/O failure with errors.Is — unless the archived document is
// this digest's result under an older version than resultJSON's, which
// wraps ErrStale instead.
func (a *Store) Put(digest string, scenarioJSON, resultJSON []byte) (PutOutcome, error) {
	if !validDigest(digest) {
		return 0, fmt.Errorf("archive: invalid digest %q", digest)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	entry := filepath.Join(a.dir, digest)
	if existing, err := os.ReadFile(filepath.Join(entry, ResultFile)); err == nil {
		if bytes.Equal(existing, resultJSON) {
			a.cacheMetaLocked(digest, scenarioJSON)
			return PutVerified, nil
		}
		if old, cur := docVersion(existing, digest), docVersion(resultJSON, digest); old > 0 && old < cur {
			return 0, fmt.Errorf("%w: %s is version %d, this run version %d",
				ErrStale, digest[:12], old, cur)
		}
		return 0, fmt.Errorf(
			"%w: %s — the code no longer reproduces the archived trajectory",
			ErrMismatch, digest[:12])
	} else if !os.IsNotExist(err) {
		return 0, fmt.Errorf("archive: %w", err)
	}
	if err := os.MkdirAll(entry, 0o755); err != nil {
		return 0, fmt.Errorf("archive: %w", err)
	}
	if err := writeFileAtomic(filepath.Join(entry, ScenarioFile), scenarioJSON); err != nil {
		return 0, err
	}
	if err := writeFileAtomic(filepath.Join(entry, ResultFile), resultJSON); err != nil {
		return 0, err
	}
	a.cacheMetaLocked(digest, scenarioJSON)
	return PutCreated, nil
}

// docVersion returns the version of a result document for digest, or 0 when
// the bytes are not one.
func docVersion(resultJSON []byte, digest string) int {
	var head struct {
		Version int    `json:"version"`
		Digest  string `json:"digest"`
	}
	if json.Unmarshal(resultJSON, &head) != nil || head.Digest != digest {
		return 0
	}
	return head.Version
}

// cacheMetaLocked records a complete entry's listing metadata from its
// canonical scenario bytes. Callers hold a.mu. Bytes that don't parse (only
// possible for foreign files placed under an entry's digest) just stay
// uncached — List re-derives or skips them.
func (a *Store) cacheMetaLocked(digest string, scenarioJSON []byte) {
	if _, ok := a.meta[digest]; ok {
		return
	}
	fam, err := scenario.Load(bytes.NewReader(scenarioJSON))
	if err != nil {
		return
	}
	a.meta[digest] = Entry{Digest: digest, Name: fam.Name, Cells: len(fam.Scenarios())}
}

// Get returns the archived scenario and result bytes, or ErrNotFound.
func (a *Store) Get(digest string) (scenarioJSON, resultJSON []byte, err error) {
	resultJSON, err = a.GetResult(digest)
	if err != nil {
		return nil, nil, err
	}
	scenarioJSON, err = os.ReadFile(filepath.Join(a.dir, digest, ScenarioFile))
	if err != nil {
		return nil, nil, fmt.Errorf("archive: %w", err)
	}
	return scenarioJSON, resultJSON, nil
}

// GetResult returns just the archived result bytes, or ErrNotFound —
// the cache-hit fast path, one file read instead of two (result.json is
// written last, so its presence alone marks the entry complete).
func (a *Store) GetResult(digest string) ([]byte, error) {
	if !validDigest(digest) {
		return nil, fmt.Errorf("%w: invalid digest %q", ErrNotFound, digest)
	}
	resultJSON, err := os.ReadFile(filepath.Join(a.dir, digest, ResultFile))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, digest[:12])
		}
		return nil, fmt.Errorf("archive: %w", err)
	}
	return resultJSON, nil
}

// Len counts complete archive entries (one directory read; no per-entry
// parsing) — the /v1/info archive-size figure.
func (a *Store) Len() (int, error) {
	dirents, err := os.ReadDir(a.dir)
	if err != nil {
		return 0, fmt.Errorf("archive: %w", err)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, de := range dirents {
		if !de.IsDir() || !validDigest(de.Name()) {
			continue
		}
		if _, ok := a.meta[de.Name()]; ok {
			n++
			continue
		}
		if _, err := os.Stat(filepath.Join(a.dir, de.Name(), ResultFile)); err == nil {
			n++
		}
	}
	return n, nil
}

// List enumerates complete archive entries in digest order. Metadata (name,
// cell count) comes from the in-memory digest cache — populated by Put as
// entries land, filled lazily here for entries that predate this process —
// so a steady-state listing costs one directory read, not one scenario parse
// per entry. Entries whose scenario does not parse (foreign files, a partial
// write) are skipped rather than failing the listing; the Index, which must
// never skip silently, re-reads entries itself and surfaces ErrCorrupt.
func (a *Store) List() ([]Entry, error) {
	dirents, err := os.ReadDir(a.dir)
	if err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []Entry
	for _, de := range dirents {
		if !de.IsDir() || !validDigest(de.Name()) {
			continue
		}
		if e, ok := a.meta[de.Name()]; ok {
			out = append(out, e)
			continue
		}
		if _, err := os.Stat(filepath.Join(a.dir, de.Name(), ResultFile)); err != nil {
			continue
		}
		data, err := os.ReadFile(filepath.Join(a.dir, de.Name(), ScenarioFile))
		if err != nil {
			continue
		}
		a.cacheMetaLocked(de.Name(), data)
		e, ok := a.meta[de.Name()]
		if !ok {
			continue
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Digest < out[j].Digest })
	return out, nil
}

// writeFileAtomic writes data next to path and renames it into place, so a
// crash mid-write can never leave a torn file behind a valid name.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("archive: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("archive: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("archive: %w", err)
	}
	return nil
}

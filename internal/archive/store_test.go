package archive

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"detlb/internal/scenario"
)

func archiveFixture(t *testing.T) (digest string, canonical []byte) {
	t.Helper()
	fam, err := scenario.ParseFamily("cycle:8", "send-floor", "point:64", "", "")
	if err != nil {
		t.Fatal(err)
	}
	digest, canonical, err = fam.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return digest, canonical
}

func TestStorePutGetList(t *testing.T) {
	arch, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	digest, canonical := archiveFixture(t)
	result := []byte("{\"version\":1,\"digest\":\"" + digest + "\",\"cells\":[]}\n")

	if outcome, err := arch.Put(digest, canonical, result); err != nil || outcome != PutCreated {
		t.Fatalf("first put: %v %v", outcome, err)
	}
	if outcome, err := arch.Put(digest, canonical, result); err != nil || outcome != PutVerified {
		t.Fatalf("identical re-put: %v %v", outcome, err)
	}
	if _, err := arch.Put(digest, canonical, []byte("different\n")); !errors.Is(err, ErrMismatch) {
		t.Fatalf("mismatch put must wrap ErrMismatch, got %v", err)
	}
	// The mismatch must not have clobbered the archived truth.
	gotScenario, gotResult, err := arch.Get(digest)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotScenario, canonical) || !bytes.Equal(gotResult, result) {
		t.Fatal("archive content changed after a mismatch put")
	}

	entries, err := arch.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Digest != digest || entries[0].Cells != 1 {
		t.Fatalf("entries: %+v", entries)
	}
}

// TestStorePutStaleVersion: an entry archived under an older result
// version answers a differing Put with ErrStale, not ErrMismatch, and stays
// as it is.
func TestStorePutStaleVersion(t *testing.T) {
	arch, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	digest, canonical := archiveFixture(t)
	old := []byte(fmt.Sprintf("{\"version\":%d,\"digest\":%q,\"cells\":[]}\n", ResultVersion-1, digest))
	if _, err := arch.Put(digest, canonical, old); err != nil {
		t.Fatal(err)
	}
	cur := []byte(fmt.Sprintf("{\"version\":%d,\"digest\":%q,\"cells\":[]}\n", ResultVersion, digest))
	_, err = arch.Put(digest, canonical, cur)
	if !errors.Is(err, ErrStale) || errors.Is(err, ErrMismatch) {
		t.Fatalf("put over an older-version entry must wrap ErrStale only, got %v", err)
	}
	if _, got, err := arch.Get(digest); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("stale entry changed: %v %s", err, got)
	}
	// A document naming another digest is not this entry's newer version.
	other := []byte(fmt.Sprintf("{\"version\":%d,\"digest\":\"%064d\",\"cells\":[]}\n", ResultVersion, 0))
	if _, err := arch.Put(digest, canonical, other); !errors.Is(err, ErrMismatch) {
		t.Fatalf("foreign document must wrap ErrMismatch, got %v", err)
	}
}

func TestStoreGetMissing(t *testing.T) {
	arch, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	digest, _ := archiveFixture(t)
	if _, _, err := arch.Get(digest); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing entry: %v", err)
	}
	if _, _, err := arch.Get("../sneaky"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("invalid digest must read as not-found, got %v", err)
	}
}

func TestStoreRejectsBadDigest(t *testing.T) {
	arch, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := arch.Put("not-a-digest", []byte("{}"), []byte("{}")); err == nil {
		t.Fatal("bad digest accepted")
	}
}

// TestStoreListCache: Put populates the listing metadata cache and List
// fills it lazily for entries that predate the process, after which listings
// never re-read an entry's scenario — entries are immutable, so the cache
// cannot go stale.
func TestStoreListCache(t *testing.T) {
	dir := t.TempDir()
	arch, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	digest, canonical := archiveFixture(t)
	result := []byte("{}\n")
	if _, err := arch.Put(digest, canonical, result); err != nil {
		t.Fatal(err)
	}
	// Put cached the metadata: a listing must not need scenario.json anymore.
	scenarioPath := filepath.Join(dir, digest, ScenarioFile)
	if err := os.Remove(scenarioPath); err != nil {
		t.Fatal(err)
	}
	entries, err := arch.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Digest != digest || entries[0].Cells != 1 {
		t.Fatalf("put-warmed listing: %+v", entries)
	}

	// A cold process (fresh Store on the same dir) has an empty cache: its
	// first List parses the scenario and caches it, the next serves from
	// memory.
	if err := os.WriteFile(scenarioPath, canonical, 0o644); err != nil {
		t.Fatal(err)
	}
	cold, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if entries, err = cold.List(); err != nil || len(entries) != 1 {
		t.Fatalf("cold listing: %+v %v", entries, err)
	}
	if err := os.Remove(scenarioPath); err != nil {
		t.Fatal(err)
	}
	if entries, err = cold.List(); err != nil || len(entries) != 1 || entries[0].Cells != 1 {
		t.Fatalf("lazily-warmed listing: %+v %v", entries, err)
	}
}

// TestStoreConcurrentPutListLen: Puts of distinct digests racing List, Len,
// and GetResult must be data-race free (the meta cache is shared mutable
// state) — the race detector is the real assertion; the final counts confirm
// nothing was dropped.
func TestStoreConcurrentPutListLen(t *testing.T) {
	arch, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, canonical := archiveFixture(t)
	const writers = 8
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			digest := fmt.Sprintf("%064x", w)
			if _, err := arch.Put(digest, canonical, []byte("{}\n")); err != nil {
				t.Errorf("put %s: %v", digest[:8], err)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := arch.List(); err != nil {
				t.Errorf("list: %v", err)
			}
			if _, err := arch.Len(); err != nil {
				t.Errorf("len: %v", err)
			}
			// Reads racing the writes may or may not find the entry; only
			// unexpected errors matter.
			if _, err := arch.GetResult(fmt.Sprintf("%064x", w)); err != nil && !errors.Is(err, ErrNotFound) {
				t.Errorf("get result: %v", err)
			}
		}()
	}
	wg.Wait()
	entries, err := arch.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != writers {
		t.Fatalf("listed %d entries, want %d", len(entries), writers)
	}
	if n, err := arch.Len(); err != nil || n != writers {
		t.Fatalf("len: %d %v, want %d", n, err, writers)
	}
}

// TestStoreGetResultAndLen: the cache-hit fast path reads only result.json
// and Len counts only complete entries.
func TestStoreGetResultAndLen(t *testing.T) {
	dir := t.TempDir()
	arch, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	digest, canonical := archiveFixture(t)
	result := []byte("{\"version\":1,\"cells\":[]}\n")
	if _, err := arch.GetResult(digest); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing entry: %v", err)
	}
	if _, err := arch.Put(digest, canonical, result); err != nil {
		t.Fatal(err)
	}
	got, err := arch.GetResult(digest)
	if err != nil || !bytes.Equal(got, result) {
		t.Fatalf("get result: %v (%s)", err, got)
	}
	// An incomplete sibling entry (no result.json) is invisible to Len.
	partial := filepath.Join(dir, strings.Repeat("a", 64))
	if err := os.MkdirAll(partial, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(partial, ScenarioFile), canonical, 0o644); err != nil {
		t.Fatal(err)
	}
	if n, err := arch.Len(); err != nil || n != 1 {
		t.Fatalf("len: %d %v, want 1", n, err)
	}
}

// TestStoreListSkipsIncomplete: an entry without result.json (a crash
// between the two writes) and foreign files are invisible to listings.
func TestStoreListSkipsIncomplete(t *testing.T) {
	dir := t.TempDir()
	arch, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	digest, canonical := archiveFixture(t)
	partial := filepath.Join(dir, digest)
	if err := os.MkdirAll(partial, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(partial, ScenarioFile), canonical, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("not an entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err := arch.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("incomplete entry listed: %+v", entries)
	}
}

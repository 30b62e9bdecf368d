package main

// The correctness gate. It runs after the measured window, outside its
// timing, over a sample of the window's requests:
//   - a cold POST's result must equal, byte for byte, an in-process
//     BindScenarios → SweepContext → BuildResultDoc of the same family;
//   - a cache hit must return the archived bytes;
//   - a query must answer what an offline Index.Query + EncodeJSON over
//     the same archive directory answers.
// Every check is one attempted operation; every mismatch is a failure.

import (
	"bytes"
	"fmt"
	"net/http"

	"detlb/internal/archive"
)

const (
	// checkWrites is how many successful cold POSTs are recomputed in
	// process and re-POSTed as hits.
	checkWrites = 5
	// checkHits and checkQueries sample serve-mix's hits and queries.
	checkHits    = 8
	checkQueries = 6
)

// check runs the gate and records every check in t. It returns a message
// per mismatch.
func check(cl *client, srv *server, in inputs, samples []sample, t *tally) ([]string, error) {
	store, err := archive.Open(srv.dir)
	if err != nil {
		return nil, err
	}
	var problems []string
	record := func(what string, err error) {
		t.add(err, true)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", what, err))
		}
	}

	var queries []string
	var writes []sample
	for _, s := range samples {
		switch {
		case s.Err != nil:
		case (s.Kind == kindCold || s.Kind == kindWrite) && len(writes) < checkWrites:
			writes = append(writes, s)
		case s.Kind == kindQuery && s.Req < len(in.Reqs) && len(queries) < checkQueries:
			queries = append(queries, in.Reqs[s.Req].Query)
		}
	}
	for _, s := range writes {
		what := fmt.Sprintf("request %d (%s) %s", s.Req, s.Kind, s.Digest[:12])
		want, err := (&pipeline{}).cold(s.Req, in.Reqs[s.Req].Body)
		if err == nil && !bytes.Equal(want.doc, s.Body) {
			err = fmt.Errorf("served result differs from the in-process recomputation")
		}
		record(what+" recompute", err)
		// Now archived, the same body must come back as a hit serving the
		// archived bytes.
		record(what+" re-POST hit", checkHit(cl, store, in.Reqs[s.Req].Body))
		if s.Kind == kindCold {
			queries = append(queries, readBackQueries(s.Digest)...)
		}
	}
	for i := 0; i < len(in.Hot) && i < checkHits; i++ {
		record(fmt.Sprintf("hot family %d hit", i), checkHit(cl, store, in.Hot[i]))
	}
	index := archive.NewIndex(store)
	for _, qs := range queries {
		record("query "+qs, checkQuery(cl, index, qs))
	}
	return problems, nil
}

// checkHit POSTs an archived family and compares the served result with the
// bytes in the archive directory.
func checkHit(cl *client, store *archive.Store, body []byte) error {
	sum, err := cl.post(body)
	if err != nil {
		return err
	}
	if sum.Archive != "hit" {
		return fmt.Errorf("expected a cache hit, got archive %q", sum.Archive)
	}
	got, err := cl.send(http.MethodGet, "/v1/runs/"+sum.ID+"/result", nil, http.StatusOK)
	if err != nil {
		return err
	}
	want, err := store.GetResult(sum.Digest)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("hit served %d bytes that differ from the archived %d", len(got), len(want))
	}
	return nil
}

// checkQuery compares a served query answer with an offline evaluation.
func checkQuery(cl *client, index *archive.Index, qs string) error {
	got, err := cl.send(http.MethodGet, "/v1/archive/query?"+qs, nil, http.StatusOK)
	if err != nil {
		return err
	}
	want, err := (&pipeline{index: index}).query(-1, qs)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("served answer differs from the offline evaluation")
	}
	return nil
}

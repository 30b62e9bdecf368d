package main

import (
	"bytes"
	"path/filepath"
	"testing"
)

func TestInputsDependOnlyOnTheSeed(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			a, b := wl.gen(1, 2).digest(), wl.gen(1, 2).digest()
			if a != b {
				t.Errorf("same seed, different inputs: %s vs %s", a, b)
			}
			if c := wl.gen(2, 2).digest(); c == a {
				t.Errorf("seeds 1 and 2 generated the same inputs %s", a)
			}
		})
	}
}

// TestSetUpIsTheSameForEverySeed pins that set-up does the same work under
// every seed, so setup_s varies with the program and the host only.
func TestSetUpIsTheSameForEverySeed(t *testing.T) {
	for _, wl := range workloads {
		a, b := wl.gen(1, 2), wl.gen(2, 2)
		a.Reqs, b.Reqs = nil, nil
		if a.digest() != b.digest() {
			t.Errorf("%s: seeds 1 and 2 set up different inputs", wl.name)
		}
	}
}

// TestColdRequestsAreFresh pins what makes a cold request cold: no measured
// family repeats, and none equals a warm-up or hot family the server has
// already archived.
func TestColdRequestsAreFresh(t *testing.T) {
	for _, wl := range workloads {
		in := wl.gen(7, 3)
		seen := map[string]bool{}
		for _, b := range in.Hot {
			seen[string(b)] = true
		}
		for _, r := range in.Warm {
			if r.Kind != kindHit && r.Kind != kindQuery {
				seen[string(r.Body)] = true
			}
		}
		cold := 0
		for i, r := range in.Reqs {
			switch r.Kind {
			case kindCold, kindWrite:
				if seen[string(r.Body)] {
					t.Errorf("%s: request %d repeats an archived family", wl.name, i)
				}
				seen[string(r.Body)] = true
				cold++
			case kindHit:
				if !containsBody(in.Hot, r.Body) {
					t.Errorf("%s: hit %d is not a hot family", wl.name, i)
				}
			}
		}
		if cold == 0 {
			t.Errorf("%s: no cold requests", wl.name)
		}
	}
}

func containsBody(list [][]byte, b []byte) bool {
	for _, x := range list {
		if bytes.Equal(x, b) {
			return true
		}
	}
	return false
}

// TestCheckFlagsMismatch feeds the correctness gate a served result with one
// byte changed: it must count a mismatch.
func TestCheckFlagsMismatch(t *testing.T) {
	srv, err := bootServer(filepath.Join(t.TempDir(), "archive"))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.close()
	cl := newClient(srv.base, 1)
	defer cl.close()
	in := inputs{Reqs: []request{{Kind: kindCold, Body: hypercubeFamily(99)}}}
	out := cl.cold(in.Reqs[0].Body)
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	good := []sample{{Req: 0, Kind: kindCold, outcome: out}}
	var tl tally
	problems, err := check(cl, srv, in, good, &tl)
	if err != nil || len(problems) != 0 || tl.Failed != 0 || tl.Attempted == 0 {
		t.Fatalf("honest run: problems %v, err %v, tally %+v", problems, err, tl)
	}

	bad := out
	bad.Body = bytes.Replace(out.Body, []byte(`"rounds": 400`), []byte(`"rounds": 401`), 1)
	if bytes.Equal(bad.Body, out.Body) {
		t.Fatal("fixture: no rounds field to alter")
	}
	tl = tally{}
	problems, err = check(cl, srv, in, []sample{{Req: 0, Kind: kindCold, outcome: bad}}, &tl)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 1 || tl.Mismatched != 1 || tl.Failed != 1 {
		t.Errorf("altered result: problems %v, tally %+v; want exactly one mismatch", problems, tl)
	}
}

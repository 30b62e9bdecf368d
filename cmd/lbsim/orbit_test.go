package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestOrbitPrintsStateCycle: -orbit prints the cycle the round loop closes
// on the engine's full state. On the first two specs the loads stay put for
// a few rounds before the rotors move them again, so a detector comparing
// loads alone reported a false period 1 there; on the third it found no
// cycle at all. The hypercube:6 periods are the load periods the load-only
// detector verified on these specs. brent is the round a single snapshot
// after rounds 1, 2, 4, … reported the cycle entered by; the checkpoint
// detector never reports a later one.
func TestOrbitPrintsStateCycle(t *testing.T) {
	for _, c := range []struct {
		spec  string
		want  string
		brent int
	}{
		{"-graph cycle:16 -loops 2 -algo rotor-router -workload random:40,9",
			"state cycle: period 16 entered by round 128, discrepancy 1..1", 128},
		{"-graph hypercube:4 -loops 4 -algo rotor-router -workload random:40,10",
			"state cycle: period 64 entered by round 64, discrepancy 1..1", 64},
		{"-graph hypercube:5 -algo good:2 -workload point:5000",
			"state cycle: period 64 entered by round 64, discrepancy 2..5", 64},
		{"-graph hypercube:6 -algo send-floor -workload point:10000",
			"state cycle: period 2 entered by round 48, discrepancy 7..11", 64},
		{"-graph hypercube:6 -algo send-round -workload point:10000",
			"state cycle: period 1 entered by round 32, discrepancy 8..8", 32},
		{"-graph hypercube:6 -algo good:2 -workload point:10000",
			"state cycle: period 1 entered by round 96, discrepancy 2..2", 128},
		{"-graph hypercube:6 -algo rotor-router -workload point:10000",
			"state cycle: period 48 entered by round 128, discrepancy 1..2", 128},
		{"-graph hypercube:6 -algo biased -workload point:10000",
			"state cycle: period 2 entered by round 48, discrepancy 11..11", 64},
	} {
		var start, period int
		var lo, hi int64
		if _, err := fmt.Sscanf(c.want, "state cycle: period %d entered by round %d, discrepancy %d..%d", &period, &start, &lo, &hi); err != nil {
			t.Fatalf("%s: %v", c.want, err)
		}
		if start > c.brent {
			t.Errorf("%s: cycle entered by round %d, later than the single snapshot's %d", c.spec, start, c.brent)
		}
		var out bytes.Buffer
		if code := run(append(strings.Fields(c.spec), "-orbit"), &out); code != 0 {
			t.Fatalf("%s: exit %d\n%s", c.spec, code, out.String())
		}
		if !strings.HasSuffix(out.String(), "\n"+c.want+"\n") {
			t.Errorf("%s: output ends\n%s\nwant last line %q", c.spec, out.String(), c.want)
		}
	}
}

// TestOrbitRefusals: -orbit exits 2 before running anything on a balancer
// whose full state the engine cannot compare, and on dynamic runs.
func TestOrbitRefusals(t *testing.T) {
	for _, extra := range []string{
		"-algo rotor-router*", "-algo mimic", "-algo bounded-error", "-algo matching",
		"-algo matching-rand", "-algo rand-extra", "-algo rand-round",
		"-events burst:5,0,10", "-faults faillink:3,0,1",
	} {
		var out bytes.Buffer
		args := append([]string{"-graph", "cycle:8", "-orbit"}, strings.Fields(extra)...)
		if code := run(args, &out); code != 2 {
			t.Errorf("%s: exit %d, want 2", extra, code)
		}
		if out.Len() != 0 {
			t.Errorf("%s: printed %q before refusing", extra, out.String())
		}
	}
}

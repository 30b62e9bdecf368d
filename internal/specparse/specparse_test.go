// Package specparse holds the schedule tests of the command-line spec
// mini-language shared by lbsim and lbsweep. The parser lives in
// internal/scenario; these tests run each spec through
// scenario.ParseSchedule and Bind, the path the CLIs take.
package specparse

import (
	"testing"

	"detlb/internal/scenario"
	"detlb/internal/workload"
)

// Schedule parses a schedule spec and binds it to an n-node graph; the
// static spellings bind to a nil schedule.
func Schedule(spec string, n int) (workload.Schedule, error) {
	s, err := scenario.ParseSchedule(spec)
	if err != nil {
		return nil, err
	}
	return s.Bind(n)
}

func TestScheduleNone(t *testing.T) {
	for _, spec := range []string{"", "none", "none+none"} {
		s, err := Schedule(spec, 16)
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		if s != nil {
			t.Fatalf("%q should parse to a nil (static) schedule, got %#v", spec, s)
		}
	}
}

func TestScheduleSingle(t *testing.T) {
	s, err := Schedule("burst:20,3,4096", 16)
	if err != nil {
		t.Fatal(err)
	}
	b, ok := s.(workload.Burst)
	if !ok || b.Round != 20 || b.Node != 3 || b.Amount != 4096 {
		t.Fatalf("parsed %#v", s)
	}

	s, err = Schedule("churn:10,256", 16)
	if err != nil {
		t.Fatal(err)
	}
	c, ok := s.(workload.Churn)
	if !ok || c.Every != 10 || c.Amount != 256 || c.Seed != 1 {
		t.Fatalf("parsed %#v (default seed must be 1)", s)
	}

	s, err = Schedule("refill:50,1024,25", 16)
	if err != nil {
		t.Fatal(err)
	}
	r, ok := s.(workload.Refill)
	if !ok || r.Round != 50 || r.Amount != 1024 || r.Every != 25 {
		t.Fatalf("parsed %#v", s)
	}
}

func TestScheduleCompose(t *testing.T) {
	s, err := Schedule("burst:10,0,512+drain:20,40,2+periodic:30,5,64", 16)
	if err != nil {
		t.Fatal(err)
	}
	c, ok := s.(workload.Compose)
	if !ok || len(c) != 3 {
		t.Fatalf("parsed %#v", s)
	}
	if _, ok := c[1].(workload.Drain); !ok {
		t.Fatalf("middle part = %#v", c[1])
	}
}

func TestScheduleErrors(t *testing.T) {
	for _, spec := range []string{
		"burst:20,3",           // missing amount
		"burst:20,99,10",       // node out of range for n=16
		"periodic:5,-1,10",     // negative node
		"burst:x,0,10",         // non-numeric
		"quake:1,2,3",          // unknown kind
		"burst:10,0,5+quake:1", // bad part inside a composition
		"churn:0,256",          // zero cadence can never fire
		"periodic:0,1,10",      // zero cadence can never fire
		"burst:-5,0,10",        // negative round can never fire
		"drain:20,10,5",        // empty window
		"drain:5,10,0",         // nothing to drain
		"refill:10,100,-5",     // negative cadence
	} {
		if _, err := Schedule(spec, 16); err == nil {
			t.Fatalf("%q should fail to parse", spec)
		}
	}
}

func TestScheduleRejectsZeroAmounts(t *testing.T) {
	for _, spec := range []string{"burst:20,0,0", "periodic:5,1,0", "refill:10,0"} {
		if _, err := Schedule(spec, 16); err == nil {
			t.Fatalf("%q can never fire and should be rejected", spec)
		}
	}
}

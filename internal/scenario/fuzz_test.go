package scenario

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzScenario drives the identity the scenario layer promises: for any
// text spec that parses, the chain
//
//	text grammar → descriptor → JSON → descriptor → RunSpec component
//
// is lossless — the JSON round trip preserves the descriptor exactly, the
// canonical String() re-parses to the same descriptor, and binding the
// round-tripped descriptor produces the same live component as binding the
// original. CI runs this under -fuzz for a short budget every push; the
// checked-in corpus under testdata/fuzz/FuzzScenario keeps past finds green.
func FuzzScenario(f *testing.F) {
	for _, s := range []string{
		"cycle:16", "torus:4,2", "hypercube:4", "complete:9", "petersen",
		"random:32,4,7", "gp:7,2", "kbipartite:3", "circulant:16,1+3",
		"cycle", "torus:,3", "circulant:12",
		"send-floor", "rotor-router*", "good:2", "rand-extra:9", "matching:5",
		"majority", "majority:5", "herman", "herman:3",
		"point:100", "point", "uniform:3", "bimodal:1,5", "random:10,3", "ramp:0,2",
		"opinions", "opinions:10", "tokens", "tokens:5,2",
		"burst:5,0,100", "burst:5,0,100+churn:4,32", "drain:2,9,1",
		"periodic:4,1,16", "refill:6,64,3", "none",
		"faillink:3,0,1", "restorelink:7,0,1", "failnode:2,5", "failnode:2,5,1",
		"restorenode:9,5", "flap:0,1,4,8", "flap:0,1,4,8,3",
		"partition:5,8", "partition:5,8,20", "periodic-fault:6,2",
		"periodic-fault:6,2,9", "flap:0,1,4,8+partition:5,8,20",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		fuzzGraph(t, text)
		fuzzAlgo(t, text)
		fuzzWorkload(t, text)
		fuzzSchedule(t, text)
		fuzzTopology(t, text)
	})
}

// jsonRoundTrip marshals v and unmarshals into out (a pointer to v's type),
// failing the test on any loss.
func jsonRoundTrip(t *testing.T, v, out any) {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal %#v: %v", v, err)
	}
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatalf("unmarshal %s: %v", data, err)
	}
	got := reflect.ValueOf(out).Elem().Interface()
	if !reflect.DeepEqual(v, got) {
		t.Fatalf("JSON round trip lost data:\n%#v\n%#v", v, got)
	}
}

func fuzzGraph(t *testing.T, text string) {
	s, err := ParseGraph(text)
	if err != nil {
		return
	}
	var rt GraphSpec
	jsonRoundTrip(t, s, &rt)
	again, err := ParseGraph(s.String())
	if err != nil || !reflect.DeepEqual(s, again) {
		t.Fatalf("String() re-parse: %q -> %#v (%v), want %#v", s.String(), again, err, s)
	}
	// Binding is guarded by size: fuzzed descriptors can describe graphs far
	// too large to build in a fuzz iteration, and Nodes() is metadata enough
	// to skip them (Bind would reject or build them identically anyway).
	if n, err := s.Nodes(); err != nil || n <= 0 || n > 128 {
		return
	}
	g1, err1 := s.Bind()
	g2, err2 := rt.Bind()
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("bind divergence: %v vs %v", err1, err2)
	}
	if err1 != nil {
		return
	}
	if g1.Name() != g2.Name() || g1.N() != g2.N() || g1.Degree() != g2.Degree() || g1.SelfLoops() != g2.SelfLoops() {
		t.Fatalf("bound graphs differ: %s vs %s", g1.Name(), g2.Name())
	}
}

func fuzzAlgo(t *testing.T, text string) {
	s, err := ParseAlgo(text)
	if err != nil {
		return
	}
	var rt AlgoSpec
	jsonRoundTrip(t, s, &rt)
	again, err := ParseAlgo(s.String())
	if err != nil || !reflect.DeepEqual(s, again) {
		t.Fatalf("String() re-parse: %q -> %#v (%v), want %#v", s.String(), again, err, s)
	}
	b, err := (GraphSpec{Kind: "cycle", Args: []int64{8}}).Bind()
	if err != nil {
		t.Fatal(err)
	}
	sp1, err1 := s.bind(b)
	sp2, err2 := rt.bind(b)
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("bind divergence: %v vs %v", err1, err2)
	}
	if err1 != nil {
		return
	}
	_, bindErr := s.Bind(b)
	if sp1.Model != nil {
		// Protocol kinds bind as models; Bind must refuse them.
		if s.Model != ModelProtocol {
			t.Fatalf("model kind %q normalized without the %q tag: %#v", s.Kind, ModelProtocol, s)
		}
		if bindErr == nil {
			t.Fatalf("Bind accepted model kind %q", s.Kind)
		}
		if sp1.Model.Name() != sp2.Model.Name() || sp1.Metric.Name() != sp2.Metric.Name() {
			t.Fatalf("bound models differ: %s/%s vs %s/%s",
				sp1.Model.Name(), sp1.Metric.Name(), sp2.Model.Name(), sp2.Metric.Name())
		}
		return
	}
	if bindErr != nil {
		t.Fatalf("Bind refused diffusion kind %q: %v", s.Kind, bindErr)
	}
	if sp1.Algorithm.Name() != sp2.Algorithm.Name() {
		t.Fatalf("bound algorithms differ: %s vs %s", sp1.Algorithm.Name(), sp2.Algorithm.Name())
	}
}

func fuzzWorkload(t *testing.T, text string) {
	s, err := ParseWorkload(text)
	if err != nil {
		return
	}
	var rt WorkloadSpec
	jsonRoundTrip(t, s, &rt)
	again, err := ParseWorkload(s.String())
	if err != nil || !reflect.DeepEqual(s, again) {
		t.Fatalf("String() re-parse: %q -> %#v (%v), want %#v", s.String(), again, err, s)
	}
	x1, err1 := s.Bind(16)
	x2, err2 := rt.Bind(16)
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("bind divergence: %v vs %v", err1, err2)
	}
	if err1 == nil && !reflect.DeepEqual(x1, x2) {
		t.Fatalf("bound workloads differ: %v vs %v", x1, x2)
	}
}

func fuzzSchedule(t *testing.T, text string) {
	s, err := ParseSchedule(text)
	if err != nil {
		return
	}
	var rt ScheduleSpec
	jsonRoundTrip(t, s, &rt)
	again, err := ParseSchedule(s.String())
	if err != nil || !reflect.DeepEqual(s, again) {
		t.Fatalf("String() re-parse: %q -> %#v (%v), want %#v", s.String(), again, err, s)
	}
	e1, err1 := s.Bind(16)
	e2, err2 := rt.Bind(16)
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("bind divergence: %v vs %v", err1, err2)
	}
	if err1 == nil && !reflect.DeepEqual(e1, e2) {
		t.Fatalf("bound schedules differ: %#v vs %#v", e1, e2)
	}
}

func fuzzTopology(t *testing.T, text string) {
	s, err := ParseTopology(text)
	if err != nil {
		return
	}
	var rt TopologySpec
	jsonRoundTrip(t, s, &rt)
	again, err := ParseTopology(s.String())
	if err != nil || !reflect.DeepEqual(s, again) {
		t.Fatalf("String() re-parse: %q -> %#v (%v), want %#v", s.String(), again, err, s)
	}
	e1, err1 := s.Bind(16)
	e2, err2 := rt.Bind(16)
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("bind divergence: %v vs %v", err1, err2)
	}
	if err1 == nil && !reflect.DeepEqual(e1, e2) {
		t.Fatalf("bound topologies differ: %#v vs %#v", e1, e2)
	}
}

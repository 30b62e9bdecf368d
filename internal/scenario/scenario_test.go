package scenario

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"detlb/internal/topology"
	"detlb/internal/workload"
)

// Malformed numeric arguments must be parse errors, never silent defaults:
// the historical atoi helper turned "cycle:abc" into a 64-cycle.
func TestParseRejectsMalformedNumerics(t *testing.T) {
	graphs := []string{"cycle:abc", "torus:4,x", "hypercube:3.5", "complete:1e3",
		"random:64,8,zzz", "gp:7,q", "kbipartite:#", "circulant:x,1+2", "circulant:16,1+x"}
	for _, spec := range graphs {
		if _, err := ParseGraph(spec); err == nil {
			t.Errorf("graph %q should fail to parse", spec)
		}
	}
	algos := []string{"good:x", "good:", "rand-extra:abc", "rand-round:1.5", "matching:seed"}
	for _, spec := range algos {
		if _, err := ParseAlgo(spec); err == nil {
			t.Errorf("algorithm %q should fail to parse", spec)
		}
	}
	workloads := []string{"point:x", "uniform:abc", "bimodal:0,hi", "random:10,y", "ramp:a,1"}
	for _, spec := range workloads {
		if _, err := ParseWorkload(spec); err == nil {
			t.Errorf("workload %q should fail to parse", spec)
		}
	}
	schedules := []string{"burst:x,0,10", "churn:8,64,s", "refill:10,1k", "drain:0,9,?"}
	for _, spec := range schedules {
		if _, err := ParseSchedule(spec); err == nil {
			t.Errorf("schedule %q should fail to parse", spec)
		}
	}
}

func TestParseRejectsExcessArgs(t *testing.T) {
	for _, c := range []struct{ domain, spec string }{
		{"graph", "petersen:5"},
		{"graph", "cycle:8,9"},
		{"graph", "circulant:16,1+2,7"},
		{"algo", "send-floor:1"},
		{"algo", "rotor-router:2"},
		{"workload", "point:10,20"},
		{"schedule", "burst:1,0,10,99"},
	} {
		var err error
		switch c.domain {
		case "graph":
			_, err = ParseGraph(c.spec)
		case "algo":
			_, err = ParseAlgo(c.spec)
		case "workload":
			_, err = ParseWorkload(c.spec)
		case "schedule":
			_, err = ParseSchedule(c.spec)
		}
		if err == nil {
			t.Errorf("%s %q should reject excess arguments", c.domain, c.spec)
		}
	}
}

// Parsing materializes every static default — including seeds — so a parsed
// descriptor is fully explicit and re-runs are bit-identical.
func TestParseMaterializesDefaults(t *testing.T) {
	cases := []struct {
		spec string
		want string
	}{
		{"cycle", "cycle:64"},
		{"cycle:", "cycle:64"},
		{"torus", "torus:16,2"},
		{"torus:4", "torus:4,2"},
		{"torus:,3", "torus:16,3"},
		{"random:64", "random:64,8,1"},
		{"random:64,8", "random:64,8,1"},
		{"petersen", "petersen"},
		{"circulant:16", "circulant:16,1+2"},
		{"circulant:16,3", "circulant:16,3"},
	}
	for _, c := range cases {
		g, err := ParseGraph(c.spec)
		if err != nil {
			t.Fatalf("%q: %v", c.spec, err)
		}
		if got := g.String(); got != c.want {
			t.Errorf("%q canonicalizes to %q, want %q", c.spec, got, c.want)
		}
	}
	a, err := ParseAlgo("rand-extra")
	if err != nil || a.String() != "rand-extra:1" {
		t.Errorf("rand-extra should materialize seed 1, got %v (%v)", a, err)
	}
	s, err := ParseSchedule("churn:8,64")
	if err != nil || s.String() != "churn:8,64,1" {
		t.Errorf("churn should materialize seed 1, got %v (%v)", s, err)
	}
	w, err := ParseWorkload("point")
	if err != nil || w.String() != "point" {
		t.Errorf("point's dynamic default must stay absent, got %v (%v)", w, err)
	}
	// A bare trailing colon is an empty argument list, valid on zero-arity
	// kinds too (historical CLI compat).
	for _, spec := range []string{"send-floor:", "petersen:", "mimic:"} {
		switch {
		case strings.HasPrefix(spec, "petersen"):
			if _, err := ParseGraph(spec); err != nil {
				t.Errorf("%q should parse: %v", spec, err)
			}
		default:
			if _, err := ParseAlgo(spec); err != nil {
				t.Errorf("%q should parse: %v", spec, err)
			}
		}
	}
	if alias, err := ParseAlgo("rotor-star"); err != nil || alias.Kind != "rotor-router*" {
		t.Errorf("rotor-star alias: %v (%v)", alias, err)
	}
}

func TestScheduleSpecRoundTripsThroughString(t *testing.T) {
	spec, err := ParseSchedule("burst:10,0,512+drain:20,40,2+churn:8,64,5")
	if err != nil {
		t.Fatal(err)
	}
	again, err := ParseSchedule(spec.String())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, again) {
		t.Fatalf("%v != %v", spec, again)
	}
	if none, err := ParseSchedule("none"); err != nil || none.String() != "none" {
		t.Fatalf("static schedule renders %q (%v)", none.String(), err)
	}
}

// Schedules mirror topologies: parse errors for malformed text, bind errors
// against the graph size for out-of-range nodes and descriptors that can
// never fire, nil for the static spellings, and the concrete workload value
// (a Compose for "+") for everything else.
func TestScheduleBindValidation(t *testing.T) {
	for _, spec := range []string{"burst:20,3", "quake:1,2,3", "burst:10,0,5+quake:1"} {
		if _, err := ParseSchedule(spec); err == nil {
			t.Errorf("schedule %q should fail to parse", spec)
		}
	}
	for _, spec := range []string{
		"burst:20,99,10", "periodic:5,-1,10", // node out of range
		"churn:0,256", "periodic:0,1,10", "burst:-5,0,10", // can never fire
		"drain:20,10,5", "drain:5,10,0", "refill:10,100,-5",
		"burst:20,0,0", "periodic:5,1,0", "refill:10,0", // zero amounts
	} {
		s, err := ParseSchedule(spec)
		if err != nil {
			t.Fatalf("%q should parse (bind rejects it): %v", spec, err)
		}
		if _, err := s.Bind(16); err == nil {
			t.Errorf("schedule %q should fail to bind on 16 nodes", spec)
		}
	}
	bind := func(spec string) workload.Schedule {
		t.Helper()
		s, err := ParseSchedule(spec)
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		sched, err := s.Bind(16)
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		return sched
	}
	for _, spec := range []string{"", "none", "none+none"} {
		if sched := bind(spec); sched != nil {
			t.Errorf("%q should bind to a nil (static) schedule, got %#v", spec, sched)
		}
	}
	for _, c := range []struct {
		spec string
		want workload.Schedule
	}{
		{"burst:20,3,4096", workload.Burst{Round: 20, Node: 3, Amount: 4096}},
		{"churn:10,256", workload.Churn{Every: 10, Amount: 256, Seed: 1}},
		{"refill:50,1024,25", workload.Refill{Round: 50, Amount: 1024, Every: 25}},
	} {
		if got := bind(c.spec); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%q bound to %#v, want %#v", c.spec, got, c.want)
		}
	}
	c, ok := bind("burst:10,0,512+drain:20,40,2+periodic:30,5,64").(workload.Compose)
	if !ok || len(c) != 3 {
		t.Fatalf("composition bound to %#v", c)
	}
	if _, ok := c[1].(workload.Drain); !ok {
		t.Fatalf("middle part = %#v", c[1])
	}
}

func TestTopologyGrammar(t *testing.T) {
	// Malformed numerics and excess arguments are parse errors, never
	// defaults, matching every other descriptor domain.
	for _, spec := range []string{
		"faillink:x,0,1", "faillink:1,0", "restorelink:1,0,1,9",
		"failnode:1,n", "flap:0,1,4", "partition:abc,8", "periodic-fault:6",
		"meteor:1,2,3",
	} {
		if _, err := ParseTopology(spec); err == nil {
			t.Errorf("topology %q should fail to parse", spec)
		}
	}
	// Static defaults (seed, duty, heal, redistribute) are materialized.
	for _, c := range []struct{ spec, want string }{
		{"periodic-fault:6,2", "periodic-fault:6,2,1"},
		{"flap:0,1,4,8", "flap:0,1,4,8,0"},
		{"partition:5,8", "partition:5,8,0"},
		{"failnode:2,5", "failnode:2,5,0"},
		{"none", "none"},
		{"", "none"},
	} {
		s, err := ParseTopology(c.spec)
		if err != nil {
			t.Fatalf("%q: %v", c.spec, err)
		}
		if got := s.String(); got != c.want {
			t.Errorf("%q canonicalizes to %q, want %q", c.spec, got, c.want)
		}
	}
	spec, err := ParseTopology("flap:0,1,4,8,3+partition:5,8,20+periodic-fault:6,2,9")
	if err != nil {
		t.Fatal(err)
	}
	again, err := ParseTopology(spec.String())
	if err != nil || !reflect.DeepEqual(spec, again) {
		t.Fatalf("String() re-parse: %v != %v (%v)", spec, again, err)
	}
}

func TestTopologyBindValidation(t *testing.T) {
	// Bind-time validation against the graph size: out-of-range nodes and
	// can-never-fire descriptors are rejected, not silently pristine.
	for _, spec := range []string{
		"faillink:1,0,16", "restorelink:1,16,0", "failnode:1,99",
		"restorenode:1,-1", "failnode:1,5,2", "flap:0,16,4,8",
		"flap:0,1,4,8,9", "partition:5,16", "partition:5,0",
		"partition:10,8,10", "periodic-fault:0,2", "faillink:-1,0,1",
	} {
		s, err := ParseTopology(spec)
		if err != nil {
			t.Fatalf("%q should parse (bind rejects it): %v", spec, err)
		}
		if _, err := s.Bind(16); err == nil {
			t.Errorf("topology %q should fail to bind on 16 nodes", spec)
		}
	}
	// A pristine spec binds to nil; a composition binds to a Compose.
	none, err := ParseTopology("none")
	if err != nil {
		t.Fatal(err)
	}
	if sched, err := none.Bind(16); err != nil || sched != nil {
		t.Fatalf("pristine bind: %v (%v)", sched, err)
	}
	composed, err := ParseTopology("flap:0,1,4,8+partition:5,8,20")
	if err != nil {
		t.Fatal(err)
	}
	sched, err := composed.Bind(16)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sched.(topology.Compose); !ok {
		t.Fatalf("composed spec bound to %T, want topology.Compose", sched)
	}
}

// Topologies are the innermost cross-product dimension, and a bound faulted
// cell carries its schedule through to the RunSpec.
func TestFamilyTopologyCrossProduct(t *testing.T) {
	fam, err := ParseFamily("cycle:16", "rotor-router", "point:64", "none;burst:5,0,32", "none;partition:5,8,20")
	if err != nil {
		t.Fatal(err)
	}
	specs, cells, err := fam.Bind()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("expected 2 schedules × 2 topologies = 4 cells, got %d", len(cells))
	}
	// Innermost: topology varies fastest.
	wantTopos := []string{"none", "partition:5,8,20", "none", "partition:5,8,20"}
	wantScheds := []string{"none", "none", "burst:5,0,32", "burst:5,0,32"}
	for i := range cells {
		if cells[i].Topology.String() != wantTopos[i] || cells[i].Schedule.String() != wantScheds[i] {
			t.Fatalf("cell %d is (%s, %s), want (%s, %s)", i,
				cells[i].Schedule.String(), cells[i].Topology.String(), wantScheds[i], wantTopos[i])
		}
		if (specs[i].Topology != nil) != (wantTopos[i] != "none") {
			t.Fatalf("cell %d bound Topology %v for spec %q", i, specs[i].Topology, wantTopos[i])
		}
	}
}

func TestFamilyJSONRoundTripIsStable(t *testing.T) {
	fam, err := ParseFamily(
		"hypercube:4;cycle:32",
		"send-floor;rand-extra:7",
		"point:160;bimodal:0,16",
		"none;burst:10,0,512",
		"none;flap:0,1,5,8,3",
	)
	if err != nil {
		t.Fatal(err)
	}
	fam.Run = RunParams{Rounds: 50, SampleEvery: 10, Target: targetPtr(0)}

	var buf1 bytes.Buffer
	if err := fam.Write(&buf1); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fam, loaded) {
		t.Fatalf("load(write(f)) != f:\n%+v\n%+v", fam, loaded)
	}
	var buf2 bytes.Buffer
	if err := loaded.Write(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatalf("serialization not stable:\n%s\n---\n%s", buf1.Bytes(), buf2.Bytes())
	}
}

func TestLoadRejectsUnknownFieldsAndVersions(t *testing.T) {
	if _, err := Load(strings.NewReader(`{"graphs":[],"algos":[],"workloads":[],"grpahs":[]}`)); err == nil {
		t.Fatal("typo'd field should be rejected")
	}
	if _, err := Load(strings.NewReader(`{"version":99,"graphs":[],"algos":[],"workloads":[]}`)); err == nil {
		t.Fatal("future version should be rejected")
	}
	if f, err := Load(strings.NewReader(`{"graphs":[{"kind":"cycle"}],"algos":[{"kind":"send-floor"}],"workloads":[{"kind":"point"}]}`)); err != nil {
		t.Fatalf("versionless file should load as version 1: %v", err)
	} else if f.Version != 1 {
		t.Fatalf("version = %d", f.Version)
	}
}

func TestFamilyExpansionOrder(t *testing.T) {
	fam, err := ParseFamily("cycle:8;petersen", "send-floor;rotor-router", "point:64", "none;burst:5,0,32", "")
	if err != nil {
		t.Fatal(err)
	}
	cells := fam.Scenarios()
	if len(cells) != 8 {
		t.Fatalf("expected 8 cells, got %d", len(cells))
	}
	// Graphs outermost, schedules innermost — the historical lbsweep order.
	want := []string{
		"cycle:8|send-floor|none", "cycle:8|send-floor|burst:5,0,32",
		"cycle:8|rotor-router|none", "cycle:8|rotor-router|burst:5,0,32",
		"petersen|send-floor|none", "petersen|send-floor|burst:5,0,32",
		"petersen|rotor-router|none", "petersen|rotor-router|burst:5,0,32",
	}
	for i, c := range cells {
		got := c.Graph.String() + "|" + c.Algo.String() + "|" + c.Schedule.String()
		if got != want[i] {
			t.Errorf("cell %d = %q, want %q", i, got, want[i])
		}
	}
}

// Binding shares one balancing graph per graph descriptor and one algorithm
// instance per (graph, algorithm) pair — the sweep's grouping identities.
func TestBindScenariosShares(t *testing.T) {
	fam, err := ParseFamily("cycle:16", "rotor-router", "point:64;uniform:4", "none;burst:5,0,32", "")
	if err != nil {
		t.Fatal(err)
	}
	specs, cells, err := fam.Bind()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 4 || len(cells) != 4 {
		t.Fatalf("expected 4 specs, got %d", len(specs))
	}
	for i := 1; i < len(specs); i++ {
		if specs[i].Balancing != specs[0].Balancing {
			t.Errorf("spec %d does not share the balancing graph", i)
		}
		if specs[i].Algorithm != specs[0].Algorithm {
			t.Errorf("spec %d does not share the algorithm instance", i)
		}
	}
	// Workloads shared per (graph, workload): specs 0,1 share x1, 2,3 share
	// the other; and the two must differ.
	if &specs[0].Initial[0] != &specs[1].Initial[0] || &specs[2].Initial[0] != &specs[3].Initial[0] {
		t.Error("specs of the same workload descriptor should share x1")
	}
	if &specs[0].Initial[0] == &specs[2].Initial[0] {
		t.Error("distinct workload descriptors must not share x1")
	}
	// The static cells bind nil schedules; the burst cells bind Burst values.
	if specs[0].Events != nil || specs[1].Events == nil {
		t.Errorf("schedule binding: %v / %v", specs[0].Events, specs[1].Events)
	}
	if b, ok := specs[1].Events.(workload.Burst); !ok || b.Amount != 32 {
		t.Errorf("bound schedule = %#v", specs[1].Events)
	}
}

// A static scenario survives the singleton-family round trip as a DeepEqual
// identity: the expansion fallback uses the same empty-but-non-nil canonical
// schedule normalization produces.
func TestStaticScenarioFamilyRoundTrip(t *testing.T) {
	cell := Scenario{
		Graph:    GraphSpec{Kind: "cycle", Args: []int64{8}},
		Algo:     AlgoSpec{Kind: "send-floor"},
		Workload: WorkloadSpec{Kind: "point", Args: []int64{64}},
		Run:      RunParams{Rounds: 10},
	}
	if err := cell.Normalize(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cell.Family().Write(&buf); err != nil {
		t.Fatal(err)
	}
	fam, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	cells := fam.Scenarios()
	if len(cells) != 1 {
		t.Fatalf("expected 1 cell, got %d", len(cells))
	}
	if !reflect.DeepEqual(cell, cells[0]) {
		t.Fatalf("static cell lost canonical form:\n%#v\n%#v", cell, cells[0])
	}
}

func TestBindRunParams(t *testing.T) {
	cell := Scenario{
		Graph:    GraphSpec{Kind: "cycle", Args: []int64{8}},
		Algo:     AlgoSpec{Kind: "send-floor"},
		Workload: WorkloadSpec{Kind: "point", Args: []int64{64}},
		Run: RunParams{
			Rounds: 40, HorizonMultiple: 2, Patience: 9,
			Workers: 3, SampleEvery: 5, Target: targetPtr(0),
		},
	}
	spec, err := cell.Bind()
	if err != nil {
		t.Fatal(err)
	}
	if spec.MaxRounds != 40 || spec.HorizonMultiple != 2 || spec.Patience != 9 ||
		spec.Workers != 3 || spec.SampleEvery != 5 {
		t.Fatalf("run params not mapped: %+v", spec)
	}
	if spec.TargetDiscrepancy == nil || *spec.TargetDiscrepancy != 0 {
		t.Fatalf("target 0 must survive binding, got %v", spec.TargetDiscrepancy)
	}
	if spec.TargetDiscrepancy == cell.Run.Target {
		t.Fatal("bound target must be a fresh pointer, not the descriptor's")
	}
}

// Constructor panics (family validation) surface as errors, so one bad
// descriptor cannot kill a loop over many scenarios.
func TestBindContainsConstructorPanics(t *testing.T) {
	bad := []GraphSpec{
		{Kind: "cycle", Args: []int64{2}},          // n < 3 panics in graph.Cycle
		{Kind: "torus", Args: []int64{1, 2}},       // side < 3
		{Kind: "random", Args: []int64{16, 17, 1}}, // d >= n
	}
	for _, g := range bad {
		if _, err := g.Bind(); err == nil {
			t.Errorf("%v should fail to bind", g)
		}
	}
	if _, err := (ScheduleSpec{{Kind: "burst", Args: []int64{5, 99, 32}}}).Bind(16); err == nil {
		t.Error("out-of-range shock node should fail to bind")
	}
	if _, err := (WorkloadSpec{Kind: "random", Args: []int64{-5, 1}}).Bind(8); err == nil {
		t.Error("negative random max should fail to bind")
	}
}

func TestGraphSpecNodes(t *testing.T) {
	cases := []struct {
		spec string
		n    int
	}{
		{"cycle:12", 12}, {"torus:4,3", 64}, {"hypercube:5", 32},
		{"complete:9", 9}, {"petersen", 10}, {"gp:7,2", 14},
		{"kbipartite:4", 8}, {"circulant:16,1+3", 16}, {"random:32,4,2", 32},
	}
	for _, c := range cases {
		g, err := ParseGraph(c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		n, err := g.Nodes()
		if err != nil || n != c.n {
			t.Errorf("%s: Nodes() = %d (%v), want %d", c.spec, n, err, c.n)
		}
		b, err := g.Bind()
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		if b.N() != c.n {
			t.Errorf("%s: bound n = %d, want %d", c.spec, b.N(), c.n)
		}
	}
}

func TestGraphSelfLoops(t *testing.T) {
	g, err := ParseGraph("cycle:8")
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Bind()
	if err != nil {
		t.Fatal(err)
	}
	if b.SelfLoops() != 2 {
		t.Fatalf("nil SelfLoops should bind lazily (d° = d = 2), got %d", b.SelfLoops())
	}
	zero := 0
	g.SelfLoops = &zero
	b, err = g.Bind()
	if err != nil {
		t.Fatal(err)
	}
	if b.SelfLoops() != 0 {
		t.Fatalf("explicit d° = 0 must survive, got %d", b.SelfLoops())
	}
	neg := -1
	g.SelfLoops = &neg
	if _, err := g.Bind(); err == nil {
		t.Fatal("negative self-loops should fail")
	}
}

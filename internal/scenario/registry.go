package scenario

import (
	"fmt"
	"math"

	"detlb/internal/analysis"
	"detlb/internal/balancer"
	"detlb/internal/core"
	"detlb/internal/graph"
	"detlb/internal/protocol"
	"detlb/internal/topology"
	"detlb/internal/workload"
)

// The constructor registry: one entry per descriptor kind in each of the four
// domains, carrying the argument grammar (names, defaults, which are
// required) and the builder that binds normalized arguments into the live
// object. Both front-ends — the text mini-language and JSON files — validate
// against the same entries, so the two grammars cannot drift apart.

// argMode classifies one positional argument of a descriptor kind.
type argMode int

const (
	// argRequired must be supplied explicitly.
	argRequired argMode = iota
	// argDefault is filled in by normalization when absent.
	argDefault
	// argDynamic has a default that depends on the bound graph (e.g.
	// point's total = 8n) and stays absent until bind time. Dynamic
	// arguments must be last in an entry's grammar.
	argDynamic
)

type argDef struct {
	name string
	def  int64
	mode argMode
}

func req(name string) argDef            { return argDef{name: name, mode: argRequired} }
func opt(name string, def int64) argDef { return argDef{name: name, def: def, mode: argDefault} }
func dyn(name string) argDef            { return argDef{name: name, mode: argDynamic} }

// normalizeArgs validates args against defs, materializing defaults for
// absent trailing arguments. what names the descriptor for error messages.
func normalizeArgs(what string, args []int64, defs []argDef) ([]int64, error) {
	if len(args) > len(defs) {
		return nil, fmt.Errorf("%s takes at most %d arguments, got %d", what, len(defs), len(args))
	}
	out := make([]int64, 0, len(defs))
	out = append(out, args...)
	for i := len(args); i < len(defs); i++ {
		switch defs[i].mode {
		case argRequired:
			return nil, fmt.Errorf("%s needs argument %q", what, defs[i].name)
		case argDefault:
			out = append(out, defs[i].def)
		case argDynamic:
			// Left absent: bound against the graph later.
			return emptyAsNil(out), nil
		}
	}
	return emptyAsNil(out), nil
}

// emptyAsNil keeps "no arguments" canonical as nil, matching what a JSON
// round trip of an omitempty field produces.
func emptyAsNil(args []int64) []int64 {
	if len(args) == 0 {
		return nil
	}
	return args
}

// graphEntry describes one graph family.
type graphEntry struct {
	args []argDef
	// offsets reports whether the kind accepts the circulant offset list.
	offsets bool
	// nodes computes n from normalized args, without building the graph.
	nodes func(a []int64) int
	// degree computes d from normalized args and offsets, without building
	// the graph — with nodes, the sizing metadata (arcs = n·d) admission
	// control caps on.
	degree func(a []int64, offsets []int) int
	// build constructs the graph; family constructors panic on invalid
	// parameters, which Bind converts to errors.
	build func(a []int64, offsets []int) *graph.Graph
}

var graphRegistry = map[string]graphEntry{
	"cycle": {
		args:   []argDef{opt("n", 64)},
		nodes:  func(a []int64) int { return int(a[0]) },
		degree: func([]int64, []int) int { return 2 },
		build:  func(a []int64, _ []int) *graph.Graph { return graph.Cycle(int(a[0])) },
	},
	"torus": {
		args: []argDef{opt("side", 16), opt("r", 2)},
		nodes: func(a []int64) int {
			// Clamp instead of looping or overflowing on absurd descriptors;
			// Bind rejects them anyway, and Nodes is only sizing metadata.
			if a[0] < 3 || a[1] < 1 || a[1] > 62 {
				return math.MaxInt32
			}
			n := 1
			for i := int64(0); i < a[1]; i++ {
				n *= int(a[0])
				if n > math.MaxInt32 {
					return math.MaxInt32
				}
			}
			return n
		},
		build:  func(a []int64, _ []int) *graph.Graph { return graph.Torus(int(a[1]), int(a[0])) },
		degree: func(a []int64, _ []int) int { return 2 * int(a[1]) },
	},
	"hypercube": {
		args: []argDef{opt("r", 8)},
		nodes: func(a []int64) int {
			if a[0] < 1 || a[0] > 30 {
				return math.MaxInt32
			}
			return 1 << uint(a[0])
		},
		build:  func(a []int64, _ []int) *graph.Graph { return graph.Hypercube(int(a[0])) },
		degree: func(a []int64, _ []int) int { return int(a[0]) },
	},
	"complete": {
		args:   []argDef{opt("n", 16)},
		nodes:  func(a []int64) int { return int(a[0]) },
		degree: func(a []int64, _ []int) int { return int(a[0]) - 1 },
		build:  func(a []int64, _ []int) *graph.Graph { return graph.Complete(int(a[0])) },
	},
	"random": {
		args:   []argDef{opt("n", 256), opt("d", 8), opt("seed", 1)},
		nodes:  func(a []int64) int { return int(a[0]) },
		degree: func(a []int64, _ []int) int { return int(a[1]) },
		build: func(a []int64, _ []int) *graph.Graph {
			return graph.RandomRegular(int(a[0]), int(a[1]), a[2])
		},
	},
	"petersen": {
		nodes:  func([]int64) int { return 10 },
		degree: func([]int64, []int) int { return 3 },
		build:  func([]int64, []int) *graph.Graph { return graph.Petersen() },
	},
	"gp": {
		args:   []argDef{opt("n", 5), opt("k", 2)},
		nodes:  func(a []int64) int { return 2 * int(a[0]) },
		degree: func([]int64, []int) int { return 3 },
		build: func(a []int64, _ []int) *graph.Graph {
			return graph.GeneralizedPetersen(int(a[0]), int(a[1]))
		},
	},
	"kbipartite": {
		args:   []argDef{opt("k", 8)},
		nodes:  func(a []int64) int { return 2 * int(a[0]) },
		degree: func(a []int64, _ []int) int { return int(a[0]) },
		build:  func(a []int64, _ []int) *graph.Graph { return graph.CompleteBipartite(int(a[0])) },
	},
	"circulant": {
		args:    []argDef{opt("n", 32)},
		offsets: true,
		nodes:   func(a []int64) int { return int(a[0]) },
		degree:  func(_ []int64, offsets []int) int { return 2 * len(offsets) },
		build:   func(a []int64, offsets []int) *graph.Graph { return graph.Circulant(int(a[0]), offsets) },
	},
}

func normalizeGraph(s GraphSpec) (GraphSpec, error) {
	e, ok := graphRegistry[s.Kind]
	if !ok {
		return s, fmt.Errorf("unknown graph %q", s.Kind)
	}
	args, err := normalizeArgs("graph "+s.Kind, s.Args, e.args)
	if err != nil {
		return s, err
	}
	s.Args = args
	if !e.offsets && len(s.Offsets) > 0 {
		return s, fmt.Errorf("graph %s takes no offsets", s.Kind)
	}
	if e.offsets && len(s.Offsets) == 0 {
		s.Offsets = []int{1, 2}
	}
	if s.SelfLoops != nil && *s.SelfLoops < 0 {
		return s, fmt.Errorf("graph %s: negative self-loop count %d", s.Kind, *s.SelfLoops)
	}
	return s, nil
}

// Nodes returns n for the described graph without constructing it — graph
// families fix n from their arguments alone.
func (s GraphSpec) Nodes() (int, error) {
	s, err := normalizeGraph(s)
	if err != nil {
		return 0, err
	}
	return graphRegistry[s.Kind].nodes(s.Args), nil
}

// Arcs estimates the described graph's directed arc count, n·d, without
// constructing it. Engine memory is proportional to arcs, so this is the
// sizing metadata admission control (the serving layer) caps on before
// binding a descriptor. Clamped, never negative; absurd descriptors are
// rejected by Bind — Arcs only has to be large for them, not exact.
func (s GraphSpec) Arcs() (int64, error) {
	s, err := normalizeGraph(s)
	if err != nil {
		return 0, err
	}
	e := graphRegistry[s.Kind]
	n := int64(e.nodes(s.Args))
	d := int64(e.degree(s.Args, s.Offsets))
	if n <= 0 || d <= 0 {
		return 0, nil
	}
	if n > math.MaxInt64/d {
		return math.MaxInt64, nil
	}
	return n * d, nil
}

// BindGraph constructs the described graph G.
func (s GraphSpec) BindGraph() (g *graph.Graph, err error) {
	s, err = normalizeGraph(s)
	if err != nil {
		return nil, err
	}
	defer recoverTo(&err, "graph "+s.String())
	return graphRegistry[s.Kind].build(s.Args, s.Offsets), nil
}

// Bind constructs the balancing graph G+ the descriptor describes, attaching
// d° self-loops (lazy d° = d when SelfLoops is nil).
func (s GraphSpec) Bind() (*graph.Balancing, error) {
	g, err := s.BindGraph()
	if err != nil {
		return nil, err
	}
	loops := g.Degree()
	if s.SelfLoops != nil {
		loops = *s.SelfLoops
	}
	return graph.NewBalancing(g, loops)
}

// algoEntry describes one balancer kind.
type algoEntry struct {
	args  []argDef
	build func(a []int64, b *graph.Balancing) core.Balancer
}

var algoRegistry = map[string]algoEntry{
	"send-floor": {build: func([]int64, *graph.Balancing) core.Balancer { return balancer.NewSendFloor() }},
	"send-round": {build: func([]int64, *graph.Balancing) core.Balancer { return balancer.NewSendRound() }},
	"rotor-router": {
		build: func([]int64, *graph.Balancing) core.Balancer { return balancer.NewRotorRouter() },
	},
	"rotor-router*": {
		build: func([]int64, *graph.Balancing) core.Balancer { return balancer.NewRotorRouterStar() },
	},
	"good": {
		args:  []argDef{req("s")},
		build: func(a []int64, _ *graph.Balancing) core.Balancer { return balancer.NewGoodS(int(a[0])) },
	},
	"biased": {build: func([]int64, *graph.Balancing) core.Balancer { return balancer.NewBiasedRounding() }},
	"rand-extra": {
		args:  []argDef{opt("seed", 1)},
		build: func(a []int64, _ *graph.Balancing) core.Balancer { return balancer.NewRandomizedExtra(a[0]) },
	},
	"rand-round": {
		args:  []argDef{opt("seed", 1)},
		build: func(a []int64, _ *graph.Balancing) core.Balancer { return balancer.NewRandomizedRounding(a[0]) },
	},
	"mimic": {build: func([]int64, *graph.Balancing) core.Balancer { return balancer.NewContinuousMimic() }},
	"bounded-error": {
		build: func([]int64, *graph.Balancing) core.Balancer { return balancer.NewBoundedError() },
	},
	"matching": {
		args: []argDef{opt("seed", 1)},
		build: func(a []int64, b *graph.Balancing) core.Balancer {
			return balancer.NewMatchingBalancer(balancer.EdgeColoringScheduler(b.Graph()), false, a[0])
		},
	},
	"matching-rand": {
		args: []argDef{opt("seed", 1)},
		build: func(a []int64, b *graph.Balancing) core.Balancer {
			return balancer.NewMatchingBalancer(balancer.NewRandomMatchingScheduler(b.Graph(), a[0]), true, a[0])
		},
	},
}

// protocolEntry describes one population-protocol model kind. build returns
// the sweep-groupable builder together with the convergence metric the family
// is judged by — the pair BindScenarios threads into RunSpec.Model/Metric.
type protocolEntry struct {
	args  []argDef
	build func(a []int64, b *graph.Balancing) (core.ModelBuilder, core.Metric)
}

var protocolRegistry = map[string]protocolEntry{
	"majority": {
		// Well-mixed 4-state exact majority; the graph contributes the agent
		// count (and result labeling), not the interaction structure.
		args: []argDef{opt("seed", 1)},
		build: func(a []int64, b *graph.Balancing) (core.ModelBuilder, core.Metric) {
			return protocol.NewMajority(b.N(), uint64(a[0])), protocol.Unconverged
		},
	},
	"herman": {
		// Herman's self-stabilizing token ring over the node indices.
		args: []argDef{opt("seed", 1)},
		build: func(a []int64, b *graph.Balancing) (core.ModelBuilder, core.Metric) {
			return protocol.NewHerman(uint64(a[0])), protocol.Tokens
		},
	},
}

func normalizeAlgo(s AlgoSpec) (AlgoSpec, error) {
	if s.Kind == "rotor-star" { // historical alias
		s.Kind = "rotor-router*"
	}
	if s.Model != "" && s.Model != ModelProtocol {
		return s, fmt.Errorf("unknown algorithm model %q (supported: %q)", s.Model, ModelProtocol)
	}
	if e, ok := protocolRegistry[s.Kind]; ok {
		args, err := normalizeArgs("algorithm "+s.Kind, s.Args, e.args)
		if err != nil {
			return s, err
		}
		s.Args = args
		s.Model = ModelProtocol
		return s, nil
	}
	if s.Model == ModelProtocol {
		return s, fmt.Errorf("algorithm %q is not a %s model", s.Kind, ModelProtocol)
	}
	e, ok := algoRegistry[s.Kind]
	if !ok {
		return s, fmt.Errorf("unknown algorithm %q", s.Kind)
	}
	args, err := normalizeArgs("algorithm "+s.Kind, s.Args, e.args)
	if err != nil {
		return s, err
	}
	s.Args = args
	return s, nil
}

// Bind instantiates the balancer against the balancing graph b (matching
// schedulers need the graph). Every call returns a fresh instance:
// algorithms that keep per-run state on the instance (mimic, bounded-error,
// matching) must not be shared across concurrently running engines. Protocol
// kinds are models, not balancers; they bind through BindScenarios.
func (s AlgoSpec) Bind(b *graph.Balancing) (core.Balancer, error) {
	spec, err := s.bind(b)
	if err == nil && spec.Model != nil {
		err = fmt.Errorf("algorithm %s is a %s model, not a balancer", s.String(), ModelProtocol)
	}
	return spec.Algorithm, err
}

// bind instantiates the descriptor against b as the simulator fields of a
// RunSpec: Algorithm for a diffusion kind, or Model and Metric for a protocol
// kind. Model builders are stateless descriptors (models are instantiated
// per run by the harness), so one bound builder may back every cell of a
// sweep — the identity analysis.Sweep groups model specs on.
func (s AlgoSpec) bind(b *graph.Balancing) (spec analysis.RunSpec, err error) {
	s, err = normalizeAlgo(s)
	if err != nil {
		return spec, err
	}
	defer recoverTo(&err, "algorithm "+s.String())
	if s.Model == ModelProtocol {
		spec.Model, spec.Metric = protocolRegistry[s.Kind].build(s.Args, b)
	} else {
		spec.Algorithm = algoRegistry[s.Kind].build(s.Args, b)
	}
	return spec, nil
}

// workloadEntry describes one initial-load generator.
type workloadEntry struct {
	args  []argDef
	build func(a []int64, n int) []int64
}

var workloadRegistry = map[string]workloadEntry{
	"point": {
		// The default total 8n depends on the graph, so it stays dynamic.
		args: []argDef{dyn("total")},
		build: func(a []int64, n int) []int64 {
			total := int64(8 * n)
			if len(a) > 0 {
				total = a[0]
			}
			return workload.PointMass(n, 0, total)
		},
	},
	"uniform": {
		args:  []argDef{opt("each", 8)},
		build: func(a []int64, n int) []int64 { return workload.Uniform(n, a[0]) },
	},
	"bimodal": {
		args:  []argDef{opt("lo", 0), opt("hi", 64)},
		build: func(a []int64, n int) []int64 { return workload.Bimodal(n, a[0], a[1]) },
	},
	"random": {
		args:  []argDef{opt("max", 64), opt("seed", 1)},
		build: func(a []int64, n int) []int64 { return workload.Random(n, a[0], a[1]) },
	},
	"ramp": {
		args:  []argDef{opt("base", 0), opt("step", 1)},
		build: func(a []int64, n int) []int64 { return workload.Ramp(n, a[0], a[1]) },
	},
	"opinions": {
		// The default — a one-vote strong majority — depends on n, so it
		// stays dynamic like point's total.
		args: []argDef{dyn("a")},
		build: func(a []int64, n int) []int64 {
			count := int64(n/2 + 1)
			if len(a) > 0 {
				count = a[0]
			}
			return workload.Opinions(n, count)
		},
	},
	"tokens": {
		args:  []argDef{opt("count", 3), opt("seed", 1)},
		build: func(a []int64, n int) []int64 { return workload.Tokens(n, a[0], a[1]) },
	},
}

func normalizeWorkload(s WorkloadSpec) (WorkloadSpec, error) {
	e, ok := workloadRegistry[s.Kind]
	if !ok {
		return s, fmt.Errorf("unknown workload %q", s.Kind)
	}
	args, err := normalizeArgs("workload "+s.Kind, s.Args, e.args)
	if err != nil {
		return s, err
	}
	s.Args = args
	return s, nil
}

// Bind generates the initial load vector for an n-node graph.
func (s WorkloadSpec) Bind(n int) (x []int64, err error) {
	s, err = normalizeWorkload(s)
	if err != nil {
		return nil, err
	}
	defer recoverTo(&err, "workload "+s.String())
	return workloadRegistry[s.Kind].build(s.Args, n), nil
}

// scheduleEntry describes one dynamic-workload shock shape.
type scheduleEntry struct {
	args []argDef
	// build validates the part against the n-node graph and constructs the
	// schedule. A part that can never fire (bad cadence, negative round,
	// empty window) is almost certainly a typo'd experiment: it is rejected
	// instead of silently producing a static run labeled as dynamic.
	build func(a []int64, n int) (workload.Schedule, error)
}

var scheduleRegistry = map[string]scheduleEntry{
	"burst": {
		args: []argDef{req("round"), req("node"), req("amount")},
		build: func(a []int64, n int) (workload.Schedule, error) {
			if err := checkScheduleNode("burst", a[1], n); err != nil {
				return nil, err
			}
			if a[0] < 0 || a[2] == 0 {
				return nil, cantFire("burst", "negative round or zero amount")
			}
			return workload.Burst{Round: int(a[0]), Node: int(a[1]), Amount: a[2]}, nil
		},
	},
	"drain": {
		args: []argDef{req("from"), req("to"), req("pernode")},
		build: func(a []int64, n int) (workload.Schedule, error) {
			if a[1] < a[0] || a[2] <= 0 {
				return nil, cantFire("drain", "empty window or non-positive per-node amount")
			}
			return workload.Drain{From: int(a[0]), To: int(a[1]), PerNode: a[2]}, nil
		},
	},
	"periodic": {
		args: []argDef{req("every"), req("node"), req("amount")},
		build: func(a []int64, n int) (workload.Schedule, error) {
			if err := checkScheduleNode("periodic", a[1], n); err != nil {
				return nil, err
			}
			if a[0] <= 0 || a[2] == 0 {
				return nil, cantFire("periodic", "non-positive cadence or zero amount")
			}
			return workload.Periodic{Every: int(a[0]), Node: int(a[1]), Amount: a[2]}, nil
		},
	},
	"churn": {
		args: []argDef{req("every"), req("amount"), opt("seed", 1)},
		build: func(a []int64, n int) (workload.Schedule, error) {
			if a[0] <= 0 || a[1] <= 0 {
				return nil, cantFire("churn", "non-positive cadence or amount")
			}
			return workload.Churn{Every: int(a[0]), Amount: a[1], Seed: uint64(a[2])}, nil
		},
	},
	"refill": {
		args: []argDef{req("round"), req("amount"), opt("every", 0)},
		build: func(a []int64, n int) (workload.Schedule, error) {
			if a[0] < 0 || a[2] < 0 || a[1] == 0 {
				return nil, cantFire("refill", "negative round or cadence, or zero amount")
			}
			return workload.Refill{Round: int(a[0]), Amount: a[1], Every: int(a[2])}, nil
		},
	},
}

func cantFire(kind, why string) error {
	return fmt.Errorf("schedule %q can never fire: %s", kind, why)
}

func checkScheduleNode(kind string, node int64, n int) error {
	if node < 0 || node >= int64(n) {
		return fmt.Errorf("schedule %q: node %d out of range [0,%d)", kind, node, n)
	}
	return nil
}

func normalizeSchedule(s ScheduleSpec) (ScheduleSpec, error) {
	if len(s) == 0 {
		// Normalized static schedules are empty but non-nil, so they
		// serialize as [] rather than null.
		return ScheduleSpec{}, nil
	}
	out := make(ScheduleSpec, len(s))
	for i, p := range s {
		e, ok := scheduleRegistry[p.Kind]
		if !ok {
			return nil, fmt.Errorf("unknown schedule %q", p.Kind)
		}
		args, err := normalizeArgs("schedule "+p.Kind, p.Args, e.args)
		if err != nil {
			return nil, err
		}
		out[i] = SchedulePart{Kind: p.Kind, Args: args}
	}
	return out, nil
}

// Bind validates the schedule against an n-node graph and constructs it: nil
// for a static run, the bare part for a single-part spec, a workload.Compose
// for a composition.
func (s ScheduleSpec) Bind(n int) (workload.Schedule, error) {
	s, err := normalizeSchedule(s)
	if err != nil {
		return nil, err
	}
	var composed workload.Compose
	for _, p := range s {
		one, err := scheduleRegistry[p.Kind].build(p.Args, n)
		if err != nil {
			return nil, err
		}
		composed = append(composed, one)
	}
	switch len(composed) {
	case 0:
		return nil, nil
	case 1:
		return composed[0], nil
	default:
		return composed, nil
	}
}

// topologyEntry describes one fault-injection schedule shape.
type topologyEntry struct {
	args []argDef
	// build validates the part against the n-node graph and constructs the
	// schedule. Like the workload schedules, a part that can never fire (bad
	// cadence, out-of-range node, degenerate boundary) is rejected instead of
	// silently producing a pristine run labeled as faulted.
	build func(a []int64, n int) (topology.Schedule, error)
}

var topologyRegistry = map[string]topologyEntry{
	"faillink": {
		args: []argDef{req("round"), req("u"), req("v")},
		build: func(a []int64, n int) (topology.Schedule, error) {
			if err := checkTopologyLink("faillink", a[0], a[1], a[2], n); err != nil {
				return nil, err
			}
			return topology.FailLinks{Round: int(a[0]), Links: [][2]int{{int(a[1]), int(a[2])}}}, nil
		},
	},
	"restorelink": {
		args: []argDef{req("round"), req("u"), req("v")},
		build: func(a []int64, n int) (topology.Schedule, error) {
			if err := checkTopologyLink("restorelink", a[0], a[1], a[2], n); err != nil {
				return nil, err
			}
			return topology.RestoreLinks{Round: int(a[0]), Links: [][2]int{{int(a[1]), int(a[2])}}}, nil
		},
	},
	"failnode": {
		args: []argDef{req("round"), req("node"), opt("redistribute", 0)},
		build: func(a []int64, n int) (topology.Schedule, error) {
			if err := checkTopologyNode("failnode", a[1], n); err != nil {
				return nil, err
			}
			if a[0] < 0 {
				return nil, cantFireTopology("failnode", "negative round")
			}
			if a[2] != 0 && a[2] != 1 {
				return nil, fmt.Errorf("topology \"failnode\": redistribute must be 0 or 1, got %d", a[2])
			}
			return topology.FailNodes{Round: int(a[0]), Nodes: []int{int(a[1])}, Redistribute: a[2] == 1}, nil
		},
	},
	"restorenode": {
		args: []argDef{req("round"), req("node")},
		build: func(a []int64, n int) (topology.Schedule, error) {
			if err := checkTopologyNode("restorenode", a[1], n); err != nil {
				return nil, err
			}
			if a[0] < 0 {
				return nil, cantFireTopology("restorenode", "negative round")
			}
			return topology.RestoreNodes{Round: int(a[0]), Nodes: []int{int(a[1])}}, nil
		},
	},
	"flap": {
		args: []argDef{req("u"), req("v"), req("from"), req("period"), opt("duty", 0)},
		build: func(a []int64, n int) (topology.Schedule, error) {
			if err := checkTopologyNode("flap", a[0], n); err != nil {
				return nil, err
			}
			if err := checkTopologyNode("flap", a[1], n); err != nil {
				return nil, err
			}
			if a[2] < 0 || a[3] <= 0 {
				return nil, cantFireTopology("flap", "negative start or non-positive period")
			}
			if a[4] < 0 || a[4] >= a[3] {
				return nil, fmt.Errorf("topology \"flap\": duty %d outside [0,%d) (0 = half the period)", a[4], a[3])
			}
			return topology.Flap{
				Link: [2]int{int(a[0]), int(a[1])}, From: int(a[2]), Period: int(a[3]), Duty: int(a[4]),
			}, nil
		},
	},
	"partition": {
		args: []argDef{req("round"), req("boundary"), opt("heal", 0)},
		build: func(a []int64, n int) (topology.Schedule, error) {
			if a[0] < 0 {
				return nil, cantFireTopology("partition", "negative round")
			}
			if a[1] <= 0 || a[1] >= int64(n) {
				return nil, fmt.Errorf("topology \"partition\": boundary %d outside (0,%d)", a[1], n)
			}
			if a[2] != 0 && a[2] <= a[0] {
				return nil, cantFireTopology("partition", "heal round not after the cut")
			}
			return topology.Partition{Round: int(a[0]), Boundary: int(a[1]), Heal: int(a[2])}, nil
		},
	},
	"periodic-fault": {
		args: []argDef{req("every"), req("down"), opt("seed", 1)},
		build: func(a []int64, n int) (topology.Schedule, error) {
			if a[0] <= 0 || a[1] <= 0 {
				return nil, cantFireTopology("periodic-fault", "non-positive cadence or downtime")
			}
			return topology.Periodic{Every: int(a[0]), Down: int(a[1]), Seed: uint64(a[2])}, nil
		},
	},
}

func cantFireTopology(kind, why string) error {
	return fmt.Errorf("topology %q can never fire: %s", kind, why)
}

func checkTopologyNode(kind string, node int64, n int) error {
	if node < 0 || node >= int64(n) {
		return fmt.Errorf("topology %q: node %d out of range [0,%d)", kind, node, n)
	}
	return nil
}

func checkTopologyLink(kind string, round, u, v int64, n int) error {
	if round < 0 {
		return cantFireTopology(kind, "negative round")
	}
	if err := checkTopologyNode(kind, u, n); err != nil {
		return err
	}
	return checkTopologyNode(kind, v, n)
}

func normalizeTopology(s TopologySpec) (TopologySpec, error) {
	if len(s) == 0 {
		// Normalized pristine topologies are empty but non-nil, so they
		// serialize as [] rather than null, matching normalizeSchedule.
		return TopologySpec{}, nil
	}
	out := make(TopologySpec, len(s))
	for i, p := range s {
		e, ok := topologyRegistry[p.Kind]
		if !ok {
			return nil, fmt.Errorf("unknown topology %q", p.Kind)
		}
		args, err := normalizeArgs("topology "+p.Kind, p.Args, e.args)
		if err != nil {
			return nil, err
		}
		out[i] = TopologyPart{Kind: p.Kind, Args: args}
	}
	return out, nil
}

// Bind validates the topology schedule against an n-node graph and constructs
// it: nil for a pristine run, the bare part for a single-part spec, a
// topology.Compose for a composition (parts overlay; the engine's
// failure-wins ordering resolves same-round conflicts).
func (s TopologySpec) Bind(n int) (topology.Schedule, error) {
	s, err := normalizeTopology(s)
	if err != nil {
		return nil, err
	}
	var composed topology.Compose
	for _, p := range s {
		one, err := topologyRegistry[p.Kind].build(p.Args, n)
		if err != nil {
			return nil, err
		}
		composed = append(composed, one)
	}
	switch len(composed) {
	case 0:
		return nil, nil
	case 1:
		return composed[0], nil
	default:
		return composed, nil
	}
}

// BindScenarios binds a list of scenario cells into RunSpecs, sharing one
// balancing graph per distinct graph descriptor, one algorithm instance (or
// model builder) per (graph, algorithm) descriptor pair, and one initial
// vector per (graph, workload) pair — exactly the identities analysis.Sweep
// groups on, so a bound family builds each graph once, like hand-wired
// specs.
func BindScenarios(cells []Scenario) ([]analysis.RunSpec, error) {
	specs := make([]analysis.RunSpec, len(cells))
	graphs := map[string]*graph.Balancing{}
	algos := map[string]analysis.RunSpec{}
	loads := map[string][]int64{}
	for i := range cells {
		cell := cells[i]
		if err := cell.Normalize(); err != nil {
			return nil, err
		}
		gKey := cell.Graph.String() + selfLoopKey(cell.Graph.SelfLoops)
		b, ok := graphs[gKey]
		if !ok {
			var err error
			b, err = cell.Graph.Bind()
			if err != nil {
				return nil, err
			}
			graphs[gKey] = b
		}
		aKey := gKey + "|" + cell.Algo.String()
		spec, ok := algos[aKey]
		if !ok {
			var err error
			spec, err = cell.Algo.bind(b)
			if err != nil {
				return nil, err
			}
			algos[aKey] = spec
		}
		if spec.Model != nil && (len(cell.Schedule) > 0 || len(cell.Topology) > 0) {
			return nil, fmt.Errorf(
				"algorithm %s is a %s model; workload and topology schedules only apply to diffusion runs",
				cell.Algo.String(), ModelProtocol)
		}
		wKey := gKey + "|" + cell.Workload.String()
		x1, ok := loads[wKey]
		if !ok {
			var err error
			x1, err = cell.Workload.Bind(b.N())
			if err != nil {
				return nil, err
			}
			loads[wKey] = x1
		}
		events, err := cell.Schedule.Bind(b.N())
		if err != nil {
			return nil, err
		}
		faults, err := cell.Topology.Bind(b.N())
		if err != nil {
			return nil, err
		}
		spec.Balancing = b
		spec.Initial = x1
		spec.MaxRounds = cell.Run.Rounds
		spec.HorizonMultiple = cell.Run.HorizonMultiple
		spec.Patience = cell.Run.Patience
		spec.Workers = cell.Run.Workers
		spec.SampleEvery = cell.Run.SampleEvery
		spec.Events = events
		spec.Topology = faults
		if cell.Run.Target != nil {
			spec.TargetDiscrepancy = analysis.Target(*cell.Run.Target)
		}
		specs[i] = spec
	}
	return specs, nil
}

func selfLoopKey(loops *int) string {
	if loops == nil {
		return ""
	}
	return fmt.Sprintf("+%dloops", *loops)
}

// recoverTo converts a constructor panic (family constructors validate by
// panicking) into a descriptive error, so one malformed descriptor cannot
// kill a loop over many scenarios.
func recoverTo(err *error, what string) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("%s: %v", what, r)
	}
}

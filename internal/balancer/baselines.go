package balancer

import (
	"fmt"
	"math/rand"

	"detlb/internal/core"
	"detlb/internal/graph"
)

// BiasedRounding is the in-class adversary for the Rabani-Sinclair-Wanka
// framework [17]: it is round-fair — every edge receives ⌊x/d⁺⌋ or ⌈x/d⁺⌉ —
// but persistently favours the lowest-indexed original edges with the excess
// tokens, so it is not cumulatively δ-fair for any constant δ. Theorem 4.1
// shows schemes like this can get stuck at discrepancy Ω(d·diam); the
// experiments use it to demonstrate that dropping cumulative fairness
// costs real discrepancy.
type BiasedRounding struct{}

var _ core.Balancer = BiasedRounding{}
var _ core.Stateless = BiasedRounding{}

// NewBiasedRounding returns the biased round-fair baseline.
func NewBiasedRounding() BiasedRounding { return BiasedRounding{} }

// Name implements core.Balancer.
func (BiasedRounding) Name() string { return "biased-rounding" }

// IsStateless implements core.Stateless.
func (BiasedRounding) IsStateless() bool { return true }

// Bind implements core.Balancer.
func (BiasedRounding) Bind(b *graph.Balancing) []core.NodeBalancer {
	nodes := make([]core.NodeBalancer, b.N())
	shared := &biasedNode{d: b.Degree(), selfLoops: b.SelfLoops(), dplus: b.DegreePlus()}
	for u := range nodes {
		nodes[u] = shared
	}
	return nodes
}

type biasedNode struct {
	d, selfLoops, dplus int
}

func (n *biasedNode) Distribute(load int64, sends, selfLoops []int64) {
	if load < 0 {
		for i := range sends {
			sends[i] = 0
		}
		return
	}
	base := load / int64(n.dplus)
	excess := int(load % int64(n.dplus))
	for i := range sends {
		sends[i] = base
	}
	if selfLoops != nil {
		for j := range selfLoops {
			selfLoops[j] = base
		}
	}
	// Excess always goes to original edges first, in index order.
	for k := 0; k < excess; k++ {
		if k < n.d {
			sends[k]++
		} else if selfLoops != nil {
			selfLoops[k-n.d]++
		}
	}
}

// RandomizedExtra is the randomized diffusion of Berenbrink, Cooper,
// Friedetzky, Friedrich and Sauerwald [5] adapted to the balancing graph:
// every slot (edge or self-loop) receives the base ⌊x/d⁺⌋ and each of the
// x mod d⁺ excess tokens is sent over an independently uniform random slot.
// Not round-fair (a slot may collect several extras), never negative.
// Seeded per node, so runs are reproducible.
type RandomizedExtra struct {
	// Seed derives every node's PRNG stream.
	Seed int64
}

var _ core.Balancer = (*RandomizedExtra)(nil)

// NewRandomizedExtra returns the [5]-style randomized baseline.
func NewRandomizedExtra(seed int64) *RandomizedExtra { return &RandomizedExtra{Seed: seed} }

// Name implements core.Balancer.
func (r *RandomizedExtra) Name() string { return "randomized-extra" }

// Bind implements core.Balancer.
func (r *RandomizedExtra) Bind(b *graph.Balancing) []core.NodeBalancer {
	nodes := make([]core.NodeBalancer, b.N())
	for u := range nodes {
		nodes[u] = &randomExtraNode{
			d:     b.Degree(),
			dplus: b.DegreePlus(),
			rng:   rand.New(rand.NewSource(nodeSeed(r.Seed, u))),
		}
	}
	return nodes
}

type randomExtraNode struct {
	d, dplus int
	rng      *rand.Rand
}

func (n *randomExtraNode) Distribute(load int64, sends, selfLoops []int64) {
	if load < 0 {
		for i := range sends {
			sends[i] = 0
		}
		return
	}
	base := load / int64(n.dplus)
	excess := int(load % int64(n.dplus))
	for i := range sends {
		sends[i] = base
	}
	if selfLoops != nil {
		for j := range selfLoops {
			selfLoops[j] = base
		}
	}
	for k := 0; k < excess; k++ {
		slot := n.rng.Intn(n.dplus)
		if slot < n.d {
			sends[slot]++
		} else if selfLoops != nil {
			selfLoops[slot-n.d]++
		}
	}
}

// RandomizedRounding is the edge-wise randomized rounding of Sauerwald and
// Sun [18]: the continuous per-edge flow x/d⁺ is rounded up with probability
// equal to its fractional part, independently per original edge. The row in
// Table 1 notes it can produce negative load (a node may promise more than
// it holds); the engine permits this and experiments count the events.
type RandomizedRounding struct {
	// Seed derives every node's PRNG stream.
	Seed int64
}

var _ core.Balancer = (*RandomizedRounding)(nil)

// NewRandomizedRounding returns the [18]-style randomized baseline.
func NewRandomizedRounding(seed int64) *RandomizedRounding {
	return &RandomizedRounding{Seed: seed}
}

// Name implements core.Balancer.
func (r *RandomizedRounding) Name() string { return "randomized-rounding" }

// Bind implements core.Balancer.
func (r *RandomizedRounding) Bind(b *graph.Balancing) []core.NodeBalancer {
	nodes := make([]core.NodeBalancer, b.N())
	for u := range nodes {
		nodes[u] = &randomRoundingNode{
			dplus: b.DegreePlus(),
			rng:   rand.New(rand.NewSource(nodeSeed(r.Seed, u))),
		}
	}
	return nodes
}

type randomRoundingNode struct {
	dplus int
	rng   *rand.Rand
}

func (n *randomRoundingNode) Distribute(load int64, sends, selfLoops []int64) {
	base := core.FloorShare(load, n.dplus)
	rem := load - base*int64(n.dplus) // fractional numerator in [0, d⁺)
	p := float64(rem) / float64(n.dplus)
	for i := range sends {
		sends[i] = base
		if n.rng.Float64() < p {
			sends[i]++
		}
	}
	if selfLoops == nil {
		return
	}
	// Report retained load spread over self-loops for completeness; the
	// scheme itself gives no self-loop guarantee and may retain a negative
	// remainder, which is recorded on the first self-loop.
	var out int64
	for _, s := range sends {
		out += s
	}
	rest := load - out
	if len(selfLoops) == 0 {
		return
	}
	for j := range selfLoops {
		selfLoops[j] = 0
	}
	selfLoops[0] = rest
}

// nodeSeed mixes a base seed with a node id into a distinct, stable PRNG
// seed per node (splitmix64 finalizer).
func nodeSeed(seed int64, u int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(u+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// FixedFlow replays a precomputed, time-invariant flow f(e) over every
// original arc in every round, ignoring the actual loads. It is the vehicle
// for Theorem 4.1's steady-state construction, where such a flow is
// simultaneously round-fair with respect to the (stationary) loads and stuck
// at discrepancy Ω(d·diam). Constructing valid instances is the job of the
// lowerbound package.
type FixedFlow struct {
	// Flow[u][i] is the token count sent over u's i-th original edge each
	// round.
	Flow [][]int64
	// Label names the construction in tables.
	Label string
}

var _ core.Balancer = (*FixedFlow)(nil)

// NewFixedFlow wraps a per-arc constant flow as a balancer.
func NewFixedFlow(label string, flow [][]int64) *FixedFlow {
	return &FixedFlow{Flow: flow, Label: label}
}

// Name implements core.Balancer.
func (f *FixedFlow) Name() string {
	if f.Label != "" {
		return f.Label
	}
	return "fixed-flow"
}

// Bind implements core.Balancer.
func (f *FixedFlow) Bind(b *graph.Balancing) []core.NodeBalancer {
	if len(f.Flow) != b.N() {
		panic(fmt.Sprintf("balancer: fixed flow covers %d nodes, graph has %d", len(f.Flow), b.N()))
	}
	nodes := make([]core.NodeBalancer, b.N())
	for u := range nodes {
		if len(f.Flow[u]) != b.Degree() {
			panic(fmt.Sprintf("balancer: fixed flow at node %d covers %d edges, degree is %d",
				u, len(f.Flow[u]), b.Degree()))
		}
		nodes[u] = &planNode{plan: f.Flow[u]}
	}
	return nodes
}

// planNode sends a row of a centrally computed per-arc plan and spreads the
// rest of its load as evenly as possible over its self-loops. The scheme
// gives no per-self-loop guarantee: the balancers that plan centrally
// (fixed-flow, matching, bounded-error, continuous-mimic) are not in the
// cumulatively-fair class.
type planNode struct {
	plan []int64
}

// planNodes binds one planNode per node over its row plan[u*d : (u+1)*d] of
// a flat plan indexed by arc position.
func planNodes(plan []int64, d int) []core.NodeBalancer {
	nodes := make([]core.NodeBalancer, len(plan)/d)
	for u := range nodes {
		nodes[u] = &planNode{plan: plan[u*d : (u+1)*d]}
	}
	return nodes
}

func (n *planNode) Distribute(load int64, sends, selfLoops []int64) {
	copy(sends, n.plan)
	if len(selfLoops) == 0 {
		return
	}
	var out int64
	for _, s := range sends {
		out += s
	}
	rest := load - out
	base := core.FloorShare(rest, len(selfLoops))
	extra := rest - base*int64(len(selfLoops))
	for j := range selfLoops {
		selfLoops[j] = base
		if int64(j) < extra {
			selfLoops[j]++
		}
	}
}

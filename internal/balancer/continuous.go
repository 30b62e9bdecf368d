package balancer

import (
	"math"

	"detlb/internal/core"
	"detlb/internal/graph"
)

// Continuous simulates the continuous diffusion process x_{t+1} = P·x_t on
// the balancing graph — the Markov chain both the paper's analyses compare
// the discrete schemes against. Loads are real-valued and split exactly:
// every original edge carries x_t(u)/d⁺ flow per round.
type Continuous struct {
	b    *graph.Balancing
	x    []float64
	next []float64
	// flows[u][i] is the cumulative continuous flow over u's i-th original
	// edge, the quantity the [4] baseline mimics.
	flows [][]float64
	round int
}

// NewContinuous starts the continuous process from the integer load vector x1.
func NewContinuous(b *graph.Balancing, x1 []int64) *Continuous {
	c := &Continuous{
		b:    b,
		x:    make([]float64, b.N()),
		next: make([]float64, b.N()),
	}
	for i, v := range x1 {
		c.x[i] = float64(v)
	}
	c.flows = make([][]float64, b.N())
	for u := range c.flows {
		c.flows[u] = make([]float64, b.Degree())
	}
	return c
}

// Round returns the number of completed rounds.
func (c *Continuous) Round() int { return c.round }

// Loads returns the current real-valued load vector (shared; do not modify).
func (c *Continuous) Loads() []float64 { return c.x }

// Flows returns the cumulative continuous per-arc flows (shared).
func (c *Continuous) Flows() [][]float64 { return c.flows }

// Step advances one round of continuous diffusion.
func (c *Continuous) Step() {
	g := c.b.Graph()
	n := g.N()
	dplus := float64(c.b.DegreePlus())
	for u := 0; u < n; u++ {
		share := c.x[u] / dplus
		fu := c.flows[u]
		for i := range fu {
			fu[i] += share
		}
	}
	// The inflow sum walks the flat reverse index; RevArcSrc gives each
	// in-arc's source node directly.
	d := g.Degree()
	src := g.RevArcSrc()
	selfShare := float64(c.b.SelfLoops())
	for v := 0; v < n; v++ {
		sum := c.x[v] * selfShare
		base := v * d
		for k := base; k < base+d; k++ {
			sum += c.x[src[k]]
		}
		c.next[v] = sum / dplus
	}
	c.x, c.next = c.next, c.x
	c.round++
}

// Discrepancy returns max − min of the continuous load vector.
func (c *Continuous) Discrepancy() float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range c.x {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return hi - lo
}

// RunUntil advances until the discrepancy drops to at most eps or maxRounds
// elapse, returning the number of rounds executed. It is the empirical
// counterpart of the balancing time T = O(log(Kn)/µ).
func (c *Continuous) RunUntil(eps float64, maxRounds int) int {
	for i := 0; i < maxRounds; i++ {
		if c.Discrepancy() <= eps {
			return i
		}
		c.Step()
	}
	return maxRounds
}

// ContinuousMimic is the algorithm of Akbari, Berenbrink and Sauerwald [4]
// (Table 1's "computation based on continuous diffusion"): it tracks, for
// every original edge, the cumulative flow the continuous process would have
// sent and forwards in each round the difference between that cumulative
// value rounded to the nearest integer and what it has already sent. This
// keeps every |F_discrete − F_continuous| ≤ 1/2 and yields discrepancy
// Θ(d) after T rounds — at the price of simulating the continuous process
// (extra computation/communication) and possibly driving loads negative,
// which Table 1 records against it.
type ContinuousMimic struct {
	b    *graph.Balancing
	cont *Continuous
	sent [][]int64 // discrete cumulative flow per arc
	plan [][]int64 // sends planned for the current round
}

var _ core.Balancer = (*ContinuousMimic)(nil)
var _ core.RoundObserver = (*ContinuousMimic)(nil)

// NewContinuousMimic returns the [4] baseline. The instance is bound to a
// single engine run (it carries per-run continuous state).
func NewContinuousMimic() *ContinuousMimic { return &ContinuousMimic{} }

// Name implements core.Balancer.
func (m *ContinuousMimic) Name() string { return "continuous-mimic" }

// Bind implements core.Balancer.
func (m *ContinuousMimic) Bind(b *graph.Balancing) []core.NodeBalancer {
	m.b = b
	m.sent = make([][]int64, b.N())
	m.plan = make([][]int64, b.N())
	for u := range m.sent {
		m.sent[u] = make([]int64, b.Degree())
		m.plan[u] = make([]int64, b.Degree())
	}
	nodes := make([]core.NodeBalancer, b.N())
	for u := range nodes {
		nodes[u] = &planNode{plan: m.plan[u]}
	}
	return nodes
}

// BeginRound implements core.RoundObserver: it advances the shadow continuous
// process and plans this round's sends as round(F_cont) − F_sent per arc.
func (m *ContinuousMimic) BeginRound(round int, loads []int64) {
	if round == 1 {
		m.cont = NewContinuous(m.b, loads)
	}
	m.cont.Step()
	for u := range m.plan {
		cf := m.cont.Flows()[u]
		for i := range m.plan[u] {
			target := int64(math.Round(cf[i]))
			m.plan[u][i] = target - m.sent[u][i]
			m.sent[u][i] = target
		}
	}
}

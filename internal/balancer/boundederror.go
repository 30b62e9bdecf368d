package balancer

import (
	"math"

	"detlb/internal/core"
	"detlb/internal/graph"
)

// BoundedError is the quasirandom diffusion of Friedrich, Gairing and
// Sauerwald [9], discussed in the paper's related work: for every undirected
// edge it tracks the cumulative flow the continuous diffusion would have
// sent (net flow (x_u − x_v)/d⁺ per round) and forwards the difference
// between that value rounded to the nearest integer and what it has already
// forwarded. The per-edge rounding error never exceeds 1/2 in absolute value
// — the "bounded-error property" — which yields O(log^{3/2} n) discrepancy
// on hypercubes and O(1) on constant-dimension tori.
//
// Costs the paper's Table 1 would charge it: each pair must exchange load
// values every round (additional communication), and the demanded flow can
// exceed the sender's holdings, producing negative load. Both are observable
// through the usual auditors.
type BoundedError struct {
	b    *graph.Balancing
	acc  []float64 // cumulative continuous net flow per undirected edge
	sent []int64   // cumulative discrete net flow per undirected edge
	plan []int64   // sends planned for the current round, by arc position

	edges   []int32 // canonical arc positions (tail < head)
	reverse []int32 // reverse[e] = position of the opposite arc of edges[e]
}

var _ core.Balancer = (*BoundedError)(nil)
var _ core.RoundObserver = (*BoundedError)(nil)

// NewBoundedError returns the [9] baseline. The instance is bound to a
// single engine run.
func NewBoundedError() *BoundedError { return &BoundedError{} }

// Name implements core.Balancer.
func (q *BoundedError) Name() string { return "bounded-error" }

// Bind implements core.Balancer.
func (q *BoundedError) Bind(b *graph.Balancing) []core.NodeBalancer {
	q.b = b
	g := b.Graph()
	d := g.Degree()
	q.plan = make([]int64, b.N()*d)
	q.edges = q.edges[:0]
	q.reverse = q.reverse[:0]
	for p, v := range g.Heads() {
		if int(v) > p/d {
			q.edges = append(q.edges, int32(p))
			q.reverse = append(q.reverse, int32(reverseArcPos(g, p)))
		}
	}
	q.acc = make([]float64, len(q.edges))
	q.sent = make([]int64, len(q.edges))
	return planNodes(q.plan, d)
}

// BeginRound implements core.RoundObserver: accumulate the continuous net
// flow of each edge and plan the integer send that keeps the cumulative
// discrete flow within 1/2 of it.
func (q *BoundedError) BeginRound(round int, loads []int64) {
	heads, d := q.b.Graph().Heads(), q.b.Degree()
	dplus := float64(q.b.DegreePlus())
	clear(q.plan)
	for e, p := range q.edges {
		u, v := int(p)/d, heads[p]
		q.acc[e] += (float64(loads[u]) - float64(loads[v])) / dplus
		want := int64(math.Round(q.acc[e]))
		s := want - q.sent[e]
		q.sent[e] = want
		switch {
		case s > 0:
			q.plan[p] += s
		case s < 0:
			q.plan[q.reverse[e]] += -s
		}
	}
}

// MaxAbsError reports the largest |cumulative continuous − discrete| over
// all edges — the bounded-error property says it never exceeds 1/2.
func (q *BoundedError) MaxAbsError() float64 {
	worst := 0.0
	for e := range q.acc {
		worst = math.Max(worst, math.Abs(q.acc[e]-float64(q.sent[e])))
	}
	return worst
}

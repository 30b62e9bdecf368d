package balancer

import (
	"fmt"
	"math/rand"

	"detlb/internal/core"
	"detlb/internal/graph"
)

// The matching (dimension-exchange) model is the related-work counterpoint
// the paper discusses in Section 1.2: nodes balance with a single neighbor
// per round, which allows constant (instead of Θ(d)) final discrepancy.
// This file implements the two standard variants as an extension so the
// experiment harness can contrast models: the periodic balancing circuit
// (e.g. hypercube dimensions in round-robin) and the random matching model,
// with the randomized rounding of Friedrich and Sauerwald [10] (round the
// half-difference up or down with probability 1/2) or deterministic
// round-down.

// MatchingScheduler yields, for each round, a matching: a set of disjoint
// arcs designating the edge each matched pair balances over, each named by
// its position p = u*d + i. Arcs are canonical (u smaller than the neighbor)
// to avoid double-listing a pair.
type MatchingScheduler interface {
	// Matching returns the positions of the arcs active in the given round
	// (1-based). The result must describe a valid matching of the original
	// graph.
	Matching(round int) []int32
}

// PeriodicMatchings cycles through a fixed list of matchings — the
// "balancing circuit" model. For a hypercube, EdgeColoringScheduler produces
// the canonical dimension-per-round circuit.
type PeriodicMatchings struct {
	Rounds [][]int32
}

// Matching implements MatchingScheduler.
func (p *PeriodicMatchings) Matching(round int) []int32 {
	return p.Rounds[(round-1)%len(p.Rounds)]
}

// EdgeColoringScheduler greedily colors the original edges of g so that the
// colors partition E into matchings, then cycles through the color classes.
// Greedy coloring on a d-regular graph uses at most 2d−1 colors; structured
// graphs typically end up near d (hypercubes exactly at d). Each parallel
// copy of an edge is an edge of its own and gets its own color, so a pair
// joined twice balances over one copy per matching, never over both at once.
func EdgeColoringScheduler(g *graph.Graph) *PeriodicMatchings {
	d, heads := g.Degree(), g.Heads()
	stride := 2 * d
	used := make([]bool, g.N()*stride) // used[u*stride+c]: color c is taken at u
	var rounds [][]int32
	for p, v := range heads {
		u := p / d
		if int(v) < u {
			continue
		}
		c := 0
		for used[u*stride+c] || used[int(v)*stride+c] {
			c++
		}
		used[u*stride+c] = true
		used[int(v)*stride+c] = true
		if c == len(rounds) {
			rounds = append(rounds, nil)
		}
		rounds[c] = append(rounds[c], int32(p))
	}
	return &PeriodicMatchings{Rounds: rounds}
}

// RandomMatchingScheduler samples a fresh maximal matching every round by
// scanning edges in a seeded random order — the "random matching model".
type RandomMatchingScheduler struct {
	g    *graph.Graph
	seed int64
	rng  *rand.Rand

	arcs    []int32 // canonical arc positions, shuffled in place each round
	matched []bool
}

// NewRandomMatchingScheduler builds a seeded random-matching source for g.
func NewRandomMatchingScheduler(g *graph.Graph, seed int64) *RandomMatchingScheduler {
	s := &RandomMatchingScheduler{
		g:       g,
		seed:    seed,
		rng:     rand.New(rand.NewSource(seed)),
		matched: make([]bool, g.N()),
	}
	s.restart()
	return s
}

// restart puts the scheduler back in its constructor state: the seed's first
// draw next and the arcs in canonical order.
func (s *RandomMatchingScheduler) restart() {
	s.rng.Seed(s.seed)
	s.arcs = s.arcs[:0]
	for p, v := range s.g.Heads() {
		if int(v) > p/s.g.Degree() {
			s.arcs = append(s.arcs, int32(p))
		}
	}
}

// Matching implements MatchingScheduler. Round 1 restarts the scheduler, so
// every run draws the same matchings whatever ran on it before.
func (s *RandomMatchingScheduler) Matching(round int) []int32 {
	if round == 1 {
		s.restart()
	}
	clear(s.matched)
	s.rng.Shuffle(len(s.arcs), func(i, j int) { s.arcs[i], s.arcs[j] = s.arcs[j], s.arcs[i] })
	heads, d := s.g.Heads(), s.g.Degree()
	out := make([]int32, 0, s.g.N()/2)
	for _, p := range s.arcs {
		u, v := int(p)/d, heads[p]
		if s.matched[u] || s.matched[v] {
			continue
		}
		s.matched[u] = true
		s.matched[v] = true
		out = append(out, p)
	}
	return out
}

// MatchingBalancer runs the dimension-exchange process: in every round each
// matched pair (u, v) moves ⌊Δ/2⌋ or ⌈Δ/2⌉ tokens (Δ the load difference)
// from the heavier to the lighter endpoint. With RandomizedOdd the odd token
// moves with probability 1/2 ([10]); otherwise the difference is rounded
// down deterministically.
//
// Note: this model requires each pair to exchange load values — "additional
// communication" in Table 1's sense — which the engine accommodates through
// the RoundObserver hook.
type MatchingBalancer struct {
	Scheduler     MatchingScheduler
	RandomizedOdd bool
	Seed          int64

	b    *graph.Balancing
	rng  *rand.Rand
	plan []int64 // sends planned for the current round, by arc position
}

var _ core.Balancer = (*MatchingBalancer)(nil)
var _ core.RoundObserver = (*MatchingBalancer)(nil)

// NewMatchingBalancer returns a dimension-exchange balancer over the given
// matching source. The instance is bound to a single engine run.
func NewMatchingBalancer(s MatchingScheduler, randomizedOdd bool, seed int64) *MatchingBalancer {
	return &MatchingBalancer{Scheduler: s, RandomizedOdd: randomizedOdd, Seed: seed}
}

// Name implements core.Balancer.
func (m *MatchingBalancer) Name() string {
	if m.RandomizedOdd {
		return "matching-randomized"
	}
	return "matching-deterministic"
}

// Bind implements core.Balancer.
func (m *MatchingBalancer) Bind(b *graph.Balancing) []core.NodeBalancer {
	m.b = b
	m.rng = rand.New(rand.NewSource(m.Seed))
	m.plan = make([]int64, b.N()*b.Degree())
	return planNodes(m.plan, b.Degree())
}

// BeginRound implements core.RoundObserver.
func (m *MatchingBalancer) BeginRound(round int, loads []int64) {
	clear(m.plan)
	g := m.b.Graph()
	heads, d := g.Heads(), g.Degree()
	for _, p := range m.Scheduler.Matching(round) {
		u, v := int(p)/d, heads[p]
		diff := loads[u] - loads[v]
		switch {
		case diff > 0:
			m.plan[p] = m.half(diff)
		case diff < 0:
			// Transfers toward u go over the reverse arc v -> u.
			m.plan[reverseArcPos(g, int(p))] = m.half(-diff)
		}
	}
}

// half rounds diff/2, randomizing the odd token if configured.
func (m *MatchingBalancer) half(diff int64) int64 {
	h := diff / 2
	if diff%2 != 0 && m.RandomizedOdd && m.rng.Intn(2) == 0 {
		h++
	}
	return h
}

// reverseArcPos returns the position of the arc v -> u paired with the arc
// at position p = u*d+i, whose head is v. For parallel edges the k-th copy
// of u -> v pairs with the k-th copy of v -> u, deterministically.
func reverseArcPos(g *graph.Graph, p int) int {
	d, heads := g.Degree(), g.Heads()
	u, v := p/d, heads[p]
	copyNo := 0
	for q := u * d; q < p; q++ {
		if heads[q] == v {
			copyNo++
		}
	}
	for q := int(v) * d; q < int(v+1)*d; q++ {
		if int(heads[q]) == u {
			if copyNo == 0 {
				return q
			}
			copyNo--
		}
	}
	panic(fmt.Sprintf("balancer: no reverse arc %d->%d", v, u))
}

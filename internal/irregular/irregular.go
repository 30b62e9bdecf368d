// Package irregular extends the balancing model to non-regular graphs — the
// generalization the paper states its results carry over to ("our results
// can be extended to non-regular graphs", Section 1.1).
//
// On an irregular graph the random walk P(u,v) = 1/d⁺(u) is no longer
// doubly stochastic: its stationary distribution is proportional to d⁺(u),
// so the balanced state of the diffusion is not the uniform load but the
// degree-proportional fair share
//
//	target(u) = m · d⁺(u) / Σ_v d⁺(v).
//
// The package provides the graph type with per-node degrees, the lazy
// balancing graph with d°(u) = d(u) self-loops, a synchronous engine, the
// degree-aware SEND(⌊x/d⁺(u)⌋) and ROTOR-ROUTER algorithms, the continuous
// diffusion, and the relative discrepancy max x(u)/d⁺(u) − min x(u)/d⁺(u)
// that replaces the regular case's max − min.
package irregular

import (
	"errors"
	"fmt"

	"detlb/internal/graph"
)

// Graph is a symmetric directed multigraph with arbitrary per-node degrees
// (no self-arcs; self-loops are modeled by Balancing).
type Graph struct {
	name string
	adj  [][]int
	rev  [][]arc
}

type arc struct {
	from  int
	index int
}

// New validates and copies an adjacency list with graph.CheckSymmetric:
// every arc must have a symmetric partner and no node may list itself.
func New(name string, adj [][]int) (*Graph, error) {
	if len(adj) == 0 {
		return nil, errors.New("irregular: empty adjacency list")
	}
	if err := graph.CheckSymmetric(adj); err != nil {
		return nil, fmt.Errorf("irregular %s: %w", name, err)
	}
	g := &Graph{name: name, adj: make([][]int, len(adj))}
	for u := range adj {
		g.adj[u] = append([]int(nil), adj[u]...)
	}
	return g, nil
}

// MustNew is New, panicking on error.
func MustNew(name string, adj [][]int) *Graph {
	g, err := New(name, adj)
	if err != nil {
		panic(err)
	}
	return g
}

// Name returns the graph's label.
func (g *Graph) Name() string { return g.name }

// N returns the node count.
func (g *Graph) N() int { return len(g.adj) }

// Degree returns d(u).
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// Neighbors returns u's ordered out-neighbors (shared; do not modify).
func (g *Graph) Neighbors(u int) []int { return g.adj[u] }

// MaxDegree returns max_u d(u).
func (g *Graph) MaxDegree() int {
	best := 0
	for u := range g.adj {
		if len(g.adj[u]) > best {
			best = len(g.adj[u])
		}
	}
	return best
}

// IsConnected reports reachability of all nodes from node 0.
func (g *Graph) IsConnected() bool {
	seen := make([]bool, g.N())
	queue := []int{0}
	seen[0] = true
	visited := 1
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if !seen[v] {
				seen[v] = true
				visited++
				queue = append(queue, v)
			}
		}
	}
	return visited == g.N()
}

func (g *Graph) reverseIndex() [][]arc {
	if g.rev != nil {
		return g.rev
	}
	rev := make([][]arc, g.N())
	for u := range g.adj {
		for i, v := range g.adj[u] {
			rev[v] = append(rev[v], arc{from: u, index: i})
		}
	}
	g.rev = rev
	return rev
}

// Balancing attaches per-node self-loops: d°(u) self-loops at node u, giving
// d⁺(u) = d(u) + d°(u).
type Balancing struct {
	g     *Graph
	loops []int
}

// Lazy attaches d°(u) = d(u) self-loops everywhere (the natural analogue of
// the paper's default).
func Lazy(g *Graph) *Balancing {
	loops := make([]int, g.N())
	for u := range loops {
		loops[u] = g.Degree(u)
	}
	return &Balancing{g: g, loops: loops}
}

// WithLoops attaches explicit per-node self-loop counts.
func WithLoops(g *Graph, loops []int) (*Balancing, error) {
	if len(loops) != g.N() {
		return nil, fmt.Errorf("irregular: %d loop counts for %d nodes", len(loops), g.N())
	}
	for u, l := range loops {
		if l < 0 {
			return nil, fmt.Errorf("irregular: negative self-loops at node %d", u)
		}
	}
	return &Balancing{g: g, loops: append([]int(nil), loops...)}, nil
}

// Graph returns the underlying graph.
func (b *Balancing) Graph() *Graph { return b.g }

// N returns the node count.
func (b *Balancing) N() int { return b.g.N() }

// SelfLoops returns d°(u).
func (b *Balancing) SelfLoops(u int) int { return b.loops[u] }

// DegreePlus returns d⁺(u).
func (b *Balancing) DegreePlus(u int) int { return b.g.Degree(u) + b.loops[u] }

// TotalDegreePlus returns Σ_u d⁺(u), the normalizer of the fair share.
func (b *Balancing) TotalDegreePlus() int64 {
	var sum int64
	for u := 0; u < b.N(); u++ {
		sum += int64(b.DegreePlus(u))
	}
	return sum
}

// FairShare returns the degree-proportional target loads for total mass m:
// target(u) = m·d⁺(u)/Σd⁺.
func (b *Balancing) FairShare(total int64) []float64 {
	z := float64(b.TotalDegreePlus())
	out := make([]float64, b.N())
	for u := range out {
		out[u] = float64(total) * float64(b.DegreePlus(u)) / z
	}
	return out
}

// RelativeDiscrepancy is the irregular analogue of the discrepancy: the
// spread of the per-unit-degree loads, max x(u)/d⁺(u) − min x(u)/d⁺(u).
// It is zero exactly at the degree-proportional fair share.
func (b *Balancing) RelativeDiscrepancy(x []int64) float64 {
	lo, hi := 0.0, 0.0
	for u, v := range x {
		r := float64(v) / float64(b.DegreePlus(u))
		if u == 0 || r < lo {
			lo = r
		}
		if u == 0 || r > hi {
			hi = r
		}
	}
	return hi - lo
}

// DeviationFromFairShare returns max_u |x(u) − target(u)|.
func (b *Balancing) DeviationFromFairShare(x []int64) float64 {
	var total int64
	for _, v := range x {
		total += v
	}
	target := b.FairShare(total)
	worst := 0.0
	for u, v := range x {
		dev := float64(v) - target[u]
		if dev < 0 {
			dev = -dev
		}
		if dev > worst {
			worst = dev
		}
	}
	return worst
}

// Package graph provides the d-regular graph substrate used by every
// load-balancing process in this repository.
//
// The paper's model (Section 1.3) is a symmetric directed d-regular graph
// G = (V, E): every undirected edge {u, v} is represented by the two arcs
// (u, v) and (v, u). Each node stores an ordered list of its d out-neighbors;
// the pair (u, i) — the i-th out-edge of node u — is the canonical identity of
// an arc, which is what the cumulative-fairness definitions quantify over.
// Because the graph is regular, an arc is named by its flat position
// p = u*d + i, and every consumer (the engine, the fault overlay, the
// matching schedulers, the spectral matvec) passes arcs around as positions.
//
// The balancing graph G+ adds d° self-loops per node. Self-loops are never
// materialized as arcs: they exist only as the count SelfLoops on a Balancing
// value, because tokens "sent over a self-loop" simply remain at the node.
package graph

import (
	"errors"
	"fmt"
	"slices"
)

// Graph is a symmetric directed d-regular multigraph on n nodes.
//
// Invariants (checked on construction and by Validate):
//   - every node has exactly d out-neighbors,
//   - the arc multiset is symmetric: the number of arcs u->v equals the
//     number of arcs v->u for every pair (u, v),
//   - no self-arcs (self-loops are modeled separately by Balancing).
//
// The arcs are stored once, in CSR form with implicit offsets: the arc
// (u, i) has position p = u*d + i, and node u's d out-neighbors occupy
// heads[u*d : (u+1)*d]. The reverse index's tails are kept in the same
// layout.
//
// Every graph comes out of one constructor, which takes the flat heads
// array, checks the invariants and builds the reverse index. The family
// constructors in this package write heads directly; New flattens its
// adjacency rows into heads first.
type Graph struct {
	name string
	n    int
	d    int

	// heads is the CSR adjacency: heads[u*d+i] is the head of arc (u, i).
	// One contiguous int32 array, 4 bytes per arc, indexed by arc position.
	heads []int32

	// revSrc is the flat reverse index by tail: revSrc[v*d : (v+1)*d] lists
	// the tails of v's in-arcs in arc order (so in ascending order).
	// Regularity and symmetry guarantee exactly d entries per node, so the
	// layout mirrors heads. Consumers that only need per-node quantities
	// (e.g. the continuous diffusion inflow sum) read it.
	revSrc []int32

	// nu2 is the analytically known second-largest eigenvalue of the
	// normalized adjacency matrix A/d, when the family constructor can supply
	// it (cycles, tori, hypercubes, ...). The spectral package prefers it
	// over its Lanczos solver, which is exact to round-off but still costs
	// matvecs and a bisection per step, more of both on poorly expanding
	// graphs.
	nu2    float64
	hasNu2 bool
}

// SetNu2 records the analytically known second-largest eigenvalue of A/d.
// Family constructors call it; external callers normally should not.
func (g *Graph) SetNu2(nu2 float64) {
	g.nu2 = nu2
	g.hasNu2 = true
}

// Nu2 returns the analytically known second-largest eigenvalue of A/d and
// whether one was recorded.
func (g *Graph) Nu2() (float64, bool) { return g.nu2, g.hasNu2 }

// New validates an adjacency list and builds a graph from it. Row u lists
// u's out-neighbors in arc order; the rows are flattened into the CSR heads
// array and handed to the same constructor the families use, so the caller
// keeps ownership of adj, which the graph does not retain.
func New(name string, adj [][]int) (*Graph, error) {
	n := len(adj)
	if n == 0 {
		return nil, errors.New("graph: empty adjacency list")
	}
	d := len(adj[0])
	for u, nbrs := range adj {
		// A zero degree is reported by checkShape, ahead of ragged rows.
		if d > 0 && len(nbrs) != d {
			return nil, fmt.Errorf("graph %s: node %d has out-degree %d, want %d", name, u, len(nbrs), d)
		}
	}
	// Checked before flattening, so an arc count past int32 is never
	// allocated.
	if err := checkShape(name, n, d); err != nil {
		return nil, err
	}
	heads := make([]int32, 0, n*d)
	for _, nbrs := range adj {
		for _, v := range nbrs {
			if v < 0 || v >= n {
				// An out-of-range neighbor could wrap into range as an
				// int32, so the rows themselves name the first bad arc.
				return nil, fmt.Errorf("graph %s: %w", name, CheckSymmetric(adj))
			}
			heads = append(heads, int32(v))
		}
	}
	return newGraph(name, n, d, heads)
}

// newGraph is the one constructor behind New and every family. It takes
// ownership of heads (n·d entries, node u's out-neighbors at
// heads[u*d : (u+1)*d]), checks the Graph invariants and keeps the reverse
// index the symmetry check builds.
func newGraph(name string, n, d int, heads []int32) (*Graph, error) {
	if err := checkShape(name, n, d); err != nil {
		return nil, err
	}
	// Symmetry gives every node in-degree d, so node v's reverse entries
	// occupy revSrc[v*d : (v+1)*d].
	revSrc, err := reverseIndex(n, func(u int) []int32 { return heads[u*d : (u+1)*d] })
	if err != nil {
		return nil, fmt.Errorf("graph %s: %w", name, err)
	}
	return &Graph{name: name, n: n, d: d, heads: heads, revSrc: revSrc}, nil
}

// checkShape rejects a zero degree and an arc count past the int32 flat
// index.
func checkShape(name string, n, d int) error {
	if d == 0 {
		return fmt.Errorf("graph %s: degree must be positive, got 0", name)
	}
	if int64(n)*int64(d) > 1<<31-1 {
		return fmt.Errorf("graph %s: %d×%d arcs overflow the int32 flat index", name, n, d)
	}
	return nil
}

// must panics on a constructor error; the family constructors build
// statically valid graphs through it.
func must(g *Graph, err error) *Graph {
	if err != nil {
		panic(err)
	}
	return g
}

// Heads returns the flat CSR adjacency: heads[u*d+i] is the head of the arc
// (u, i). The slice is shared with the graph and must not be modified.
func (g *Graph) Heads() []int32 { return g.heads }

// RevArcSrc returns the flat reverse index by tail: entries v*d to (v+1)*d
// list the tails of the arcs whose head is v, in arc order. Shared; do not
// modify.
func (g *Graph) RevArcSrc() []int32 { return g.revSrc }

// MustNew is New for statically known-good adjacency lists; it panics on
// error. It is intended for tests and hand-written fixtures.
func MustNew(name string, adj [][]int) *Graph { return must(New(name, adj)) }

// Name reports the human-readable family name, e.g. "cycle(64)".
func (g *Graph) Name() string { return g.name }

// N reports the number of nodes.
func (g *Graph) N() int { return g.n }

// Degree reports d, the uniform out- and in-degree.
func (g *Graph) Degree() int { return g.d }

// Neighbors returns the ordered out-neighbor list of u: the view
// heads[u*d : (u+1)*d], whose i-th entry is the head of arc (u, i). The
// returned slice is shared with the graph and must not be modified.
func (g *Graph) Neighbors(u int) []int32 { return g.heads[u*g.d : (u+1)*g.d] }

// Validate re-checks the Graph invariants listed on the type against the
// CSR store.
func (g *Graph) Validate() error {
	if _, err := reverseIndex(g.n, g.Neighbors); err != nil {
		return fmt.Errorf("graph %s: %w", g.name, err)
	}
	return nil
}

// CheckSymmetric checks that adj, row u listing node u's out-neighbors,
// describes a symmetric directed multigraph without self-arcs: every
// neighbor lies in [0, len(adj)), no node lists itself, and for every pair
// the number of arcs u->v equals the number of arcs v->u. Rows may have any
// length, so it serves regular and irregular graphs alike. The first error
// found in arc order is reported, except that an asymmetry always names the
// smallest pair (u, v) whose two directions have different counts, so the
// message never depends on iteration order.
func CheckSymmetric[T int | int32](adj [][]T) error {
	_, err := reverseIndex(len(adj), func(u int) []T { return adj[u] })
	return err
}

// reverseIndex is CheckSymmetric over the n rows that row returns. It
// returns the reverse index it builds on the way: node v's in-arcs occupy
// one bucket, in arc order, with revSrc holding each in-arc's tail; the
// buckets come in node order, each as long as its node's in-degree.
func reverseIndex[T int | int32](n int, row func(u int) []T) (revSrc []int32, err error) {
	// The arc multiset is symmetric iff its (tail, head) pairs, sorted,
	// equal its (head, tail) pairs, sorted; at the first position where they
	// differ, the smaller pair is the smallest one whose two directions have
	// different counts. Two stable counting passes sort both: the arcs come
	// in tail order, so bucketing them by head lists each node's in-arc
	// tails in ascending order (the reverse index), and bucketing that by
	// tail lists each node's heads in ascending order. Neither pass compares.
	inEnd := make([]int, n+1) // in-degree of v at inEnd[v+1], then bucket bounds
	total := 0
	for u := 0; u < n; u++ {
		nbrs := row(u)
		for _, v := range nbrs {
			if v < 0 || int(v) >= n {
				return nil, fmt.Errorf("node %d has neighbor %d out of range [0,%d)", u, v, n)
			}
			if int(v) == u {
				return nil, fmt.Errorf("node %d has a self-arc; self-loops belong to Balancing", u)
			}
			inEnd[v+1]++
		}
		total += len(nbrs)
	}
	for v := 0; v < n; v++ {
		inEnd[v+1] += inEnd[v]
	}
	revSrc = make([]int32, total)
	for u := 0; u < n; u++ {
		for _, v := range row(u) {
			revSrc[inEnd[v]] = int32(u)
			inEnd[v]++
		}
	}
	// inEnd[v] is now where v's bucket ends; outEnd[u] will be where u's
	// sorted heads end.
	inEnd = inEnd[:n]
	outEnd := make([]int, n+1)
	for u := 0; u < n; u++ {
		outEnd[u+1] = outEnd[u] + len(row(u))
	}
	sorted := make([]int32, total)
	k := 0
	for v := 0; v < n; v++ {
		for ; k < inEnd[v]; k++ {
			u := revSrc[k]
			sorted[outEnd[u]] = int32(v)
			outEnd[u]++
		}
	}
	outEnd = outEnd[:n]
	// Position i holds the arc u->sorted[i] of the tail order and the arc
	// revSrc[i]->v of the head order, read as the pair (v, revSrc[i]).
	u, v := 0, 0
	for i := range sorted {
		for outEnd[u] <= i {
			u++
		}
		for inEnd[v] <= i {
			v++
		}
		if u == v && sorted[i] == revSrc[i] {
			continue
		}
		a, b := u, int(sorted[i])
		if v < u || v == u && int(revSrc[i]) < b {
			a, b = v, int(revSrc[i])
		}
		// Arcs a->b are b's among a's sorted heads; arcs b->a are b's among
		// a's in-arc tails.
		lo := 0
		if a > 0 {
			lo = inEnd[a-1]
		}
		return nil, fmt.Errorf("asymmetric arc multiset: %d arcs %d->%d but %d arcs %d->%d",
			count(sorted[outEnd[a]-len(row(a)):outEnd[a]], b), a, b, count(revSrc[lo:inEnd[a]], b), b, a)
	}
	return revSrc, nil
}

// count returns how often x occurs in the ascending s.
func count(s []int32, x int) int {
	lo, _ := slices.BinarySearch(s, int32(x))
	hi, _ := slices.BinarySearch(s, int32(x+1))
	return hi - lo
}

// BFS returns the vector of shortest-path distances from src. Unreachable
// nodes get distance -1.
func (g *Graph) BFS(src int) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]int, 0, g.n)
	queue = append(queue, src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Neighbors(u) {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, int(v))
			}
		}
	}
	return dist
}

// Eccentricity returns the maximum finite BFS distance from src, or -1 if
// some node is unreachable from src.
func (g *Graph) Eccentricity(src int) int {
	ecc := 0
	for _, d := range g.BFS(src) {
		if d < 0 {
			return -1
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// Diameter returns the exact diameter by running BFS from every node, or -1
// if the graph is disconnected. O(n·m); fine at the scales this repo uses.
func (g *Graph) Diameter() int {
	diam := 0
	for u := 0; u < g.n; u++ {
		ecc := g.Eccentricity(u)
		if ecc < 0 {
			return -1
		}
		if ecc > diam {
			diam = ecc
		}
	}
	return diam
}

// IsConnected reports whether every node is reachable from node 0.
func (g *Graph) IsConnected() bool {
	for _, d := range g.BFS(0) {
		if d < 0 {
			return false
		}
	}
	return true
}

// IsBipartite reports whether the graph is 2-colorable.
func (g *Graph) IsBipartite() bool {
	color := make([]int8, g.n) // 0 = unvisited, 1 / 2 = sides
	for start := 0; start < g.n; start++ {
		if color[start] != 0 {
			continue
		}
		color[start] = 1
		queue := []int{start}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range g.Neighbors(u) {
				switch color[v] {
				case 0:
					color[v] = 3 - color[u]
					queue = append(queue, int(v))
				case color[u]:
					return false
				}
			}
		}
	}
	return true
}

// OddGirth returns the length of the shortest odd cycle, or 0 if the graph is
// bipartite. Theorem 4.3 expresses its ROTOR-ROUTER lower bound in terms of
// φ(G) where 2φ(G)+1 is the odd girth. The shortest closed odd walk through
// a node, minimized over all nodes, is the shortest odd cycle length.
func (g *Graph) OddGirth() int {
	best := 0
	for src := 0; src < g.n; src++ {
		if w := g.OddClosedWalk(src); w > 0 && (best == 0 || w < best) {
			best = w
		}
	}
	return best
}

// OddClosedWalk returns the length of the shortest odd closed walk through
// src, or -1 if none exists (the graph is bipartite). It runs a BFS on the
// bipartite double cover, whose states are (v, parity).
func (g *Graph) OddClosedWalk(src int) int {
	dist := make([]int, 2*g.n) // dist[2v+parity]
	for i := range dist {
		dist[i] = -1
	}
	dist[2*src] = 0
	queue := []int{2 * src}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		np := 1 - s%2
		for _, v := range g.Neighbors(s / 2) {
			if t := 2*int(v) + np; dist[t] < 0 {
				dist[t] = dist[s] + 1
				queue = append(queue, t)
			}
		}
	}
	return dist[2*src+1]
}

// Phi returns the parameter φ(G) of Theorem 4.3, defined by odd girth
// = 2φ(G)+1, or 0 for bipartite graphs.
func (g *Graph) Phi() int {
	og := g.OddGirth()
	if og == 0 {
		return 0
	}
	return (og - 1) / 2
}

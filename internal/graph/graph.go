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
// Invariants (checked by New and Validate):
//   - every node has exactly d out-neighbors,
//   - the arc multiset is symmetric: the number of arcs u->v equals the
//     number of arcs v->u for every pair (u, v),
//   - no self-arcs (self-loops are modeled separately by Balancing).
//
// The arcs are stored once, in CSR form with implicit offsets: the arc
// (u, i) has position p = u*d + i, and node u's d out-neighbors occupy
// heads[u*d : (u+1)*d]. The reverse index is kept in the same layout.
type Graph struct {
	name string
	n    int
	d    int

	// heads is the CSR adjacency: heads[u*d+i] is the head of arc (u, i).
	// One contiguous int32 array, 4 bytes per arc, indexed by arc position.
	heads []int32

	// revPos is the flat reverse index: revPos[v*d : (v+1)*d] lists, in
	// ascending order, the arc positions p = u*d+i with heads[p] == v — the
	// in-arcs of v. Regularity and symmetry guarantee exactly d entries per
	// node, so the layout mirrors heads.
	revPos []int32

	// revSrc resolves each reverse entry to its tail node:
	// revSrc[k] = revPos[k]/d. It lets consumers that only need per-node
	// quantities (e.g. the continuous diffusion inflow sum) avoid a
	// division per arc.
	revSrc []int32

	// nu2 is the analytically known second-largest eigenvalue of the
	// normalized adjacency matrix A/d, when the family constructor can supply
	// it (cycles, tori, hypercubes, ...). The spectral package prefers it
	// over its Lanczos solver, which is exact to round-off but still costs
	// matvecs and a reorthogonalised basis, more of both on poorly
	// expanding graphs.
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

// New validates an adjacency list and flattens it into the graph's CSR
// arrays. Row u lists u's out-neighbors in arc order; the caller keeps
// ownership of adj, which the graph does not retain.
func New(name string, adj [][]int) (*Graph, error) {
	n := len(adj)
	if n == 0 {
		return nil, errors.New("graph: empty adjacency list")
	}
	d := len(adj[0])
	if d == 0 {
		return nil, fmt.Errorf("graph %s: degree must be positive, got 0", name)
	}
	for u, nbrs := range adj {
		if len(nbrs) != d {
			return nil, fmt.Errorf("graph %s: node %d has out-degree %d, want %d", name, u, len(nbrs), d)
		}
	}
	if int64(n)*int64(d) > 1<<31-1 {
		return nil, fmt.Errorf("graph %s: %d×%d arcs overflow the int32 flat index", name, n, d)
	}
	if err := CheckSymmetric(adj); err != nil {
		return nil, fmt.Errorf("graph %s: %w", name, err)
	}
	g := &Graph{name: name, n: n, d: d, heads: make([]int32, 0, n*d)}
	for _, nbrs := range adj {
		for _, v := range nbrs {
			g.heads = append(g.heads, int32(v))
		}
	}
	// Every node has in-degree exactly d, so node v's reverse entries occupy
	// revPos[v*d : (v+1)*d]; a single cursor pass fills them in arc order.
	g.revPos = make([]int32, n*d)
	cursor := make([]int32, n)
	for v := range cursor {
		cursor[v] = int32(v * d)
	}
	for p, v := range g.heads {
		g.revPos[cursor[v]] = int32(p)
		cursor[v]++
	}
	g.revSrc = make([]int32, n*d)
	for k, p := range g.revPos {
		g.revSrc[k] = p / int32(d)
	}
	return g, nil
}

// Heads returns the flat CSR adjacency: heads[u*d+i] is the head of the arc
// (u, i). The slice is shared with the graph and must not be modified.
func (g *Graph) Heads() []int32 { return g.heads }

// RevArcPos returns the flat reverse index: revPos[v*d : (v+1)*d] lists the
// positions p = u*d+i of the arcs whose head is v, in ascending order. The
// slice is shared with the graph and must not be modified.
func (g *Graph) RevArcPos() []int32 { return g.revPos }

// RevArcSrc returns the tail-node component of the flat reverse index
// (RevArcPos entry-wise divided by d). Shared; do not modify.
func (g *Graph) RevArcSrc() []int32 { return g.revSrc }

// MustNew is New for statically known-good constructions; it panics on error.
// It is intended for the family constructors in this package and for tests.
func MustNew(name string, adj [][]int) *Graph {
	g, err := New(name, adj)
	if err != nil {
		panic(err)
	}
	return g
}

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
	rows := make([][]int32, g.n)
	for u := range rows {
		rows[u] = g.Neighbors(u)
	}
	if err := CheckSymmetric(rows); err != nil {
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
	n := len(adj)
	// Pack each arc u->v as the key u<<32|v. The multiset is symmetric iff
	// the sorted keys equal the sorted keys of the reversed arcs; at the
	// first position where they differ, the smaller key is the smallest pair
	// whose two directions have different counts. Sorting each node's keys
	// sorts arcs, since the nodes come in order; bucketing the reversed keys
	// by head, in that order, sorts rev.
	total := 0
	for _, nbrs := range adj {
		total += len(nbrs)
	}
	arcs := make([]uint64, 0, total)
	start := make([]int, n+1) // in-degree of v at start[v+1], then bucket starts
	for u, nbrs := range adj {
		for _, v := range nbrs {
			if v < 0 || int(v) >= n {
				return fmt.Errorf("node %d has neighbor %d out of range [0,%d)", u, v, n)
			}
			if int(v) == u {
				return fmt.Errorf("node %d has a self-arc; self-loops belong to Balancing", u)
			}
			arcs = append(arcs, uint64(u)<<32|uint64(v))
			start[v+1]++
		}
		slices.Sort(arcs[len(arcs)-len(nbrs):])
	}
	for v := 0; v < n; v++ {
		start[v+1] += start[v]
	}
	rev := make([]uint64, len(arcs))
	for _, k := range arcs {
		u, v := k>>32, k&(1<<32-1)
		rev[start[v]] = v<<32 | u
		start[v]++
	}
	for i, k := range arcs {
		if k == rev[i] {
			continue
		}
		k = min(k, rev[i])
		u, v := int(k>>32), int(k&(1<<32-1))
		return fmt.Errorf("asymmetric arc multiset: %d arcs %d->%d but %d arcs %d->%d",
			countKey(arcs, k), u, v, countKey(rev, k), v, u)
	}
	return nil
}

// countKey returns how often k occurs in the sorted keys.
func countKey(keys []uint64, k uint64) int {
	lo, _ := slices.BinarySearch(keys, k)
	hi, _ := slices.BinarySearch(keys, k+1)
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

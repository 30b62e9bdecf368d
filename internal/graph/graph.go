// Package graph provides the d-regular graph substrate used by every
// load-balancing process in this repository.
//
// The paper's model (Section 1.3) is a symmetric directed d-regular graph
// G = (V, E): every undirected edge {u, v} is represented by the two arcs
// (u, v) and (v, u). Each node stores an ordered list of its d out-neighbors;
// the pair (u, i) — the i-th out-edge of node u — is the canonical identity of
// an arc, which is what the cumulative-fairness definitions quantify over.
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

// Arc identifies a directed original edge as the Index-th out-edge of From.
type Arc struct {
	From  int
	Index int
}

// Graph is a symmetric directed d-regular multigraph on n nodes.
//
// Invariants (checked by Validate):
//   - every node has exactly d out-neighbors,
//   - the arc multiset is symmetric: the number of arcs u->v equals the
//     number of arcs v->u for every pair (u, v),
//   - no self-arcs (self-loops are modeled separately by Balancing).
//
// Because the graph is d-regular, the CSR offsets are implicit: the arc
// (u, i) has flat position p = u*d + i, and the d entries for node u occupy
// heads[u*d : (u+1)*d]. Both flat arrays are built once at construction and
// are the representation the engine's hot loops and the spectral matvec run
// on; the ragged adj is kept for the traversal helpers (BFS, Validate, ...).
type Graph struct {
	name string
	n    int
	d    int
	adj  [][]int

	// heads is the CSR-style flat adjacency: heads[u*d+i] = adj[u][i]. One
	// contiguous int32 array, 4 bytes per arc, indexed by arc position.
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

	// rev[v] lists the arcs (u, i) with adj[u][i] == v, i.e. the in-edges of
	// v. For a valid symmetric regular graph len(rev[v]) == d. It is built
	// lazily by ReverseIndex for callers that want Arc values; the engine
	// itself uses the flat revPos.
	rev [][]Arc

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

// New constructs a graph from an adjacency list and validates it.
// The adjacency slices are copied; the caller keeps ownership of adj.
func New(name string, adj [][]int) (*Graph, error) {
	g := &Graph{name: name, n: len(adj)}
	if g.n == 0 {
		return nil, errors.New("graph: empty adjacency list")
	}
	g.d = len(adj[0])
	g.adj = make([][]int, g.n)
	for u := range adj {
		g.adj[u] = append([]int(nil), adj[u]...)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := g.buildFlat(); err != nil {
		return nil, err
	}
	return g, nil
}

// buildFlat materializes the CSR arrays from the validated adjacency.
func (g *Graph) buildFlat() error {
	arcs := g.n * g.d
	if int64(g.n)*int64(g.d) != int64(arcs) || arcs > 1<<31-1 {
		return fmt.Errorf("graph %s: %d×%d arcs overflow the int32 flat index", g.name, g.n, g.d)
	}
	g.heads = make([]int32, arcs)
	g.revPos = make([]int32, arcs)
	for u, nbrs := range g.adj {
		base := u * g.d
		for i, v := range nbrs {
			g.heads[base+i] = int32(v)
		}
	}
	// Every node has in-degree exactly d, so node v's reverse entries occupy
	// revPos[v*d : (v+1)*d]; a single cursor pass fills them in arc order.
	cursor := make([]int32, g.n)
	for v := range cursor {
		cursor[v] = int32(v * g.d)
	}
	for p, v := range g.heads {
		g.revPos[cursor[v]] = int32(p)
		cursor[v]++
	}
	g.revSrc = make([]int32, arcs)
	for k, p := range g.revPos {
		g.revSrc[k] = p / int32(g.d)
	}
	return nil
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

// Neighbors returns the ordered out-neighbor list of u. The returned slice is
// shared with the graph and must not be modified.
func (g *Graph) Neighbors(u int) []int { return g.adj[u] }

// Neighbor returns the head of the i-th out-edge of u.
func (g *Graph) Neighbor(u, i int) int { return g.adj[u][i] }

// Validate checks the Graph invariants listed on the type.
func (g *Graph) Validate() error {
	if g.n <= 0 {
		return errors.New("graph: no nodes")
	}
	if g.d <= 0 {
		return fmt.Errorf("graph %s: degree must be positive, got %d", g.name, g.d)
	}
	// Pack each arc u->v as the key u<<32|v. The multiset is symmetric iff
	// the sorted keys equal the sorted keys of the reversed arcs; at the
	// first position where they differ, the smaller key is the smallest pair
	// whose two directions have different counts. Sorting each node's d keys
	// sorts arcs, since the nodes come in order; bucketing the reversed keys
	// by head, in that order, sorts rev.
	arcs := make([]uint64, 0, g.n*g.d)
	start := make([]int, g.n+1) // in-degree of v at start[v+1], then bucket starts
	for u, nbrs := range g.adj {
		if len(nbrs) != g.d {
			return fmt.Errorf("graph %s: node %d has out-degree %d, want %d", g.name, u, len(nbrs), g.d)
		}
		for _, v := range nbrs {
			if v < 0 || v >= g.n {
				return fmt.Errorf("graph %s: node %d has neighbor %d out of range [0,%d)", g.name, u, v, g.n)
			}
			if v == u {
				return fmt.Errorf("graph %s: node %d has a self-arc; self-loops belong to Balancing", g.name, u)
			}
			arcs = append(arcs, uint64(u)<<32|uint64(v))
			start[v+1]++
		}
		slices.Sort(arcs[len(arcs)-g.d:])
	}
	for v := 0; v < g.n; v++ {
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
		return fmt.Errorf("graph %s: asymmetric arc multiset: %d arcs %d->%d but %d arcs %d->%d",
			g.name, countKey(arcs, k), u, v, countKey(rev, k), v, u)
	}
	return nil
}

// countKey returns how often k occurs in the sorted keys.
func countKey(keys []uint64, k uint64) int {
	lo, _ := slices.BinarySearch(keys, k)
	hi, _ := slices.BinarySearch(keys, k+1)
	return hi - lo
}

// ReverseIndex returns, for every node v, the list of arcs whose head is v.
// The index is computed once and cached; the result is shared and must not be
// modified.
func (g *Graph) ReverseIndex() [][]Arc {
	if g.rev != nil {
		return g.rev
	}
	rev := make([][]Arc, g.n)
	for v := range rev {
		rev[v] = make([]Arc, 0, g.d)
	}
	for u, nbrs := range g.adj {
		for i, v := range nbrs {
			rev[v] = append(rev[v], Arc{From: u, Index: i})
		}
	}
	g.rev = rev
	return rev
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
		for _, v := range g.adj[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
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
			for _, v := range g.adj[u] {
				switch color[v] {
				case 0:
					color[v] = 3 - color[u]
					queue = append(queue, v)
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
// φ(G) where 2φ(G)+1 is the odd girth.
//
// The implementation runs a BFS from every node on the bipartite double cover:
// state (v, parity). The shortest closed odd walk through a node equals the
// shortest odd cycle length when minimized over all nodes.
func (g *Graph) OddGirth() int {
	best := -1
	distEven := make([]int, g.n)
	distOdd := make([]int, g.n)
	for src := 0; src < g.n; src++ {
		for i := 0; i < g.n; i++ {
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
			var du int
			if s.parity == 0 {
				du = distEven[s.v]
			} else {
				du = distOdd[s.v]
			}
			for _, v := range g.adj[s.v] {
				np := 1 - s.parity
				if np == 0 {
					if distEven[v] < 0 {
						distEven[v] = du + 1
						queue = append(queue, state{v, np})
					}
				} else {
					if distOdd[v] < 0 {
						distOdd[v] = du + 1
						queue = append(queue, state{v, np})
					}
				}
			}
		}
		if distOdd[src] > 0 && (best < 0 || distOdd[src] < best) {
			best = distOdd[src]
		}
	}
	if best < 0 {
		return 0
	}
	return best
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

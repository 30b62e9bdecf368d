package graph

// The constructors as they were before the graph families wrote the flat
// heads array directly: every family built [][]int adjacency rows and passed
// them to New, New flattened them after a symmetry check that sorted each
// row's arc keys, and RandomRegular repaired its pairing over a multiplicity
// map. They are kept verbatim, apart from the ref prefix on their names and
// refRandomRegular taking its seeded source as an argument, as the
// references that reference_test.go and FuzzGraphNew hold the one flat
// constructor to.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
)

// Cycle returns the cycle C_n (2-regular), n >= 3.
func refCycle(n int) *Graph {
	if n < 3 {
		panic(fmt.Sprintf("graph: cycle needs n >= 3, got %d", n))
	}
	adj := make([][]int, n)
	for u := 0; u < n; u++ {
		adj[u] = []int{(u + 1) % n, (u - 1 + n) % n}
	}
	g := MustNew(fmt.Sprintf("cycle(%d)", n), adj)
	g.SetNu2(math.Cos(2 * math.Pi / float64(n)))
	return g
}

// Complete returns the complete graph K_n ((n-1)-regular), n >= 2.
func refComplete(n int) *Graph {
	if n < 2 {
		panic(fmt.Sprintf("graph: complete graph needs n >= 2, got %d", n))
	}
	adj := make([][]int, n)
	for u := 0; u < n; u++ {
		adj[u] = make([]int, 0, n-1)
		for v := 0; v < n; v++ {
			if v != u {
				adj[u] = append(adj[u], v)
			}
		}
	}
	g := MustNew(fmt.Sprintf("complete(%d)", n), adj)
	g.SetNu2(-1 / float64(n-1))
	return g
}

// Hypercube returns the r-dimensional hypercube Q_r on n = 2^r nodes
// (r-regular). The paper's related work reports hypercube-specific
// discrepancy bounds (e.g. O(log^{3/2} n) for bounded-error processes).
func refHypercube(r int) *Graph {
	if r < 1 || r > 30 {
		panic(fmt.Sprintf("graph: hypercube dimension out of range: %d", r))
	}
	n := 1 << r
	adj := make([][]int, n)
	for u := 0; u < n; u++ {
		adj[u] = make([]int, r)
		for b := 0; b < r; b++ {
			adj[u][b] = u ^ (1 << b)
		}
	}
	g := MustNew(fmt.Sprintf("hypercube(%d)", r), adj)
	g.SetNu2(1 - 2/float64(r))
	return g
}

// Torus returns the r-dimensional torus (Z_side)^r, 2r-regular, with
// wrap-around in every dimension. side >= 3 so that the ±1 neighbors in a
// dimension are distinct (no multi-edges).
func refTorus(r, side int) *Graph {
	if r < 1 {
		panic(fmt.Sprintf("graph: torus needs r >= 1, got %d", r))
	}
	if side < 3 {
		panic(fmt.Sprintf("graph: torus needs side >= 3, got %d", side))
	}
	n := 1
	for i := 0; i < r; i++ {
		n *= side
	}
	adj := make([][]int, n)
	stride := make([]int, r)
	stride[0] = 1
	for i := 1; i < r; i++ {
		stride[i] = stride[i-1] * side
	}
	for u := 0; u < n; u++ {
		adj[u] = make([]int, 0, 2*r)
		for i := 0; i < r; i++ {
			coord := (u / stride[i]) % side
			up := u + ((coord+1)%side-coord)*stride[i]
			down := u + ((coord-1+side)%side-coord)*stride[i]
			adj[u] = append(adj[u], up, down)
		}
	}
	g := MustNew(fmt.Sprintf("torus(%d^%d)", side, r), adj)
	g.SetNu2((float64(r-1) + math.Cos(2*math.Pi/float64(side))) / float64(r))
	return g
}

// Circulant returns the circulant graph on n nodes with symmetric connection
// offsets. Each offset s in offsets (0 < s < n, s != n-s unless handled)
// contributes the two neighbors u±s; if n is even and s == n/2 it contributes
// the single antipodal neighbor. Degree is 2·|{s : s != n/2}| + |{s == n/2}|.
func refCirculant(n int, offsets []int) *Graph {
	if n < 3 {
		panic(fmt.Sprintf("graph: circulant needs n >= 3, got %d", n))
	}
	seen := make(map[int]bool, len(offsets))
	for _, s := range offsets {
		if s <= 0 || s >= n {
			panic(fmt.Sprintf("graph: circulant offset %d out of range (0,%d)", s, n))
		}
		if seen[s] {
			panic(fmt.Sprintf("graph: duplicate circulant offset %d", s))
		}
		seen[s] = true
	}
	adj := make([][]int, n)
	for u := 0; u < n; u++ {
		for _, s := range offsets {
			if 2*s == n {
				adj[u] = append(adj[u], (u+s)%n)
			} else {
				adj[u] = append(adj[u], (u+s)%n, (u-s+n)%n)
			}
		}
	}
	g := MustNew(fmt.Sprintf("circulant(%d,%v)", n, offsets), adj)
	g.SetNu2(circulantNu2(n, g.Degree(), offsets))
	return g
}

// CliqueCirculant builds the d-regular graph from the proof of Theorem 4.2:
// nodes 0..n-1, with i ~ j iff (i-j) mod n ∈ {1..⌊d/2⌋} ∪ {n-⌊d/2⌋..n-1},
// plus antipodal edges when d is odd (requires even n). Nodes 0..⌊d/2⌋-1 form
// a ⌊d/2⌋-clique when n is large enough.
func refCliqueCirculant(n, d int) *Graph {
	if d < 2 || d >= n {
		panic(fmt.Sprintf("graph: clique-circulant needs 2 <= d < n, got d=%d n=%d", d, n))
	}
	if d%2 == 1 && n%2 == 1 {
		panic("graph: clique-circulant with odd d needs even n")
	}
	half := d / 2
	if n <= 2*half {
		panic(fmt.Sprintf("graph: clique-circulant needs n > d, got n=%d d=%d", n, d))
	}
	offsets := make([]int, 0, half+1)
	for s := 1; s <= half; s++ {
		offsets = append(offsets, s)
	}
	if d%2 == 1 {
		offsets = append(offsets, n/2)
	}
	g := refCirculant(n, offsets)
	g.name = fmt.Sprintf("clique-circulant(%d,d=%d)", n, d)
	return g
}

// GeneralizedPetersen returns GP(n, k): outer n-cycle 0..n-1, inner nodes
// n..2n-1 connected as i ~ i+k (mod n), plus spokes. 3-regular on 2n nodes;
// GP(5, 2) is the Petersen graph. Varying (n, k) sweeps the odd girth,
// which makes the family a rich fixture for Theorem 4.3. Requires n ≥ 3 and
// 1 ≤ k < n/2 (so the inner step is neither a self-arc nor an involution).
func refGeneralizedPetersen(n, k int) *Graph {
	if n < 3 || k < 1 || 2*k >= n {
		panic(fmt.Sprintf("graph: generalized Petersen needs n ≥ 3, 1 ≤ k < n/2, got (%d,%d)", n, k))
	}
	adj := make([][]int, 2*n)
	for i := 0; i < n; i++ {
		adj[i] = []int{(i + 1) % n, (i - 1 + n) % n, n + i}
		adj[n+i] = []int{n + (i+k)%n, n + (i-k+n)%n, i}
	}
	return MustNew(fmt.Sprintf("gp(%d,%d)", n, k), adj)
}

// Petersen returns the Petersen graph: 10 nodes, 3-regular, odd girth 5.
// It is a convenient non-bipartite fixture for Theorem 4.3 beyond cycles.
func refPetersen() *Graph {
	adj := make([][]int, 10)
	for u := 0; u < 5; u++ {
		// Outer 5-cycle plus spoke.
		adj[u] = []int{(u + 1) % 5, (u + 4) % 5, u + 5}
		// Inner pentagram plus spoke.
		adj[u+5] = []int{5 + (u+2)%5, 5 + (u+3)%5, u}
	}
	g := MustNew("petersen", adj)
	g.SetNu2(1.0 / 3.0)
	return g
}

// CompleteBipartite returns K_{k,k} (k-regular, bipartite), a fixture for
// bipartiteness-sensitive behaviour (λ_min = -1 without self-loops).
func refCompleteBipartite(k int) *Graph {
	if k < 1 {
		panic(fmt.Sprintf("graph: complete bipartite needs k >= 1, got %d", k))
	}
	n := 2 * k
	adj := make([][]int, n)
	for u := 0; u < k; u++ {
		for v := k; v < n; v++ {
			adj[u] = append(adj[u], v)
			adj[v] = append(adj[v], u)
		}
	}
	g := MustNew(fmt.Sprintf("K(%d,%d)", k, k), adj)
	if k > 1 {
		g.SetNu2(0)
	}
	return g
}

// RandomRegular samples a simple connected d-regular graph on n nodes with
// the configuration (pairing) model followed by edge-switch repair, seeded
// for reproducibility. n·d must be even. For d >= 3 the sample is an
// expander with high probability, which is the "good expansion" regime of
// Theorem 2.3(i). Panics if repair fails within a generous budget
// (vanishingly unlikely for the sizes used here).
func refRandomRegular(n, d int, seed int64, rng *rand.Rand) *Graph {
	if d < 1 || d >= n {
		panic(fmt.Sprintf("graph: random regular needs 1 <= d < n, got d=%d n=%d", d, n))
	}
	if n*d%2 != 0 {
		panic(fmt.Sprintf("graph: random regular needs n*d even, got n=%d d=%d", n, d))
	}
	const maxAttempts = 100
	for attempt := 0; attempt < maxAttempts; attempt++ {
		edges, ok := refRepairedPairing(n, d, rng)
		if !ok {
			continue
		}
		adj := make([][]int, n)
		for _, e := range edges {
			adj[e[0]] = append(adj[e[0]], e[1])
			adj[e[1]] = append(adj[e[1]], e[0])
		}
		for u := range adj {
			sort.Ints(adj[u])
		}
		g, err := New(fmt.Sprintf("random-regular(%d,d=%d,seed=%d)", n, d, seed), adj)
		if err != nil {
			continue
		}
		if !g.IsConnected() {
			continue
		}
		return g
	}
	panic(fmt.Sprintf("graph: failed to sample a simple connected %d-regular graph on %d nodes", d, n))
}

// repairedPairing draws a random stub pairing and removes self-loops and
// parallel edges by random 2-switches, preserving the degree sequence.
func refRepairedPairing(n, d int, rng *rand.Rand) ([][2]int, bool) {
	stubs := make([]int, 0, n*d)
	for u := 0; u < n; u++ {
		for i := 0; i < d; i++ {
			stubs = append(stubs, u)
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })

	m := len(stubs) / 2
	edges := make([][2]int, m)
	used := make(map[[2]int]int, m) // multiplicity per unordered pair
	key := func(u, v int) [2]int {
		if u > v {
			u, v = v, u
		}
		return [2]int{u, v}
	}
	for i := 0; i < m; i++ {
		u, v := stubs[2*i], stubs[2*i+1]
		edges[i] = [2]int{u, v}
		used[key(u, v)]++
	}
	bad := func(e [2]int) bool {
		return e[0] == e[1] || used[key(e[0], e[1])] > 1
	}
	budget := 200 * m
	for iter := 0; iter < budget; iter++ {
		// Find a bad edge; scanning from a random start keeps the walk fair.
		badAt := -1
		start := rng.Intn(m)
		for i := 0; i < m; i++ {
			if bad(edges[(start+i)%m]) {
				badAt = (start + i) % m
				break
			}
		}
		if badAt < 0 {
			return edges, true
		}
		other := rng.Intn(m)
		if other == badAt {
			continue
		}
		a, b := edges[badAt], edges[other]
		// 2-switch: (a0,a1)+(b0,b1) -> (a0,b1)+(b0,a1).
		na, nb := [2]int{a[0], b[1]}, [2]int{b[0], a[1]}
		if na[0] == na[1] || nb[0] == nb[1] {
			continue
		}
		used[key(a[0], a[1])]--
		used[key(b[0], b[1])]--
		if used[key(na[0], na[1])] > 0 || used[key(nb[0], nb[1])] > 0 || key(na[0], na[1]) == key(nb[0], nb[1]) {
			used[key(a[0], a[1])]++
			used[key(b[0], b[1])]++
			continue
		}
		used[key(na[0], na[1])]++
		used[key(nb[0], nb[1])]++
		edges[badAt], edges[other] = na, nb
	}
	return nil, false
}

// New validates an adjacency list and flattens it into the graph's CSR
// arrays. Row u lists u's out-neighbors in arc order; the caller keeps
// ownership of adj, which the graph does not retain.
func refNew(name string, adj [][]int) (*Graph, error) {
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
	if err := refCheckSymmetric(adj); err != nil {
		return nil, fmt.Errorf("graph %s: %w", name, err)
	}
	g := &Graph{name: name, n: n, d: d, heads: make([]int32, 0, n*d)}
	for _, nbrs := range adj {
		for _, v := range nbrs {
			g.heads = append(g.heads, int32(v))
		}
	}
	// Every node has in-degree exactly d, so node v's reverse entries occupy
	// revSrc[v*d : (v+1)*d]; a single cursor pass fills them in arc order.
	g.revSrc = make([]int32, n*d)
	cursor := make([]int32, n)
	for v := range cursor {
		cursor[v] = int32(v * d)
	}
	for p, v := range g.heads {
		g.revSrc[cursor[v]] = int32(p / d)
		cursor[v]++
	}
	return g, nil
}

// CheckSymmetric checks that adj, row u listing node u's out-neighbors,
// describes a symmetric directed multigraph without self-arcs: every
// neighbor lies in [0, len(adj)), no node lists itself, and for every pair
// the number of arcs u->v equals the number of arcs v->u. Rows may have any
// length, so it serves regular and irregular graphs alike. The first error
// found in arc order is reported, except that an asymmetry always names the
// smallest pair (u, v) whose two directions have different counts, so the
// message never depends on iteration order.
func refCheckSymmetric[T int | int32](adj [][]T) error {
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
			refCountKey(arcs, k), u, v, refCountKey(rev, k), v, u)
	}
	return nil
}

// countKey returns how often k occurs in the sorted keys.
func refCountKey(keys []uint64, k uint64) int {
	lo, _ := slices.BinarySearch(keys, k)
	hi, _ := slices.BinarySearch(keys, k+1)
	return hi - lo
}

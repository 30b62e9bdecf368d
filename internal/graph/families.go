package graph

import (
	"fmt"
	"math"
	mathbits "math/bits"
	"math/rand"
)

// Cycle returns the cycle C_n (2-regular), n >= 3.
func Cycle(n int) *Graph {
	if n < 3 {
		panic(fmt.Sprintf("graph: cycle needs n >= 3, got %d", n))
	}
	heads := make([]int32, 0, 2*n)
	for u := 0; u < n; u++ {
		heads = append(heads, int32((u+1)%n), int32((u-1+n)%n))
	}
	g := must(newGraph(fmt.Sprintf("cycle(%d)", n), n, 2, heads))
	g.SetNu2(math.Cos(2 * math.Pi / float64(n)))
	return g
}

// Complete returns the complete graph K_n ((n-1)-regular), n >= 2.
func Complete(n int) *Graph {
	if n < 2 {
		panic(fmt.Sprintf("graph: complete graph needs n >= 2, got %d", n))
	}
	heads := make([]int32, 0, n*(n-1))
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if v != u {
				heads = append(heads, int32(v))
			}
		}
	}
	g := must(newGraph(fmt.Sprintf("complete(%d)", n), n, n-1, heads))
	g.SetNu2(-1 / float64(n-1))
	return g
}

// Hypercube returns the r-dimensional hypercube Q_r on n = 2^r nodes
// (r-regular). The paper's related work reports hypercube-specific
// discrepancy bounds (e.g. O(log^{3/2} n) for bounded-error processes).
func Hypercube(r int) *Graph {
	if r < 1 || r > 30 {
		panic(fmt.Sprintf("graph: hypercube dimension out of range: %d", r))
	}
	n := 1 << r
	heads := make([]int32, 0, n*r)
	for u := 0; u < n; u++ {
		for b := 0; b < r; b++ {
			heads = append(heads, int32(u^(1<<b)))
		}
	}
	g := must(newGraph(fmt.Sprintf("hypercube(%d)", r), n, r, heads))
	g.SetNu2(1 - 2/float64(r))
	return g
}

// Torus returns the r-dimensional torus (Z_side)^r, 2r-regular, with
// wrap-around in every dimension. side >= 3 so that the ±1 neighbors in a
// dimension are distinct (no multi-edges).
func Torus(r, side int) *Graph {
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
	heads := make([]int32, 0, n*2*r)
	stride := make([]int, r)
	stride[0] = 1
	for i := 1; i < r; i++ {
		stride[i] = stride[i-1] * side
	}
	for u := 0; u < n; u++ {
		for i := 0; i < r; i++ {
			coord := (u / stride[i]) % side
			up := u + ((coord+1)%side-coord)*stride[i]
			down := u + ((coord-1+side)%side-coord)*stride[i]
			heads = append(heads, int32(up), int32(down))
		}
	}
	g := must(newGraph(fmt.Sprintf("torus(%d^%d)", side, r), n, 2*r, heads))
	g.SetNu2((float64(r-1) + math.Cos(2*math.Pi/float64(side))) / float64(r))
	return g
}

// Circulant returns the circulant graph on n nodes with symmetric connection
// offsets. Each offset s in offsets (0 < s < n, s != n-s unless handled)
// contributes the two neighbors u±s; if n is even and s == n/2 it contributes
// the single antipodal neighbor. Degree is 2·|{s : s != n/2}| + |{s == n/2}|.
func Circulant(n int, offsets []int) *Graph {
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
	d := 0
	for _, s := range offsets {
		if 2*s == n {
			d++
		} else {
			d += 2
		}
	}
	heads := make([]int32, 0, n*d)
	for u := 0; u < n; u++ {
		for _, s := range offsets {
			if 2*s == n {
				heads = append(heads, int32((u+s)%n))
			} else {
				heads = append(heads, int32((u+s)%n), int32((u-s+n)%n))
			}
		}
	}
	g := must(newGraph(fmt.Sprintf("circulant(%d,%v)", n, offsets), n, d, heads))
	g.SetNu2(circulantNu2(n, g.Degree(), offsets))
	return g
}

// circulantNu2 evaluates the circulant eigenvalues
// ν_k = (1/d)·Σ_s weight(s)·cos(2πks/n) exactly for k = 1..n-1 and returns
// the largest (the k = 0 eigenvalue is the trivial 1).
func circulantNu2(n, d int, offsets []int) float64 {
	best := math.Inf(-1)
	for k := 1; k < n; k++ {
		sum := 0.0
		for _, s := range offsets {
			c := math.Cos(2 * math.Pi * float64(k) * float64(s) / float64(n))
			if 2*s == n {
				sum += c
			} else {
				sum += 2 * c
			}
		}
		if v := sum / float64(d); v > best {
			best = v
		}
	}
	return best
}

// CliqueCirculant builds the d-regular graph from the proof of Theorem 4.2:
// nodes 0..n-1, with i ~ j iff (i-j) mod n ∈ {1..⌊d/2⌋} ∪ {n-⌊d/2⌋..n-1},
// plus antipodal edges when d is odd (requires even n). Nodes 0..⌊d/2⌋-1 form
// a ⌊d/2⌋-clique when n is large enough.
func CliqueCirculant(n, d int) *Graph {
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
	g := Circulant(n, offsets)
	g.name = fmt.Sprintf("clique-circulant(%d,d=%d)", n, d)
	return g
}

// GeneralizedPetersen returns GP(n, k): outer n-cycle 0..n-1, inner nodes
// n..2n-1 connected as i ~ i+k (mod n), plus spokes. 3-regular on 2n nodes;
// GP(5, 2) is the Petersen graph. Varying (n, k) sweeps the odd girth,
// which makes the family a rich fixture for Theorem 4.3. Requires n ≥ 3 and
// 1 ≤ k < n/2 (so the inner step is neither a self-arc nor an involution).
func GeneralizedPetersen(n, k int) *Graph {
	if n < 3 || k < 1 || 2*k >= n {
		panic(fmt.Sprintf("graph: generalized Petersen needs n ≥ 3, 1 ≤ k < n/2, got (%d,%d)", n, k))
	}
	heads := make([]int32, 6*n)
	for i := 0; i < n; i++ {
		copy(heads[3*i:], []int32{int32((i + 1) % n), int32((i - 1 + n) % n), int32(n + i)})
		copy(heads[3*(n+i):], []int32{int32(n + (i+k)%n), int32(n + (i-k+n)%n), int32(i)})
	}
	return must(newGraph(fmt.Sprintf("gp(%d,%d)", n, k), 2*n, 3, heads))
}

// Petersen returns the Petersen graph: 10 nodes, 3-regular, odd girth 5.
// It is a convenient non-bipartite fixture for Theorem 4.3 beyond cycles.
func Petersen() *Graph {
	heads := make([]int32, 30)
	for u := int32(0); u < 5; u++ {
		// Outer 5-cycle plus spoke.
		copy(heads[3*u:], []int32{(u + 1) % 5, (u + 4) % 5, u + 5})
		// Inner pentagram plus spoke.
		copy(heads[3*(u+5):], []int32{5 + (u+2)%5, 5 + (u+3)%5, u})
	}
	g := must(newGraph("petersen", 10, 3, heads))
	g.SetNu2(1.0 / 3.0)
	return g
}

// CompleteBipartite returns K_{k,k} (k-regular, bipartite), a fixture for
// bipartiteness-sensitive behaviour (λ_min = -1 without self-loops).
func CompleteBipartite(k int) *Graph {
	if k < 1 {
		panic(fmt.Sprintf("graph: complete bipartite needs k >= 1, got %d", k))
	}
	n := 2 * k
	// Each side lists the other side in ascending order.
	heads := make([]int32, 0, n*k)
	for _, other := range []int{k, 0} {
		for u := 0; u < k; u++ {
			for v := other; v < other+k; v++ {
				heads = append(heads, int32(v))
			}
		}
	}
	g := must(newGraph(fmt.Sprintf("K(%d,%d)", k, k), n, k, heads))
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
//
// Each node's out-neighbors are listed in ascending order.
func RandomRegular(n, d int, seed int64) *Graph {
	return sampleRegular(n, d, seed, rand.New(rand.NewSource(seed)))
}

// sampleRegular is RandomRegular drawing from rng.
func sampleRegular(n, d int, seed int64, rng *rand.Rand) *Graph {
	if d < 1 || d >= n {
		panic(fmt.Sprintf("graph: random regular needs 1 <= d < n, got d=%d n=%d", d, n))
	}
	if n*d%2 != 0 {
		panic(fmt.Sprintf("graph: random regular needs n*d even, got n=%d d=%d", n, d))
	}
	const maxAttempts = 100
	for attempt := 0; attempt < maxAttempts; attempt++ {
		heads, ok := repairedPairing(n, d, rng)
		if !ok {
			continue
		}
		g, err := newGraph(fmt.Sprintf("random-regular(%d,d=%d,seed=%d)", n, d, seed), n, d, heads)
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
// parallel edges by random 2-switches, preserving the degree sequence. It
// returns the repaired graph's flat heads: node u's d neighbors, in
// ascending order, at [u*d : (u+1)*d].
//
// Each round draws a random start, takes the first bad edge (a self-loop or
// one of a parallel pair) at or after it in cyclic edge order, draws a
// random partner edge and 2-switches the two unless that makes a self-loop
// or a parallel edge. No map is kept. Edge i is (ends[2i], ends[2i+1]), the
// i-th pair of shuffled stubs, and occupies one slot of each endpoint (a
// self-loop two of its node), where partner holds the other endpoint and inc
// the edge; the multiplicity of a pair is then a count over d slots. The bad
// edges are the set bits of a bitset kept exact across switches, so the
// next set bit at or after the start, wrapping around, is the edge a cyclic
// scan would find. The random draws, the accept/reject rule and the edge
// order are those of the plain scan over a multiplicity map. Once no edge is
// bad, partner holds every node's neighbors in slot order; dealing the nodes,
// in order, into their neighbors' rows lists every row in ascending order,
// in one pass and without a comparison.
func repairedPairing(n, d int, rng *rand.Rand) ([]int32, bool) {
	ends := make([]int32, n*d)
	for u := 0; u < n; u++ {
		for i := 0; i < d; i++ {
			ends[u*d+i] = int32(u)
		}
	}
	rng.Shuffle(len(ends), func(i, j int) { ends[i], ends[j] = ends[j], ends[i] })

	m := len(ends) / 2
	partner := make([]int32, n*d)
	inc := make([]int32, n*d)
	fill := make([]int32, n) // slots filled so far per node
	for i := 0; i < m; i++ {
		for j, u := range ends[2*i : 2*i+2] {
			s := u*int32(d) + fill[u]
			fill[u]++
			partner[s], inc[s] = ends[2*i+1-j], int32(i)
		}
	}
	// mult counts the edges u-v (u != v) other than skip1 and skip2.
	mult := func(u, v, skip1, skip2 int32) int {
		c := 0
		for s := u * int32(d); s < (u+1)*int32(d); s++ {
			if partner[s] == v && inc[s] != skip1 && inc[s] != skip2 {
				c++
			}
		}
		return c
	}
	// slot finds u's slot of edge e, skipping slot not (for a self-loop's
	// second slot).
	slot := func(u, e, not int32) int32 {
		s := u * int32(d)
		for inc[s] != e || s == not {
			s++
		}
		return s
	}
	// An edge is bad if it is a self-loop or meets its pair again among its
	// node's slots: seen[v] is one past the last node whose slots met v,
	// first[v] the edge they met it by.
	bad := make([]uint64, (m+63)/64)
	seen, first := make([]int32, n), make([]int32, n)
	for u := int32(0); u < int32(n); u++ {
		for s := u * int32(d); s < (u+1)*int32(d); s++ {
			switch v, e := partner[s], inc[s]; {
			case v == u:
				bad[e/64] |= 1 << (e % 64)
			case seen[v] == u+1:
				bad[e/64] |= 1 << (e % 64)
				bad[first[v]/64] |= 1 << (first[v] % 64)
			default:
				seen[v], first[v] = u+1, e
			}
		}
	}
	// settle clears the bad bit of the last edge u-v once its parallel twin
	// has been switched away.
	settle := func(u, v int32) {
		if u == v {
			return
		}
		last := int32(-1)
		for s := u * int32(d); s < (u+1)*int32(d); s++ {
			if partner[s] == v {
				if last >= 0 {
					return
				}
				last = inc[s]
			}
		}
		if last >= 0 {
			bad[last/64] &^= 1 << (last % 64)
		}
	}

	budget := 200 * m
	for iter := 0; iter < budget; iter++ {
		badAt := nextSet(bad, rng.Intn(m))
		if badAt < 0 {
			heads := inc // no longer read
			clear(fill)
			for u := int32(0); u < int32(n); u++ {
				for _, v := range partner[u*int32(d) : (u+1)*int32(d)] {
					heads[v*int32(d)+fill[v]] = u
					fill[v]++
				}
			}
			return heads, true
		}
		other := rng.Intn(m)
		if other == badAt {
			continue
		}
		x, y := int32(badAt), int32(other)
		a0, a1, b0, b1 := ends[2*x], ends[2*x+1], ends[2*y], ends[2*y+1]
		// 2-switch: (a0,a1)+(b0,b1) -> (a0,b1)+(b0,a1).
		if a0 == b1 || b0 == a1 {
			continue
		}
		if mult(a0, b1, x, y) > 0 || mult(b0, a1, x, y) > 0 || (a0 == a1 && b1 == b0) || (a0 == b0 && b1 == a1) {
			continue
		}
		sa0 := slot(a0, x, -1)
		sa1 := slot(a1, x, sa0)
		sb0 := slot(b0, y, -1)
		sb1 := slot(b1, y, sb0)
		// Edge x keeps a0's slot and takes b1's; edge y keeps b0's and
		// takes a1's.
		partner[sa0] = b1
		partner[sb1], inc[sb1] = a0, x
		partner[sb0] = a1
		partner[sa1], inc[sa1] = b0, y
		ends[2*x+1], ends[2*y+1] = b1, a1
		// The new edges are simple; the old pairs may have lost a twin.
		bad[x/64] &^= 1 << (x % 64)
		bad[y/64] &^= 1 << (y % 64)
		settle(a0, a1)
		settle(b0, b1)
	}
	return nil, false
}

// nextSet returns the index of the first set bit of bits at or after start,
// wrapping around to the front, or -1 if no bit is set.
func nextSet(bits []uint64, start int) int {
	w := start / 64
	if x := bits[w] >> (start % 64); x != 0 {
		return start + mathbits.TrailingZeros64(x)
	}
	for i := w + 1; i < len(bits); i++ {
		if bits[i] != 0 {
			return i*64 + mathbits.TrailingZeros64(bits[i])
		}
	}
	for i := 0; i <= w; i++ {
		if bits[i] != 0 {
			return i*64 + mathbits.TrailingZeros64(bits[i])
		}
	}
	return -1
}

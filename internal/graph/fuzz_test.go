package graph

import (
	"fmt"
	"slices"
	"testing"
)

// FuzzGraphNew holds New to a map-counting reference on small fuzzed
// adjacencies (n ≤ 16, d ≤ 6), including ragged rows and asymmetric,
// out-of-range and self arcs, and holds New and CheckSymmetric to the
// row-sorting constructor and check they replaced (refNew,
// refCheckSymmetric): the same error message, or the same graph. data[0]
// picks n, data[1] picks d, and the remaining bytes, read as int8, fill the
// rows in order; a short tail leaves the last rows short. The checked-in
// corpus under testdata/fuzz keeps valid and invalid shapes in the seed set.
func FuzzGraphNew(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n, d, rest := 1+int(data[0])%16, int(data[1])%7, data[2:]
		adj := make([][]int, n)
		for u := range adj {
			for i := 0; i < d && len(rest) > 0; i++ {
				adj[u] = append(adj[u], int(int8(rest[0])))
				rest = rest[1:]
			}
		}
		g, err := New("fuzz", adj)
		if want := referenceAccepts(adj); (err == nil) != want {
			t.Fatalf("New(%v) error %v, reference accepts %v", adj, err, want)
		}
		ref, refErr := refNew("fuzz", adj)
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("New(%v) error %v, refNew error %v", adj, err, refErr)
		}
		if got, want := fmt.Sprint(CheckSymmetric(adj)), fmt.Sprint(refCheckSymmetric(adj)); got != want {
			t.Fatalf("CheckSymmetric(%v) = %s, reference %s", adj, got, want)
		}
		if err != nil {
			return
		}
		sameGraph(t, g, ref)
		if g.N() != n || g.Degree() != d {
			t.Fatalf("n=%d d=%d, want %d %d", g.N(), g.Degree(), n, d)
		}
		for u, row := range adj {
			for i, v := range g.Neighbors(u) {
				if int(v) != row[i] {
					t.Fatalf("Neighbors(%d) = %v, want %v", u, g.Neighbors(u), row)
				}
			}
		}
		if !slices.Equal(g.RevArcSrc(), naiveRevSrc(adj)) {
			t.Fatalf("RevArcSrc = %v, want %v", g.RevArcSrc(), naiveRevSrc(adj))
		}
	})
}

// referenceAccepts is the plain definition of a valid Graph input: every row
// has the first row's positive length, every neighbor is in range and not
// the node itself, and each pair has as many arcs one way as the other.
func referenceAccepts(adj [][]int) bool {
	d := len(adj[0])
	if d == 0 {
		return false
	}
	type pair struct{ u, v int }
	count := map[pair]int{}
	for u, row := range adj {
		if len(row) != d {
			return false
		}
		for _, v := range row {
			if v < 0 || v >= len(adj) || v == u {
				return false
			}
			count[pair{u, v}]++
		}
	}
	for p, c := range count {
		if count[pair{p.v, p.u}] != c {
			return false
		}
	}
	return true
}

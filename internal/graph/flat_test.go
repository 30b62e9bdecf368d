package graph

import (
	"slices"
	"testing"
)

// raggedRows copies g's out-neighbor lists into a ragged [][]int, the form
// New takes as input.
func raggedRows(g *Graph) [][]int {
	adj := make([][]int, g.N())
	for u := range adj {
		for _, v := range g.Neighbors(u) {
			adj[u] = append(adj[u], int(v))
		}
	}
	return adj
}

// naiveRevSrc lists, node by node, the tails of the arcs whose head is v,
// by scanning the ragged rows in arc order.
func naiveRevSrc(adj [][]int) []int32 {
	in := make([][]int32, len(adj))
	for u, nbrs := range adj {
		for _, v := range nbrs {
			in[v] = append(in[v], int32(u))
		}
	}
	return slices.Concat(in...)
}

// TestFlatAdjacencyMatchesRagged checks the CSR arrays New builds against
// the ragged adjacency it was given and a reverse index scanned from it, on
// several families.
func TestFlatAdjacencyMatchesRagged(t *testing.T) {
	for _, fam := range []*Graph{
		Cycle(17),
		Hypercube(4),
		Torus(2, 5),
		RandomRegular(64, 6, 9),
	} {
		adj := raggedRows(fam)
		g := MustNew(fam.Name(), adj)
		d := g.Degree()
		heads := g.Heads()
		if len(heads) != g.N()*d {
			t.Fatalf("%s: %d flat entries, want %d", g.Name(), len(heads), g.N()*d)
		}
		for u, nbrs := range adj {
			for i, v := range nbrs {
				if int(heads[u*d+i]) != v {
					t.Fatalf("%s: heads[%d*%d+%d] = %d, want %d", g.Name(), u, d, i, heads[u*d+i], v)
				}
			}
		}

		// The flat reverse index must agree with the scanned one entry for
		// entry (both list in-arc tails in arc order).
		want := naiveRevSrc(adj)
		for k, u := range g.RevArcSrc() {
			if u != want[k] {
				t.Fatalf("%s: rev entry %d of node %d: src=%d, want %d", g.Name(), k%d, k/d, u, want[k])
			}
		}
	}
}

// TestFlatArraysSharedAndStable ensures accessors return the same backing
// arrays on every call (the engine caches them at construction).
func TestFlatArraysSharedAndStable(t *testing.T) {
	g := Cycle(8)
	if &g.Heads()[0] != &g.Heads()[0] {
		t.Fatal("Heads returns different backing arrays")
	}
	if &g.RevArcSrc()[0] != &g.RevArcSrc()[0] {
		t.Fatal("RevArcSrc returns different backing arrays")
	}
	if &g.Neighbors(3)[0] != &g.Heads()[3*g.Degree()] {
		t.Fatal("Neighbors must be a view of Heads")
	}
}

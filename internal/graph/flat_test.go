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

// naiveRevPos lists, node by node, the positions u*d+i of the arcs whose head
// is v, by scanning the ragged rows in arc order.
func naiveRevPos(adj [][]int) []int32 {
	in := make([][]int32, len(adj))
	for u, nbrs := range adj {
		for i, v := range nbrs {
			in[v] = append(in[v], int32(u*len(nbrs)+i))
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
		// entry (both list in-arcs in ascending arc order).
		revPos := g.RevArcPos()
		want := naiveRevPos(adj)
		for k, p := range revPos {
			v := k / d
			if p != want[k] {
				t.Fatalf("%s: revPos[%d*%d+%d] = %d, want arc %d", g.Name(), v, d, k%d, p, want[k])
			}
			if int(heads[p]) != v {
				t.Fatalf("%s: reverse entry %d of node %d points to arc with head %d", g.Name(), k%d, v, heads[p])
			}
		}

		// The source-node component must match the positions it was derived from.
		src := g.RevArcSrc()
		for k, p := range revPos {
			if int(src[k]) != int(p)/d {
				t.Fatalf("%s: rev entry %d: src=%d, want %d", g.Name(), k, src[k], int(p)/d)
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
	if &g.RevArcPos()[0] != &g.RevArcPos()[0] {
		t.Fatal("RevArcPos returns different backing arrays")
	}
	if &g.Neighbors(3)[0] != &g.Heads()[3*g.Degree()] {
		t.Fatal("Neighbors must be a view of Heads")
	}
}

package graph

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// WriteDOT emits the graph in Graphviz DOT format (undirected; each
// symmetric arc pair is rendered once). Node labels are optional per-node
// annotations — experiment tooling uses them to show loads or BFS levels.
func (g *Graph) WriteDOT(w io.Writer, labels map[int]string) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "graph %q {\n", g.name)
	sb.WriteString("  node [shape=circle];\n")
	keys := make([]int, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, u := range keys {
		fmt.Fprintf(&sb, "  %d [label=%q];\n", u, labels[u])
	}
	// Render each undirected edge once; parallel edges keep multiplicity.
	for u := 0; u < g.n; u++ {
		for _, v := range g.Neighbors(u) {
			if int(v) >= u {
				fmt.Fprintf(&sb, "  %d -- %d;\n", u, v)
			}
		}
	}
	sb.WriteString("}\n")
	_, err := io.WriteString(w, sb.String())
	if err != nil {
		return fmt.Errorf("graph: write dot: %w", err)
	}
	return nil
}

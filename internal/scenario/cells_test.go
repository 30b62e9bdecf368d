package scenario

import (
	"maps"
	"reflect"
	"slices"
	"testing"

	"detlb/internal/analysis"
)

// TestFamilyCellsAreIndependent: a family binds one algorithm instance per
// (graph, algorithm) pair, so a family's cells share it and the sweep runs
// them in order on one runner. A cell's result must not depend on the cells
// run before it: for every balancer kind, the second cell of a two-workload
// family under Sweep equals that cell bound alone and Run, full series
// included.
func TestFamilyCellsAreIndependent(t *testing.T) {
	required := map[string]string{"good": ":2"}
	for _, kind := range slices.Sorted(maps.Keys(algoRegistry)) {
		t.Run(kind, func(t *testing.T) {
			fam, err := ParseFamily("random:64,8,3", kind+required[kind], "point:100000;random:5000,7", "", "")
			if err != nil {
				t.Fatal(err)
			}
			fam.Run = RunParams{Rounds: 300, SampleEvery: 1}
			specs, cells, err := fam.Bind()
			if err != nil {
				t.Fatal(err)
			}
			if len(specs) != 2 || specs[0].Algorithm != specs[1].Algorithm {
				t.Fatalf("expected two cells sharing one algorithm instance, got %d", len(specs))
			}
			swept := analysis.Sweep(specs, analysis.SweepOptions{Workers: 1})
			alone, err := cells[1].Bind()
			if err != nil {
				t.Fatal(err)
			}
			want := analysis.Run(alone)
			if want.Err != nil {
				t.Fatal(want.Err)
			}
			if !reflect.DeepEqual(swept[1], want) {
				t.Fatalf("second cell under Sweep differs from the cell run alone:\n got %+v\nwant %+v", swept[1], want)
			}
		})
	}
}

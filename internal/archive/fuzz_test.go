package archive

import (
	"strings"
	"testing"
)

// FuzzQuerySpec holds the query grammar to three properties over fuzzed
// where/select/group/agg text (newlines separate repeated parameters):
// ParseQuerySpec never panics; a query it accepts runs on a small
// synthetic index without panicking or failing; and every result row is as
// wide as the result's Columns. Seeded from testdata/fuzz/FuzzQuerySpec.
func FuzzQuerySpec(f *testing.F) {
	f.Add("graph_kind=torus", "digest,name,rounds,final_discrepancy", "", "")
	f.Add("", "", "graph_kind", "count,mean(shock_recovery_rounds_mean),max(shock_peak_discrepancy_max)")
	f.Add("rounds>=12\nstopped_early=false", "graph,rounds", "", "")
	f.Add("graph~cube", "", "graph_kind\nalgo", "min(rounds),sum(shocks)")
	f.Add("final_discrepancy!=0", "", "", "")
	f.Add("rounds<", "nosuchcolumn", "", "median(rounds)")

	arch, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	putSynth(f, arch, 8)
	ix := NewIndex(arch)

	f.Fuzz(func(t *testing.T, where, sel, group, aggs string) {
		q, err := ParseQuerySpec(QuerySpec{
			Where:  lines(where),
			Select: lines(sel),
			Group:  lines(group),
			Aggs:   lines(aggs),
		})
		if err != nil {
			return
		}
		res, err := ix.Query(q)
		if err != nil {
			t.Fatalf("accepted query %+v failed: %v", q, err)
		}
		for i, row := range res.Rows {
			if len(row) != len(res.Columns) {
				t.Fatalf("row %d has %d values for %d columns %v", i, len(row), len(res.Columns), res.Columns)
			}
		}
	})
}

// lines splits fuzzed text into repeated parameters; empty text is none.
func lines(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}

package analysis

import (
	"strconv"
	"strings"
	"testing"
)

func quickCfg() Config { return Config{Quick: true, Seed: 1} }

// cell fetches a named column from a table row.
func cell(t *testing.T, tab *Table, row int, col string) string {
	t.Helper()
	for i, h := range tab.Header {
		if h == col {
			return tab.Rows[row][i]
		}
	}
	t.Fatalf("no column %q in %v", col, tab.Header)
	return ""
}

func cellFloat(t *testing.T, tab *Table, row int, col string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell(t, tab, row, col), 64)
	if err != nil {
		t.Fatalf("column %q row %d: %v", col, row, err)
	}
	return v
}

func TestTable1Shape(t *testing.T) {
	tab := Table1(quickCfg())
	if len(tab.Rows) != 4*10 {
		t.Fatalf("expected 40 rows (4 graphs × 10 algorithms), got %d", len(tab.Rows))
	}
	for r := range tab.Rows {
		if got := cell(t, tab, r, "disc"); got == "ERR" {
			t.Fatalf("row %d errored: %v", r, tab.Rows[r])
		}
		// Every deterministic fair balancer must land at O(d): disc/d ≤ 8.
		name := cell(t, tab, r, "algorithm")
		switch name {
		case "send-floor", "send-round", "rotor-router", "rotor-router*":
			if ratio := cellFloat(t, tab, r, "disc/d"); ratio > 8 {
				t.Errorf("%s on %s: disc/d = %v", name, cell(t, tab, r, "graph"), ratio)
			}
		}
		// Negative loads only ever on the two baselines that admit them.
		if neg := cell(t, tab, r, "neg rounds"); neg != "0" {
			if name != "randomized-rounding" && name != "continuous-mimic" && name != "bounded-error" {
				t.Errorf("%s reported negative loads", name)
			}
		}
	}
}

func TestTable1FairnessColumns(t *testing.T) {
	tab := Table1(quickCfg())
	for r := range tab.Rows {
		name := cell(t, tab, r, "algorithm")
		delta, err := strconv.ParseInt(cell(t, tab, r, "max δ"), 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		switch name {
		case "send-floor", "send-round":
			if delta != 0 {
				t.Errorf("%s: δ = %d, want 0", name, delta)
			}
		case "rotor-router", "rotor-router*":
			if delta > 1 {
				t.Errorf("%s: δ = %d, want ≤ 1", name, delta)
			}
		case "biased-rounding":
			if delta < 10 {
				t.Errorf("biased rounding: δ = %d, expected growth", delta)
			}
		}
	}
}

func TestThm23ExpanderWithinBound(t *testing.T) {
	tab := Thm23Expander(quickCfg())
	for r := range tab.Rows {
		if ratio := cellFloat(t, tab, r, "disc/bound"); ratio > 1 {
			t.Errorf("row %d: measured discrepancy exceeds Theorem 2.3(i) bound (ratio %v)", r, ratio)
		}
	}
}

func TestThm23CycleWithinBound(t *testing.T) {
	tab := Thm23Cycle(quickCfg())
	for r := range tab.Rows {
		if ratio := cellFloat(t, tab, r, "disc/bound"); ratio > 1 {
			t.Errorf("row %d: measured discrepancy exceeds Theorem 2.3(ii) bound (ratio %v)", r, ratio)
		}
	}
}

func TestThm33ReachesTarget(t *testing.T) {
	tab := Thm33GoodS(quickCfg())
	for r := range tab.Rows {
		if got := cell(t, tab, r, "rounds-to-target"); got == "not reached" {
			t.Errorf("%s never reached the O(d) target", cell(t, tab, r, "algorithm"))
		}
		disc, err := strconv.ParseInt(cell(t, tab, r, "disc@stop"), 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		bound, err := strconv.ParseInt(cell(t, tab, r, "bound33"), 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		if disc > bound {
			t.Errorf("%s: discrepancy %d above Theorem 3.3 bound %d",
				cell(t, tab, r, "algorithm"), disc, bound)
		}
	}
}

func TestThm41Steady(t *testing.T) {
	tab := Thm41(quickCfg())
	for r := range tab.Rows {
		if cell(t, tab, r, "steady") != "true" {
			t.Errorf("row %d not steady", r)
		}
		if cell(t, tab, r, "round-fair") != "yes" {
			t.Errorf("row %d not round-fair: %s", r, cell(t, tab, r, "round-fair"))
		}
		if ratio := cellFloat(t, tab, r, "disc/(d·diam)"); ratio < 1 {
			t.Errorf("row %d: discrepancy below d·diam (ratio %v)", r, ratio)
		}
	}
}

func TestThm42PinnedAtHalfD(t *testing.T) {
	tab := Thm42(quickCfg())
	for r := range tab.Rows {
		if strings.HasPrefix(cell(t, tab, r, "disc"), "ERR") {
			t.Fatalf("row %d errored", r)
		}
		if ratio := cellFloat(t, tab, r, "disc/d"); ratio < 0.3 {
			t.Errorf("row %d: disc/d = %v, want ≈ 1/2", r, ratio)
		}
	}
}

func TestThm43PeriodTwo(t *testing.T) {
	tab := Thm43(quickCfg())
	for r := range tab.Rows {
		if cell(t, tab, r, "period2") != "true" {
			t.Errorf("row %d: not period-2: %v", r, tab.Rows[r])
		}
		if ratio := cellFloat(t, tab, r, "disc/(d·φ)"); ratio < 1 {
			t.Errorf("row %d: min discrepancy below d·φ (ratio %v)", r, ratio)
		}
	}
}

func TestFairnessAuditMatchesPaper(t *testing.T) {
	tab := FairnessAudit(quickCfg())
	for r := range tab.Rows {
		name := cell(t, tab, r, "algorithm")
		measured := cell(t, tab, r, "measured δ")
		if strings.Contains(measured, "FAIL") {
			t.Fatalf("%s failed its audits: %s", name, measured)
		}
		switch name {
		case "send-floor", "send-round":
			if measured != "0" {
				t.Errorf("%s: δ = %s", name, measured)
			}
		case "rotor-router", "rotor-router*":
			if measured != "0" && measured != "1" {
				t.Errorf("%s: δ = %s", name, measured)
			}
		}
	}
}

func TestPotentialDropNoViolations(t *testing.T) {
	tab := PotentialDrop(quickCfg())
	for r := range tab.Rows {
		if got := cell(t, tab, r, "violations"); got != "0" {
			t.Errorf("row %d: %s potential violations", r, got)
		}
		if got := cell(t, tab, r, "φ(c0) end"); got != "0" {
			t.Errorf("row %d: φ(c0) not drained: %s", r, got)
		}
	}
}

func TestExpanderHeadlineFairBeatsBiased(t *testing.T) {
	tab := ExpanderHeadline(quickCfg())
	for r := range tab.Rows {
		if ratio := cellFloat(t, tab, r, "biased/fair"); ratio < 1 {
			t.Errorf("n=%s: biased rounding beat the fair balancer (ratio %v)",
				cell(t, tab, r, "n"), ratio)
		}
	}
}

func TestMatchingModelReachesConstant(t *testing.T) {
	tab := MatchingModel(quickCfg())
	for r := range tab.Rows {
		if cell(t, tab, r, "model") == "diffusive" {
			continue
		}
		disc, err := strconv.ParseInt(cell(t, tab, r, "disc"), 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		if disc > 2 {
			t.Errorf("%s: matching model discrepancy %d, want ≤ 2",
				cell(t, tab, r, "algorithm"), disc)
		}
	}
}

func TestIrregularExperimentConverges(t *testing.T) {
	tab := IrregularExperiment(quickCfg())
	for r := range tab.Rows {
		if rd := cellFloat(t, tab, r, "relative disc"); rd > 4 {
			t.Errorf("row %d: relative discrepancy %v on %s", r, rd, cell(t, tab, r, "graph"))
		}
	}
}

func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in non-short mode only")
	}
	tabs := AllExperiments(quickCfg())
	if len(tabs) != 16 {
		t.Fatalf("expected 16 tables, got %d", len(tabs))
	}
	exps := Experiments()
	seen := map[string]bool{}
	for i, tab := range tabs {
		id := exps[i].ID
		if seen[id] {
			t.Errorf("experiment ID %q is registered twice", id)
		}
		seen[id] = true
		if !strings.HasPrefix(tab.Title, id+":") {
			t.Errorf("table %d title %q does not start with its ID %q", i, tab.Title, id+":")
		}
		if len(tab.Rows) == 0 {
			t.Errorf("table %q is empty", tab.Title)
		}
	}
}

func TestWeightedExperimentBounded(t *testing.T) {
	tab := WeightedExperiment(quickCfg())
	for r := range tab.Rows {
		if ratio := cellFloat(t, tab, r, "disc/(d·w_max)"); ratio > 4 {
			t.Errorf("row %d (%s): weighted discrepancy ratio %v", r, cell(t, tab, r, "weights"), ratio)
		}
	}
}

func TestAblationSelfLoopsLazyRegimeBalances(t *testing.T) {
	tab := AblationSelfLoops(quickCfg())
	for r := range tab.Rows {
		if cell(t, tab, r, "lazy?") == "true" && cell(t, tab, r, "disc ≤ 2d?") != "yes" {
			t.Errorf("lazy row %d failed to balance: %v", r, tab.Rows[r])
		}
	}
}

func TestAblationRotorOrderComparable(t *testing.T) {
	tab := AblationRotorOrder(quickCfg())
	var lo, hi float64
	for r := range tab.Rows {
		v := cellFloat(t, tab, r, "min disc")
		if r == 0 || v < lo {
			lo = v
		}
		if r == 0 || v > hi {
			hi = v
		}
		if delta := cellFloat(t, tab, r, "measured δ"); delta > 1 {
			t.Errorf("order %s broke cumulative 1-fairness (δ=%v)", cell(t, tab, r, "order"), delta)
		}
	}
	if hi-lo > 8 {
		t.Errorf("slot orders should be comparable: min disc spread %v..%v", lo, hi)
	}
}

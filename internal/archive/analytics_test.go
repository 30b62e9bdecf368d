package archive

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"detlb/internal/analysis"
	"detlb/internal/columns"
	"detlb/internal/scenario"
	"detlb/internal/trace"
)

// synthGraphs rotate the graph kind across synthetic entries so grouped
// queries have several graph_kind groups to land in.
var synthGraphs = []string{"cycle:8", "torus:3,2", "hypercube:3", "complete:8"}

// synthResult builds a deterministic RunResult for entry ordinal i: every
// field is a pure function of i, so two generators produce byte-identical
// archives.
func synthResult(i int) analysis.RunResult {
	return analysis.RunResult{
		Rounds:             10 + i%5,
		Horizon:            40,
		BalancingTime:      20,
		Gap:                0.25,
		InitialDiscrepancy: 64,
		FinalDiscrepancy:   int64(i % 3),
		MinDiscrepancy:     int64(i % 3),
		TargetRound:        5 + i%5,
		ReachedTarget:      true,
		Shocks: []analysis.Shock{{
			Round:           8,
			Added:           32,
			Discrepancy:     32,
			PeakDiscrepancy: int64(20 + i%10),
			RecoveryRound:   10 + i%7,
			RecoveryRounds:  2 + i%7,
		}},
	}
}

// putSynth archives n synthetic single-cell entries (distinct family names
// give distinct digests) and returns their digests in creation order.
func putSynth(t testing.TB, arch *Store, n int) []string {
	t.Helper()
	digests := make([]string, n)
	for i := range n {
		digests[i] = putSynthEntry(t, arch, fmt.Sprintf("synth-%03d", i), synthGraphs[i%len(synthGraphs)], synthResult(i))
	}
	return digests
}

// putSynthEntry archives one single-cell entry built from a graph spec and a
// fabricated result, returning its digest.
func putSynthEntry(t testing.TB, arch *Store, name, graphSpec string, res analysis.RunResult) string {
	t.Helper()
	fam, err := scenario.ParseFamily(graphSpec, "send-floor", "point:64", "", "")
	if err != nil {
		t.Fatal(err)
	}
	fam.Name = name
	digest, canonical, err := fam.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	cells := fam.Scenarios()
	cols := make([]scenario.CellColumns, len(cells))
	for j, c := range cells {
		cols[j] = c.Columns()
	}
	doc, _, err := BuildResultDoc(fam.Name, digest, cols, make([]analysis.RunSpec, len(cells)), repeatResult(res, len(cells)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := arch.Put(digest, canonical, doc); err != nil {
		t.Fatal(err)
	}
	return digest
}

func repeatResult(res analysis.RunResult, n int) []analysis.RunResult {
	out := make([]analysis.RunResult, n)
	for i := range out {
		out[i] = res
	}
	return out
}

func mustQueryJSON(t *testing.T, ix *Index, q Query) []byte {
	t.Helper()
	res, err := ix.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func mustParse(t *testing.T, spec QuerySpec) Query {
	t.Helper()
	q, err := ParseQuerySpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestIndexDeterminism: the same archive directory yields byte-identical
// query output — across repeated evaluations, and between an index warmed
// incrementally by the write path (Add) and one rebuilt cold from disk.
func TestIndexDeterminism(t *testing.T) {
	dir := t.TempDir()
	arch, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warmed := NewIndex(arch)
	for i := range 12 {
		fam, err := scenario.ParseFamily(synthGraphs[i%len(synthGraphs)], "send-floor", "point:64", "", "")
		if err != nil {
			t.Fatal(err)
		}
		fam.Name = fmt.Sprintf("synth-%03d", i)
		digest, canonical, err := fam.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		cells := fam.Scenarios()
		cols := make([]scenario.CellColumns, len(cells))
		for j, c := range cells {
			cols[j] = c.Columns()
		}
		doc, _, err := BuildResultDoc(fam.Name, digest, cols, make([]analysis.RunSpec, len(cells)), repeatResult(synthResult(i), len(cells)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := arch.Put(digest, canonical, doc); err != nil {
			t.Fatal(err)
		}
		if err := warmed.Add(digest, canonical, doc); err != nil {
			t.Fatal(err)
		}
	}

	queries := []Query{
		{}, // full projection
		mustParse(t, QuerySpec{Where: []string{"graph_kind=torus"}, Select: []string{"digest,name,rounds,final_discrepancy"}}),
		mustParse(t, QuerySpec{Group: []string{"graph_kind"}, Aggs: []string{"count", "mean(shock_recovery_rounds_mean)", "max(shock_peak_discrepancy_max)"}}),
	}
	coldStore, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := NewIndex(coldStore)
	for qi, q := range queries {
		first := mustQueryJSON(t, warmed, q)
		if again := mustQueryJSON(t, warmed, q); !bytes.Equal(first, again) {
			t.Fatalf("query %d: repeated evaluation diverged", qi)
		}
		if rebuilt := mustQueryJSON(t, cold, q); !bytes.Equal(first, rebuilt) {
			t.Fatalf("query %d: disk-rebuilt index diverged from the Put-warmed one:\n%s\nvs\n%s", qi, first, rebuilt)
		}
		// CSV must be deterministic too.
		res, err := warmed.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		var a, b bytes.Buffer
		if err := res.WriteCSV(&a); err != nil {
			t.Fatal(err)
		}
		res2, err := cold.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if err := res2.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("query %d: csv diverged", qi)
		}
	}
}

// TestIndexCorruptEntries: damaged entries surface ErrCorrupt — never a
// panic, never a silent skip.
func TestIndexCorruptEntries(t *testing.T) {
	t.Run("truncated result", func(t *testing.T) {
		dir := t.TempDir()
		arch, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		digests := putSynth(t, arch, 1)
		path := filepath.Join(dir, digests[0], ResultFile)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		cold, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewIndex(cold).Query(Query{}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncated result.json: want ErrCorrupt, got %v", err)
		}
	})

	t.Run("digest mismatch", func(t *testing.T) {
		dir := t.TempDir()
		arch, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		digests := putSynth(t, arch, 1)
		path := filepath.Join(dir, digests[0], ResultFile)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		forged := bytes.Replace(data, []byte(digests[0]), []byte(strings.Repeat("f", 64)), 1)
		if err := os.WriteFile(path, forged, 0o644); err != nil {
			t.Fatal(err)
		}
		cold, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewIndex(cold).Query(Query{}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("forged digest: want ErrCorrupt, got %v", err)
		}
	})

	t.Run("cell count mismatch", func(t *testing.T) {
		dir := t.TempDir()
		arch, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		digests := putSynth(t, arch, 1)
		path := filepath.Join(dir, digests[0], ResultFile)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc ResultDoc
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		doc.Cells = append(doc.Cells, doc.Cells[0])
		forged, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(forged, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		cold, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewIndex(cold).Query(Query{}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("extra cell: want ErrCorrupt, got %v", err)
		}
	})
}

// TestParseQuerySpecErrors: the grammar rejects malformed input with typed
// compile errors, not at evaluation time.
func TestParseQuerySpecErrors(t *testing.T) {
	bad := []QuerySpec{
		{Where: []string{"nosuchcolumn=1"}},
		{Where: []string{"graph<cycle"}},        // ordering op on a string column
		{Where: []string{"rounds~5"}},           // substring op on a numeric column
		{Where: []string{"rounds=abc"}},         // non-numeric literal
		{Where: []string{"stopped_early=yes"}},  // bad bool literal
		{Where: []string{"stopped_early<true"}}, // ordering op on a bool column
		{Where: []string{"=5"}},                 // missing column
		{Where: []string{"rounds"}},             // missing operator
		{Select: []string{"nosuchcolumn"}},
		{Select: []string{"rounds"}, Group: []string{"graph_kind"}}, // select+group
		{Group: []string{"nosuchcolumn"}},
		{Aggs: []string{"median(rounds)"}},
		{Aggs: []string{"min(graph)"}}, // aggregate over a string column
		{Aggs: []string{"count(rounds)"}},
		{Aggs: []string{"min"}}, // op without column
	}
	for _, spec := range bad {
		if _, err := ParseQuerySpec(spec); err == nil {
			t.Errorf("spec %+v: want error, got none", spec)
		}
	}
	// A representative well-formed spec must parse.
	q := mustParse(t, QuerySpec{
		Where: []string{"graph_kind=cycle", "rounds>=10", "error=", "stopped_early=false"},
		Group: []string{"graph_kind,algo_kind"},
		Aggs:  []string{"count", "mean(rounds)", "max(final_discrepancy)"},
	})
	if len(q.Where) != 4 || len(q.GroupBy) != 2 || len(q.Aggs) != 3 {
		t.Fatalf("parsed query: %+v", q)
	}
}

// TestQueryPlain: filters and projection over a synthetic archive, rows in
// (digest, cell) order.
func TestQueryPlain(t *testing.T) {
	arch, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	putSynth(t, arch, 12)
	ix := NewIndex(arch)

	res, err := ix.Query(mustParse(t, QuerySpec{
		Where:  []string{"graph_kind=torus"},
		Select: []string{"digest", "graph_kind", "rounds"},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 3 || res.Columns[0] != "digest" {
		t.Fatalf("columns: %v", res.Columns)
	}
	if len(res.Rows) != 3 { // 12 entries, every 4th is a torus
		t.Fatalf("rows: %d, want 3", len(res.Rows))
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i-1][0].(string) >= res.Rows[i][0].(string) {
			t.Fatal("rows not in digest order")
		}
	}

	// Substring and ordering filters compose conjunctively.
	res, err = ix.Query(mustParse(t, QuerySpec{
		Where:  []string{"graph~cube", "final_discrepancy<=1"},
		Select: []string{"name"},
	}))
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if !strings.HasPrefix(row[0].(string), "synth-") {
			t.Fatalf("unexpected row: %v", row)
		}
	}

	// Empty projection = the full registry, in registry order.
	res, err = ix.Query(Query{})
	if err != nil {
		t.Fatal(err)
	}
	regs := columns.Queryable()
	if len(res.Columns) != len(regs) {
		t.Fatalf("default projection: %d columns, want %d", len(res.Columns), len(regs))
	}
	for i, col := range regs {
		if res.Columns[i] != col.Name {
			t.Fatalf("column %d: %s, want %s", i, res.Columns[i], col.Name)
		}
	}
	if len(res.Rows) != 12 {
		t.Fatalf("rows: %d, want 12", len(res.Rows))
	}
}

// TestIndexRecoveryCoversRecoveredOnly: the recovery mean and max columns
// count recovered events only. An unrecovered event (RecoveryRounds −1)
// moves neither, and a cell where nothing recovered reads 0 for both.
func TestIndexRecoveryCoversRecoveredOnly(t *testing.T) {
	arch, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	result := func(recoveries ...int) analysis.RunResult {
		res := synthResult(0)
		res.Shocks = nil
		for _, rec := range recoveries {
			res.Shocks = append(res.Shocks, analysis.Shock{Round: 8, PeakDiscrepancy: 40, RecoveryRound: -1, RecoveryRounds: rec})
			res.Faults = append(res.Faults, analysis.FaultEvent{Round: 8, PeakDiscrepancy: 40, RecoveryRound: -1, RecoveryRounds: rec})
		}
		return res
	}
	putSynthEntry(t, arch, "mixed", "cycle:8", result(10, -1))
	putSynthEntry(t, arch, "unrecovered", "cycle:8", result(-1, -1))
	ix := NewIndex(arch)

	for _, c := range []struct{ name, want string }{
		{"mixed", "[10 10 10 10]"},
		{"unrecovered", "[0 0 0 0]"},
	} {
		res, err := ix.Query(mustParse(t, QuerySpec{
			Where: []string{"name=" + c.name},
			Select: []string{"shock_recovery_rounds_mean,shock_recovery_rounds_max," +
				"fault_recovery_rounds_mean,fault_recovery_rounds_max"},
		}))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("%s: %d rows, want 1", c.name, len(res.Rows))
		}
		if got := fmt.Sprint(res.Rows[0]); got != c.want {
			t.Errorf("%s: recovery mean/max = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestQueryGrouped: grouped rows emit in sorted key order with typed
// aggregate values; a global aggregate over zero matches still emits its row.
func TestQueryGrouped(t *testing.T) {
	arch, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	putSynth(t, arch, 12)
	ix := NewIndex(arch)

	res, err := ix.Query(mustParse(t, QuerySpec{
		Group: []string{"graph_kind"},
		Aggs:  []string{"count", "max(shock_recovery_rounds_max)", "mean(rounds)"},
	}))
	if err != nil {
		t.Fatal(err)
	}
	wantCols := []string{"graph_kind", "count", "max(shock_recovery_rounds_max)", "mean(rounds)"}
	if !reflect.DeepEqual(res.Columns, wantCols) {
		t.Fatalf("columns: %v", res.Columns)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("groups: %d, want 4", len(res.Rows))
	}
	var kinds []string
	for _, row := range res.Rows {
		kinds = append(kinds, row[0].(string))
		if row[1].(int64) != 3 {
			t.Fatalf("group %v: count %v, want 3", row[0], row[1])
		}
		if _, ok := row[2].(int64); !ok { // integral column keeps integral max
			t.Fatalf("max over int column: %T", row[2])
		}
		if _, ok := row[3].(float64); !ok { // mean is always a float
			t.Fatalf("mean: %T", row[3])
		}
	}
	if !sortedStrings(kinds) {
		t.Fatalf("group keys not sorted: %v", kinds)
	}

	// Bare group-by defaults to a count aggregate.
	res, err = ix.Query(mustParse(t, QuerySpec{Group: []string{"graph_kind"}}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Columns, []string{"graph_kind", "count"}) {
		t.Fatalf("bare group columns: %v", res.Columns)
	}

	// Global aggregation over zero matching cells: one row, count 0, null mean.
	res, err = ix.Query(mustParse(t, QuerySpec{
		Where: []string{"n>999999"},
		Aggs:  []string{"count", "mean(rounds)"},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].(int64) != 0 || res.Rows[0][1] != nil {
		t.Fatalf("empty global aggregate: %v", res.Rows)
	}
}

func sortedStrings(s []string) bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] >= s[i] {
			return false
		}
	}
	return true
}

// TestEntriesFilter: an entry qualifies when at least one cell matches all
// clauses; no filters = the full indexed listing.
func TestEntriesFilter(t *testing.T) {
	arch, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	putSynth(t, arch, 8)
	ix := NewIndex(arch)

	all, err := ix.Entries(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 8 {
		t.Fatalf("unfiltered: %d entries, want 8", len(all))
	}
	q := mustParse(t, QuerySpec{Where: []string{"graph_kind=hypercube"}})
	some, err := ix.Entries(q.Where)
	if err != nil {
		t.Fatal(err)
	}
	if len(some) != 2 { // ordinals 2 and 6
		t.Fatalf("filtered: %d entries, want 2", len(some))
	}
	none, err := ix.Entries(mustParse(t, QuerySpec{Where: []string{"graph_kind=petersen"}}).Where)
	if err != nil {
		t.Fatal(err)
	}
	if none == nil || len(none) != 0 {
		t.Fatalf("no-match listing must be empty but non-nil: %#v", none)
	}
}

// TestDiff: alignment by descriptor key, field deltas on aligned cells,
// structural one-side keys, and the identical fast path.
func TestDiff(t *testing.T) {
	arch, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ix := NewIndex(arch)

	// Same descriptor, same results, different family names → identical.
	a := putSynthEntry(t, arch, "left", "cycle:8", synthResult(0))
	b := putSynthEntry(t, arch, "right", "cycle:8", synthResult(0))
	rep, err := ix.Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != DiffIdentical || rep.Aligned != 1 || len(rep.Differing) != 0 {
		t.Fatalf("identical diff: %+v", rep)
	}

	// Same descriptor, diverged results → per-column deltas.
	c := putSynthEntry(t, arch, "changed", "cycle:8", synthResult(1))
	rep, err = ix.Diff(a, c)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != DiffDiffers || len(rep.Differing) != 1 {
		t.Fatalf("differing diff: %+v", rep)
	}
	deltas := map[string]FieldDelta{}
	for _, d := range rep.Differing[0].Fields {
		deltas[d.Column] = d
	}
	rd, ok := deltas[columns.Rounds]
	if !ok || rd.A != "10" || rd.B != "11" || rd.Delta != 1 {
		t.Fatalf("rounds delta: %+v (fields %v)", rd, rep.Differing[0].Fields)
	}
	if _, ok := deltas[columns.Digest]; ok {
		t.Fatal("diff compared the digest column")
	}

	// Different descriptors → structural additions/removals, nothing aligned.
	d := putSynthEntry(t, arch, "other-graph", "hypercube:3", synthResult(0))
	rep, err = ix.Diff(a, d)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != DiffDiffers || rep.Aligned != 0 || len(rep.OnlyA) != 1 || len(rep.OnlyB) != 1 {
		t.Fatalf("structural diff: %+v", rep)
	}

	// Unknown digests are ErrNotFound.
	if _, err := ix.Diff(a, strings.Repeat("0", 64)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing side: %v", err)
	}
}

// TestRowValueCoverage pins that every registry column is bound in rowValue:
// a row with every field set to a non-zero value must project a non-zero
// value of the column's kind for every queryable column.
func TestRowValueCoverage(t *testing.T) {
	r := row{
		digest: "d", name: "nm", cell: 1,
		graph: "g", graphKind: "gk", algo: "a", algoKind: "ak",
		workload: "w", workloadKind: "wk", schedule: "s", topology: "t",
		metric: "m", errMsg: "e",
		n: 2, degree: 3, selfLoops: 4,
		gap: 0.5, balancingTime: 6, horizon: 7, rounds: 8,
		initialDisc: 9, finalDisc: 10, minDisc: 11, targetRound: 12,
		stoppedEarly: true, reachedTarget: true,
		shocks: 13, faults: 14, seriesLen: 15,
		shockRecMax: 16, shockRecMean: 17.5, shockPeakMax: 18,
		faultRecMax: 19, faultRecMean: 20.5, faultPeakMax: 21,
	}
	for _, col := range columns.Queryable() {
		v := rowValue(&r, col)
		if v.kind != col.Kind {
			t.Errorf("column %s: kind %v, want %v", col.Name, v.kind, col.Kind)
		}
		switch rendered := v.render(); rendered {
		case "", "0", "false":
			t.Errorf("column %s projected zero value %q — unbound in rowValue?", col.Name, rendered)
		}
	}
}

// TestWireTagsPinned pins the wire structs' json tags to the columns
// registry: the single source every wire surface (result documents, trace
// records, query projection) must agree on.
func TestWireTagsPinned(t *testing.T) {
	pin := func(v any, field, want string) {
		t.Helper()
		f, ok := reflect.TypeOf(v).FieldByName(field)
		if !ok {
			t.Fatalf("%T has no field %s", v, field)
		}
		tag := strings.Split(f.Tag.Get("json"), ",")[0]
		if tag != want {
			t.Errorf("%T.%s: json tag %q, want %q", v, field, tag, want)
		}
	}
	pin(CellResult{}, "Graph", columns.Graph)
	pin(CellResult{}, "Algo", columns.Algo)
	pin(CellResult{}, "Workload", columns.Workload)
	pin(CellResult{}, "Schedule", columns.Schedule)
	pin(CellResult{}, "Topology", columns.Topology)
	pin(CellResult{}, "Metric", columns.Metric)
	pin(CellResult{}, "N", columns.N)
	pin(CellResult{}, "Degree", columns.Degree)
	pin(CellResult{}, "SelfLoops", columns.SelfLoops)
	pin(CellResult{}, "Gap", columns.Gap)
	pin(CellResult{}, "BalancingTime", columns.BalancingTime)
	pin(CellResult{}, "Horizon", columns.Horizon)
	pin(CellResult{}, "Rounds", columns.Rounds)
	pin(CellResult{}, "InitialDisc", columns.InitialDiscrepancy)
	pin(CellResult{}, "FinalDisc", columns.FinalDiscrepancy)
	pin(CellResult{}, "MinDisc", columns.MinDiscrepancy)
	pin(CellResult{}, "TargetRound", columns.TargetRound)
	pin(CellResult{}, "StoppedEarly", columns.StoppedEarly)
	pin(CellResult{}, "ReachedTarget", columns.ReachedTarget)
	pin(CellResult{}, "Shocks", columns.Shocks)
	pin(CellResult{}, "Faults", columns.Faults)
	pin(CellResult{}, "Series", columns.Series)
	pin(CellResult{}, "Err", columns.Error)

	pin(ShockResult{}, "Round", columns.Round)
	pin(ShockResult{}, "Added", columns.Added)
	pin(ShockResult{}, "Removed", columns.Removed)
	pin(ShockResult{}, "Discrepancy", columns.Discrepancy)
	pin(ShockResult{}, "PeakDiscrepancy", columns.PeakDiscrepancy)
	pin(ShockResult{}, "RecoveryRound", columns.RecoveryRound)
	pin(ShockResult{}, "RecoveryRounds", columns.RecoveryRounds)

	pin(FaultResult{}, "Round", columns.Round)
	pin(FaultResult{}, "FailedLinks", columns.FailedLinks)
	pin(FaultResult{}, "RestoredLinks", columns.RestoredLinks)
	pin(FaultResult{}, "FailedNodes", columns.FailedNodes)
	pin(FaultResult{}, "RestoredNodes", columns.RestoredNodes)
	pin(FaultResult{}, "Stranded", columns.Stranded)
	pin(FaultResult{}, "Redistributed", columns.Redistributed)
	pin(FaultResult{}, "Components", columns.Components)
	pin(FaultResult{}, "Gap", columns.Gap)
	pin(FaultResult{}, "Discrepancy", columns.Discrepancy)
	pin(FaultResult{}, "PeakDiscrepancy", columns.PeakDiscrepancy)
	pin(FaultResult{}, "RecoveryRound", columns.RecoveryRound)
	pin(FaultResult{}, "RecoveryRounds", columns.RecoveryRounds)
	pin(FaultResult{}, "UnreachableLoad", columns.UnreachableLoad)

	pin(ResultDoc{}, "Version", columns.Version)
	pin(ResultDoc{}, "Name", columns.Name)
	pin(ResultDoc{}, "Digest", columns.Digest)
	pin(ResultDoc{}, "Cells", columns.Cells)

	pin(Entry{}, "Digest", columns.Digest)
	pin(Entry{}, "Name", columns.Name)
	pin(Entry{}, "Cells", columns.Cells)

	pin(trace.Sample{}, "Round", columns.Round)
	pin(trace.Sample{}, "Discrepancy", columns.Discrepancy)
	pin(trace.Sample{}, "Max", columns.MaxLoad)
	pin(trace.Sample{}, "Min", columns.MinLoad)
	pin(trace.Sample{}, "Phi", columns.Phi)
	pin(trace.Sample{}, "Shock", columns.Shock)
	pin(trace.Sample{}, "Fault", columns.Fault)

	pin(trace.FaultMark{}, "FailedLinks", columns.FailedLinks)
	pin(trace.FaultMark{}, "RestoredLinks", columns.RestoredLinks)
	pin(trace.FaultMark{}, "FailedNodes", columns.FailedNodes)
	pin(trace.FaultMark{}, "RestoredNodes", columns.RestoredNodes)
	pin(trace.FaultMark{}, "Components", columns.Components)
	pin(trace.FaultMark{}, "Stranded", columns.Stranded)
}

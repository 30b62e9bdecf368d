package trace

import (
	"bytes"
	"strings"
	"testing"

	"detlb/internal/balancer"
	"detlb/internal/core"
	"detlb/internal/graph"
)

func record(t *testing.T, interval, rounds int, phi int64) *Recorder {
	t.Helper()
	b := graph.Lazy(graph.Hypercube(4))
	x1 := make([]int64, 16)
	x1[0] = 1601
	rec := NewRecorder(interval)
	rec.PhiThreshold = phi
	eng := core.MustEngine(b, balancer.NewRotorRouter(), x1, core.WithAuditor(rec))
	for i := 0; i < rounds; i++ {
		if err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return rec
}

func TestRecorderSampling(t *testing.T) {
	rec := record(t, 10, 100, -1)
	if len(rec.Samples()) != 10 {
		t.Fatalf("got %d samples", len(rec.Samples()))
	}
	first := rec.Samples()[0]
	if first.Round != 10 || first.Max < first.Min {
		t.Fatalf("bad sample %+v", first)
	}
	if first.Discrepancy != first.Max-first.Min {
		t.Fatal("discrepancy must equal max-min")
	}
}

func TestRecorderEveryRound(t *testing.T) {
	rec := record(t, 0, 25, -1)
	if len(rec.Samples()) != 25 {
		t.Fatalf("interval ≤ 1 must record every round, got %d", len(rec.Samples()))
	}
}

func TestCSVRoundTrip(t *testing.T) {
	rec := record(t, 5, 50, -1)
	var buf bytes.Buffer
	if err := rec.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := rec.Samples()
	if len(got) != len(want) {
		t.Fatalf("round trip lost samples: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: %+v vs %+v", i, got[i], want[i])
		}
	}
}

func TestCSVWithPhiColumn(t *testing.T) {
	rec := record(t, 10, 50, 3)
	var buf bytes.Buffer
	if err := rec.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	head := strings.SplitN(buf.String(), "\n", 2)[0]
	if !strings.Contains(head, "phi_3") {
		t.Fatalf("header missing phi column: %s", head)
	}
}

func TestJSONL(t *testing.T) {
	rec := record(t, 10, 30, -1)
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("expected 3 JSONL lines, got %d", len(lines))
	}
	if !strings.Contains(lines[0], `"round":10`) {
		t.Fatalf("line = %s", lines[0])
	}
}

// TestJSONLEmitsPhiZero is the regression test for the omitempty bug: a
// legitimate φ = 0 sample (all loads at or below the threshold) must still
// carry its phi field in JSONL output — omitempty on a plain int64 silently
// dropped it, producing ragged records whenever PhiThreshold ≥ 0.
func TestJSONLEmitsPhiZero(t *testing.T) {
	b := graph.Lazy(graph.Hypercube(4))
	x1 := make([]int64, 16)
	for i := range x1 {
		x1[i] = 5 // already balanced: φ(c) = 0 for any c ≥ 5
	}
	rec := NewRecorder(1)
	rec.PhiThreshold = 100
	eng := core.MustEngine(b, balancer.NewRotorRouter(), x1, core.WithAuditor(rec))
	for i := 0; i < 5; i++ {
		if err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range rec.Samples() {
		if s.Phi == nil || *s.Phi != 0 {
			t.Fatalf("expected φ = 0 recorded, got %+v", s)
		}
	}
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("expected 5 lines, got %d", len(lines))
	}
	for _, line := range lines {
		if !strings.Contains(line, `"phi":0`) {
			t.Fatalf("φ = 0 dropped from JSONL record: %s", line)
		}
	}
}

// TestJSONLOmitsPhiWhenDisabled: without potential tracking the phi field
// stays absent (nil pointer), keeping untracked series compact.
func TestJSONLOmitsPhiWhenDisabled(t *testing.T) {
	rec := record(t, 10, 30, -1)
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "phi") {
		t.Fatalf("phi field leaked into untracked series:\n%s", buf.String())
	}
}

// TestCSVPhiZeroValue: the φ column carries the explicit 0, not an empty
// cell, for tracked runs.
func TestCSVPhiZeroValue(t *testing.T) {
	b := graph.Lazy(graph.Hypercube(4))
	x1 := make([]int64, 16)
	rec := NewRecorder(1)
	rec.PhiThreshold = 7
	eng := core.MustEngine(b, balancer.NewRotorRouter(), x1, core.WithAuditor(rec))
	if err := eng.Step(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(rows) != 2 {
		t.Fatalf("expected header + 1 row, got %d", len(rows))
	}
	if !strings.HasSuffix(rows[1], ",0") {
		t.Fatalf("φ = 0 missing from CSV row: %s", rows[1])
	}
}

// TestWriteSamplesJSONL covers the free-function form on hand-built samples.
func TestWriteSamplesJSONL(t *testing.T) {
	phi := int64(0)
	samples := []Sample{
		{Round: 1, Discrepancy: 4, Max: 5, Min: 1, Phi: &phi},
		{Round: 2, Discrepancy: 2, Max: 3, Min: 1},
	}
	var buf bytes.Buffer
	if err := WriteSamplesJSONL(&buf, samples); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("expected 2 lines, got %d", len(lines))
	}
	if !strings.Contains(lines[0], `"phi":0`) || strings.Contains(lines[1], "phi") {
		t.Fatalf("phi handling wrong:\n%s", buf.String())
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("round,discrepancy,max,min\nnot,a,number,row\n")); err == nil {
		t.Fatal("expected parse error")
	}
	if _, err := ReadCSV(strings.NewReader("")); err != nil {
		t.Fatalf("empty input should be fine: %v", err)
	}
	if _, err := ReadCSV(strings.NewReader("a,b\n")); err != nil {
		t.Fatalf("header-only input should be fine: %v", err)
	}
}

// TestJSONLShockRoundTrip: shock markers — including the legitimate net-0
// churn marker — survive WriteSamplesJSONL → ReadJSONL bit-exactly.
func TestJSONLShockRoundTrip(t *testing.T) {
	shock := int64(4096)
	churn := int64(0)
	phi := int64(7)
	in := []Sample{
		{Round: 10, Discrepancy: 3, Max: 4, Min: 1},
		{Round: 20, Discrepancy: 4100, Max: 4101, Min: 1, Shock: &shock},
		{Round: 25, Discrepancy: 40, Max: 41, Min: 1, Phi: &phi, Shock: &churn},
		{Round: 30, Discrepancy: 5, Max: 5, Min: 0},
	}
	var buf bytes.Buffer
	if err := WriteSamplesJSONL(&buf, in); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("expected 4 lines, got %d", len(lines))
	}
	if strings.Contains(lines[0], "shock") || !strings.Contains(lines[1], `"shock":4096`) {
		t.Fatalf("shock emission wrong:\n%s", buf.String())
	}
	if !strings.Contains(lines[2], `"shock":0`) {
		t.Fatalf("net-0 shock marker dropped:\n%s", buf.String())
	}

	out, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip length: %d vs %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Round != in[i].Round || out[i].Discrepancy != in[i].Discrepancy ||
			out[i].Max != in[i].Max || out[i].Min != in[i].Min {
			t.Fatalf("sample %d: %+v vs %+v", i, out[i], in[i])
		}
		if (out[i].Shock == nil) != (in[i].Shock == nil) {
			t.Fatalf("sample %d: shock marker presence lost", i)
		}
		if in[i].Shock != nil && *out[i].Shock != *in[i].Shock {
			t.Fatalf("sample %d: shock value %d vs %d", i, *out[i].Shock, *in[i].Shock)
		}
		if (out[i].Phi == nil) != (in[i].Phi == nil) {
			t.Fatalf("sample %d: phi presence lost", i)
		}
	}
}

func TestReadJSONLErrors(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("")); err != nil {
		t.Fatalf("empty input should be fine: %v", err)
	}
	if _, err := ReadJSONL(strings.NewReader("{\"round\":1}\nnot json\n")); err == nil {
		t.Fatal("expected parse error")
	}
}

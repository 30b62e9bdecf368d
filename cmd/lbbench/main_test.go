package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"detlb/internal/analysis"
)

var update = flag.Bool("update", false, "rewrite the golden quick-size report")

// TestQuickGolden pins the whole quick-size suite, byte for byte, at the
// serial engine and at two workers: every experiment's table must match the
// one recorded in testdata. Regenerate deliberately with -update.
func TestQuickGolden(t *testing.T) {
	path := filepath.Join("testdata", "quick.txt")
	for _, workers := range []int{0, 2} {
		var out strings.Builder
		if code := run([]string{"-quick", "-workers", strconv.Itoa(workers)}, &out); code != 0 {
			t.Fatalf("workers=%d: exit code %d", workers, code)
		}
		if *update && workers == 0 {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		golden, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s (regenerate with go test ./cmd/lbbench -run QuickGolden -update): %v", path, err)
		}
		if !bytes.Equal(golden, []byte(out.String())) {
			t.Errorf("workers=%d: -quick output drifted from %s\n-- got --\n%s", workers, path, out.String())
		}
	}
}

func TestOnlyPrintsOneTable(t *testing.T) {
	var out strings.Builder
	if code := run([]string{"-quick", "-only", "e1"}, &out); code != 0 {
		t.Fatalf("exit code %d, output:\n%s", code, out.String())
	}
	want := analysis.Table1(analysis.Config{Quick: true, Seed: 1}).String()
	if out.String() != want {
		t.Fatalf("-only e1 output differs from analysis.Table1:\ngot:\n%s\nwant:\n%s", out.String(), want)
	}
}

func TestMarkdownReport(t *testing.T) {
	var out strings.Builder
	if code := run([]string{"-quick", "-only", "E3", "-format", "md"}, &out); code != 0 {
		t.Fatalf("exit code %d, output:\n%s", code, out.String())
	}
	if !strings.HasPrefix(out.String(), "# detlb experiment report (quick size)\n") {
		t.Fatalf("report does not start with the quick-size title:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "## E3:") {
		t.Fatalf("report has no E3 section:\n%s", out.String())
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-quick", "-only", "E99"},
		{"-quick", "-format", "json"},
	} {
		var out strings.Builder
		if code := run(args, &out); code != 2 {
			t.Errorf("%v: exit code %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("%v: wrote to stdout:\n%s", args, out.String())
		}
	}
}

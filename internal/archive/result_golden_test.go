package archive

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"detlb/internal/analysis"
	"detlb/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite the golden result documents")

// Golden result documents pin what the harness computes, byte for byte: each
// preset is bound, swept and encoded exactly as the serving layer does it, and
// the document must match the one recorded in testdata. Between them the
// presets cover static diffusion, load shocks, topology faults and a
// population-protocol model, so any change to the round loop that moves a
// single number fails here. Regenerate deliberately with -update.
func TestResultGoldenDocuments(t *testing.T) {
	for _, name := range []string{"shock-recovery", "majority-vs-rotor", "link-failure-recovery", "rotor-vs-quasirandom"} {
		t.Run(name, func(t *testing.T) {
			fam, err := scenario.Preset(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := fam.Normalize(); err != nil {
				t.Fatal(err)
			}
			digest, _, err := fam.Fingerprint()
			if err != nil {
				t.Fatal(err)
			}
			cells := fam.Scenarios()
			specs, err := scenario.BindScenarios(cells)
			if err != nil {
				t.Fatal(err)
			}
			results := analysis.Sweep(specs, analysis.SweepOptions{})
			metas := make([]scenario.CellColumns, len(cells))
			for i, c := range cells {
				metas[i] = c.Columns()
			}
			doc, failures, err := BuildResultDoc(fam.Name, digest, metas, specs, results)
			if err != nil {
				t.Fatal(err)
			}
			if failures != 0 {
				t.Fatalf("%d failed cells", failures)
			}
			path := filepath.Join("testdata", "result-"+name+".json")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, doc, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			golden, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%s (regenerate with go test ./internal/archive -run Golden -update): %v", path, err)
			}
			if !bytes.Equal(golden, doc) {
				t.Errorf("%s: result document drifted from the golden file\n-- golden --\n%s\n-- got --\n%s",
					name, golden, doc)
			}
		})
	}
}

package experiment

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"chipletqc/internal/eval"
)

var update = flag.Bool("update", false, "regenerate the golden artifact files")

// TestGoldenFig10CorrByteIdentical pins the fig10corr artifact's text
// rendering byte for byte at a fixed seed and reduced scale. fig10corr
// is the one registry entry that composes two pipelines (the Fig. 9
// state-of-art cells and the Fig. 10 square systems), so this golden
// catches a draw moved anywhere on either path, or in how the catalog
// wires them together. Regenerate after an intentional change with:
//
//	go test ./internal/experiment -run TestGoldenFig10Corr -update
func TestGoldenFig10CorrByteIdentical(t *testing.T) {
	cfg := eval.QuickConfig(424242)
	cfg.MonoBatch = 300
	cfg.ChipletBatch = 300
	cfg.MaxQubits = 250
	cfg.Fig10Samples = 2
	e, _ := Lookup("fig10corr")
	a, err := e.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := a.String()

	path := filepath.Join("testdata", "golden_fig10corr.txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to generate): %v", err)
	}
	if got != string(want) {
		t.Errorf("fig10corr artifact is not byte-identical to %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

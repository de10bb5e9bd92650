package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chipletqc/internal/cli"
	"chipletqc/internal/experiment"
)

func TestRunList(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run(context.Background(), []string{"-list"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, name := range []string{"fig1", "fig4", "fig8", "fig9", "fig10", "table2", "eq1"} {
		if !strings.Contains(got, name) {
			t.Errorf("-list output missing %q:\n%s", name, got)
		}
	}
}

func TestRunOnlyWithJSONArtifact(t *testing.T) {
	dir := t.TempDir()
	var out, errw bytes.Buffer
	err := run(context.Background(),
		[]string{"-quick", "-only", "fig2,eq1", "-json", "-out", dir}, &out, &errw)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errw.String())
	}
	for _, name := range []string{"fig2", "eq1"} {
		if _, err := os.Stat(filepath.Join(dir, name+".txt")); err != nil {
			t.Errorf("missing text artifact: %v", err)
		}
		data, err := os.ReadFile(filepath.Join(dir, name+".json"))
		if err != nil {
			t.Fatalf("missing JSON artifact: %v", err)
		}
		var a experiment.Artifact
		if err := json.Unmarshal(data, &a); err != nil {
			t.Fatalf("%s.json is not a valid Artifact: %v", name, err)
		}
		if a.Name != name || a.Fingerprint == "" || a.Payload == nil {
			t.Errorf("%s.json incomplete: %+v", name, a)
		}
	}
	// No stray artifacts beyond the selected ones.
	entries, _ := os.ReadDir(dir)
	if len(entries) != 4 {
		t.Errorf("expected 4 artifact files, found %d", len(entries))
	}
}

func TestRunScenarioList(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run(context.Background(), []string{"-scenarios"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, name := range []string{"paper", "future-fab", "improved-links", "relaxed-thresholds", "FINGERPRINT"} {
		if !strings.Contains(got, name) {
			t.Errorf("-scenarios output missing %q:\n%s", name, got)
		}
	}
}

func TestRunUnderScenarioRecordsIt(t *testing.T) {
	dir := t.TempDir()
	var out, errw bytes.Buffer
	err := run(context.Background(),
		[]string{"-quick", "-scenario", "future-fab", "-only", "eq1", "-json", "-out", dir}, &out, &errw)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errw.String())
	}
	data, err := os.ReadFile(filepath.Join(dir, "eq1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var a experiment.Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		t.Fatal(err)
	}
	if a.Scenario != "future-fab" || a.ScenarioFingerprint == "" {
		t.Errorf("artifact does not record the scenario: %+v", a)
	}
}

func TestRunUnknownScenario(t *testing.T) {
	var out, errw bytes.Buffer
	err := run(context.Background(), []string{"-scenario", "warp-core"}, &out, &errw)
	if err == nil || !strings.Contains(err.Error(), "unknown scenario") ||
		!strings.Contains(err.Error(), "paper") {
		t.Errorf("err = %v, want unknown-scenario error listing known names", err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out, errw bytes.Buffer
	err := run(context.Background(), []string{"-only", "fig99"}, &out, &errw)
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("err = %v, want unknown-experiment error", err)
	}
}

func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errw bytes.Buffer
	err := run(ctx, []string{"-quick", "-only", "fig8", "-out", t.TempDir()}, &out, &errw)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestRunBadFlag(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run(context.Background(), []string{"-nope"}, &out, &errw); !errors.Is(err, cli.ErrUsage) {
		t.Errorf("err = %v, want cli.ErrUsage", err)
	}
}

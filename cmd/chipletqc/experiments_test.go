package main

import (
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

// runArgs invokes the CLI core and returns its streams.
func runArgs(t *testing.T, ctx context.Context, args ...string) (string, string, error) {
	t.Helper()
	var out, errs strings.Builder
	err := run(ctx, args, &out, &errs)
	return out.String(), errs.String(), err
}

func TestRunList(t *testing.T) {
	out, _, err := runArgs(t, context.Background(), "run", "-list")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig1", "fig4", "fig8", "fig9", "fig10", "table2", "eq1"} {
		if !strings.Contains(out, name) {
			t.Errorf("-list output missing %q:\n%s", name, out)
		}
	}
}

func TestRunOnlyWithJSONArtifact(t *testing.T) {
	dir := t.TempDir()
	_, errs, err := runArgs(t, context.Background(), "run", "-quick", "-only", "fig2,eq1", "-json", "-out", dir)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errs)
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

// TestRunCSVArtifact: -csv renders the artifact as <name>.csv in place
// of <name>.txt, and -out - renders it to stdout instead of a file.
func TestRunCSVArtifact(t *testing.T) {
	dir := t.TempDir()
	if _, errs, err := runArgs(t, context.Background(), "run", "-quick", "-only", "eq1", "-csv", "-out", dir); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errs)
	}
	data, err := os.ReadFile(filepath.Join(dir, "eq1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := runArgs(t, context.Background(), "run", "-quick", "-only", "eq1", "-csv", "-out", "-")
	if err != nil || out != string(data) {
		t.Errorf("-out - rendered %q (err %v), want the file's %q", out, err, data)
	}
}

func TestRunScenarioList(t *testing.T) {
	out, _, err := runArgs(t, context.Background(), "run", "-scenarios")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"paper", "future-fab", "improved-links", "relaxed-thresholds", "FINGERPRINT"} {
		if !strings.Contains(out, name) {
			t.Errorf("-scenarios output missing %q:\n%s", name, out)
		}
	}
}

func TestRunUnderScenarioRecordsIt(t *testing.T) {
	dir := t.TempDir()
	_, errs, err := runArgs(t, context.Background(),
		"run", "-quick", "-scenario", "future-fab", "-only", "eq1", "-json", "-out", dir)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errs)
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
	_, _, err := runArgs(t, context.Background(), "run", "-scenario", "warp-core")
	if err == nil || !strings.Contains(err.Error(), "unknown scenario") ||
		!strings.Contains(err.Error(), "paper") {
		t.Errorf("err = %v, want unknown-scenario error listing known names", err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	_, _, err := runArgs(t, context.Background(), "run", "-only", "fig99")
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("err = %v, want unknown-experiment error", err)
	}
}

// TestRunCancelledContext pins ctx propagation through the registry
// path when writing artifact files.
func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := runArgs(t, ctx, "run", "-quick", "-only", "fig8", "-out", t.TempDir()); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestRunCancelledToStdout pins ctx propagation through the registry
// path when rendering to stdout.
func TestRunCancelledToStdout(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := runArgs(t, ctx, "run", "-only", "fig9", "-out", "-", "-batch", "100", "-mono", "100", "-max", "60")
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestRunFig8ThroughRegistry: -out - renders the registered
// experiment's artifact, including its self-describing header, to
// stdout.
func TestRunFig8ThroughRegistry(t *testing.T) {
	out, _, err := runArgs(t, context.Background(),
		"run", "-only", "fig8", "-out", "-", "-batch", "150", "-mono", "150", "-max", "60", "-workers", "2")
	if err != nil {
		t.Fatalf("run -only fig8: %v", err)
	}
	for _, want := range []string{"# experiment: fig8", "Fig. 8", "avg-improvement"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in artifact output:\n%s", want, out)
		}
	}
}

// TestRunTable2ThroughRegistry: -only table2 -out - renders the
// registered experiment's artifact.
func TestRunTable2ThroughRegistry(t *testing.T) {
	out, _, err := runArgs(t, context.Background(),
		"run", "-only", "table2", "-out", "-", "-batch", "2000", "-mono", "2000", "-samples", "3")
	if err != nil {
		t.Fatalf("run -only table2: %v", err)
	}
	for _, want := range []string{"# experiment: table2", "Table II", "2q_critical"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in artifact output:\n%s", want, out)
		}
	}
}

// TestAssembleSmoke exercises the single-system assembly at tiny scale.
func TestAssembleSmoke(t *testing.T) {
	out, _, err := runArgs(t, context.Background(),
		"assemble", "-chiplet", "20", "-rows", "2", "-cols", "2", "-batch", "200", "-workers", "2")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"MCM assembly", "chiplet yield", "post-assembly yield"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
}

// TestCompileSingleSystemSmoke is a tiny end-to-end Fig. 10 run on one
// MCM system at reduced scale.
func TestCompileSingleSystemSmoke(t *testing.T) {
	out, _, err := runArgs(t, context.Background(),
		"compile", "-chiplet", "10", "-rows", "1", "-cols", "2",
		"-batch", "100", "-mono", "100", "-samples", "1", "-workers", "2")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "Fig. 10: benchmark fidelity ratio") {
		t.Errorf("missing Fig. 10 table header in output:\n%s", out)
	}
	// All seven benchmarks should have produced a row for the 1x2 system.
	if n := strings.Count(out, "1x2"); n < 7 {
		t.Errorf("expected >= 7 benchmark rows for the 1x2 system, got %d:\n%s", n, out)
	}
}

// TestRejectsBadChiplet pins error propagation: a non-catalog chiplet
// size surfaces as an error, not a process exit.
func TestRejectsBadChiplet(t *testing.T) {
	for _, args := range [][]string{
		{"assemble", "-chiplet", "33", "-batch", "10"},
		{"compile", "-chiplet", "33"},
	} {
		t.Run(args[0], func(t *testing.T) {
			if _, _, err := runArgs(t, context.Background(), args...); err == nil {
				t.Errorf("%q: non-catalog chiplet size should return an error", args)
			}
		})
	}
}

// TestRejectsOutOfRangeFlags: sizes, batches, precisions and caps that
// cannot be run are usage errors at parse time, named on the error
// stream, and nothing is reported. Flags a verb never reads (assemble's
// -mono, -max and trial policy) are unknown there, which is a usage
// error too. A non-finite trial policy fails before any trial runs.
func TestRejectsOutOfRangeFlags(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	for _, tc := range []struct {
		verb   string
		usage  [][]string // flags (and operand) that must be a usage error
		failed [][]string // flags that must fail with no report
	}{
		{verb: "assemble", usage: [][]string{
			{"-rows", "0"}, {"-cols", "-1"}, {"-batch", "-3"},
			{"-mono", "-1"}, {"-max", "-1"}, {"-precision", "NaN"},
		}},
		{verb: "compile", usage: [][]string{
			{"-rows", "0"}, {"-cols", "0"}, {"-batch", "-1"},
			{"-mono", "-1"}, {"-max", "-1"}, {"-samples", "0"},
		}},
		{verb: "yield", usage: [][]string{
			{"-batch", "-5"}, {"-max", "-1"},
			{"-sigma", "-1"}, {"-sigma", "NaN"}, {"-step", "-0.05"}, {"-step", "NaN"},
		}, failed: [][]string{{"-batch", "10", "-precision", "NaN"}}},
		{verb: "run", usage: [][]string{
			{"-batch", "-1"}, {"-samples", "-1"},
		}, failed: [][]string{{"-quick", "-only", "eq1", "-out", "-", "-precision", "NaN"}}},
		{verb: "perfcheck", usage: [][]string{
			{"-perftol", "NaN", "BENCH_yield.json"}, {"-perftol", "-0.1", "BENCH_yield.json"},
		}},
		{verb: "gc", usage: [][]string{
			{"-gc-keep", "-5", "-store", dir}, {"-gc-max-bytes", "-1", "-store", dir},
		}},
		{verb: "perf", usage: [][]string{{"-batch", "-1"}}},
	} {
		t.Run(tc.verb, func(t *testing.T) {
			for _, flags := range tc.usage {
				args := append([]string{tc.verb}, flags...)
				out, errs, err := runArgs(t, context.Background(), args...)
				if !errors.Is(err, cli.ErrUsage) || !strings.Contains(errs, flags[0]) {
					t.Errorf("run(%q) = %v (stderr %q), want a usage error naming %s", args, err, errs, flags[0])
				}
				if out != "" {
					t.Errorf("run(%q) wrote a report:\n%s", args, out)
				}
			}
			for _, flags := range tc.failed {
				args := append([]string{tc.verb}, flags...)
				if out, _, err := runArgs(t, context.Background(), args...); err == nil || out != "" {
					t.Errorf("%q: err %v, report %q; want an error and no report", args, err, out)
				}
			}
		})
	}
}

// TestYieldSweepSmoke is a tiny end-to-end run of the default Fig. 4
// sweep at reduced scale.
func TestYieldSweepSmoke(t *testing.T) {
	out, _, err := runArgs(t, context.Background(),
		"yield", "-batch", "50", "-max", "40", "-sigma", "0.014", "-step", "0.06", "-workers", "3")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "Collision-free yield vs qubits") {
		t.Errorf("missing sweep table header in output:\n%s", out)
	}
	if !strings.Contains(out, "Optimal frequency step per precision") {
		t.Errorf("missing optimum summary in output:\n%s", out)
	}
}

// TestYieldChipletsSmoke exercises -chiplets and CSV emission.
func TestYieldChipletsSmoke(t *testing.T) {
	out, _, err := runArgs(t, context.Background(), "yield", "-chiplets", "-batch", "50", "-csv")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "chiplet,yield") {
		t.Errorf("missing CSV header in output:\n%s", out)
	}
}

// TestYieldWorkerCountInvariance asserts the report is identical for
// any -workers value.
func TestYieldWorkerCountInvariance(t *testing.T) {
	render := func(workers string) string {
		out, _, err := runArgs(t, context.Background(), "yield", "-batch", "80", "-max", "30", "-workers", workers)
		if err != nil {
			t.Fatalf("run(-workers %s): %v", workers, err)
		}
		return out
	}
	if serial, parallel := render("1"), render("8"); serial != parallel {
		t.Error("-workers 1 and -workers 8 rendered different reports")
	}
}

// TestYieldAdaptivePrecision exercises -precision end to end: the sweep
// reports trials and CI bounds, extreme-yield sizes stop before the
// full batch, and the report is worker-count invariant.
func TestYieldAdaptivePrecision(t *testing.T) {
	render := func(workers string) string {
		out, _, err := runArgs(t, context.Background(),
			"yield", "-batch", "5000", "-max", "30", "-sigma", "0.006", "-step", "0.06",
			"-precision", "0.02", "-workers", workers)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return out
	}
	got := render("2")
	if !strings.Contains(got, "trials") || !strings.Contains(got, "ci_lo") {
		t.Errorf("adaptive run should report trials and CI columns:\n%s", got)
	}
	// Scaling-goal precision yields ~1 at these sizes, so the adaptive
	// run must stop at the first checkpoint instead of the 5000 budget.
	if !strings.Contains(got, "1.0000  250") {
		t.Errorf("near-certain yield should stop at the first checkpoint:\n%s", got)
	}
	if parallel := render("7"); parallel != got {
		t.Error("adaptive report differs across worker counts")
	}
}

// TestPerfWritesRecord exercises perf: the machine-readable yield
// hot-path record lands on disk with sane ns/op, trials/sec, and
// allocs/op fields.
func TestPerfWritesRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_yield.json")
	out, _, err := runArgs(t, context.Background(), "perf", "-batch", "200", "-perfout", path)
	if err != nil {
		t.Fatalf("perf: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("perf record not written: %v", err)
	}
	var records []perfRecord
	if err := json.Unmarshal(data, &records); err != nil {
		t.Fatalf("perf record is not valid JSON: %v", err)
	}
	want := []string{
		"yield_simulate_fixed",
		"yield_simulate_stratified",
		"yield_simulate_importance",
		"yield_tight_thresholds_e2e",
	}
	if len(records) != len(want) {
		t.Fatalf("records = %d, want %d (fixed + stratified + importance + tight e2e)",
			len(records), len(want))
	}
	for i, r := range records {
		if r.Name != want[i] {
			t.Errorf("record %d named %q, want %q", i, r.Name, want[i])
		}
		if r.NsPerOp <= 0 || r.TrialsPerSec <= 0 {
			t.Errorf("%s: non-positive timing %+v", r.Name, r)
		}
		// The e2e record runs the tight-thresholds scenario to its own
		// adaptive stopping rule, so only the fixed-budget records are
		// bounded by the -batch flag.
		if r.TrialsUsed <= 0 || (r.Name != "yield_tight_thresholds_e2e" && r.TrialsUsed > 200) {
			t.Errorf("%s: trials_used = %d, want in (0, 200]", r.Name, r.TrialsUsed)
		}
		if r.AllocsPerOp < 0 {
			t.Errorf("%s: negative allocs", r.Name)
		}
	}
	if !strings.Contains(out, "wrote "+path) {
		t.Errorf("missing confirmation line:\n%s", out)
	}
}

// TestPerfCheck exercises perfcheck against both a generous and an
// impossible committed baseline: the generous one passes, the
// impossible one (1 ns/op) must be reported as a regression beyond the
// tolerance.
func TestPerfCheck(t *testing.T) {
	dir := t.TempDir()
	generous := filepath.Join(dir, "generous.json")
	impossible := filepath.Join(dir, "impossible.json")
	base := []perfRecord{
		{Name: "yield_simulate_fixed", NsPerOp: 1e15},
		{Name: "yield_simulate_importance", NsPerOp: 1e15},
	}
	writeRecords := func(path string, rs []perfRecord) {
		data, err := json.Marshal(rs)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeRecords(generous, base)
	for i := range base {
		base[i].NsPerOp = 1
	}
	writeRecords(impossible, base)

	out, _, err := runArgs(t, context.Background(), "perfcheck", "-batch", "100", generous)
	if err != nil {
		t.Errorf("perfcheck vs generous baseline should pass: %v", err)
	}
	if !strings.Contains(out, "Perf check") {
		t.Errorf("missing perf check table:\n%s", out)
	}

	// Flags may follow the operand.
	_, _, err = runArgs(t, context.Background(), "perfcheck", impossible, "-batch", "100")
	if err == nil {
		t.Fatal("perfcheck vs 1 ns/op baseline should fail")
	}
	if !strings.Contains(err.Error(), "perf regression") {
		t.Errorf("unexpected failure: %v", err)
	}
}

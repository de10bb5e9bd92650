package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"chipletqc/internal/cli"
	"chipletqc/internal/report"
	"chipletqc/internal/sampling"
	"chipletqc/internal/scenario"
	"chipletqc/internal/topo"
	"chipletqc/internal/yield"
)

// perfSetup declares the flags perf and perfcheck share and returns a
// measurement of the hot-path records under them.
func perfSetup(fs *flag.FlagSet) func(ctx context.Context) ([]perfRecord, error) {
	scen := scenarioFlag(fs)
	batch := fs.Int("batch", 2000, "devices per fixed-budget record (0 = the scenario's policy)")
	trial := cli.TrialFlags(fs, cli.Seed|cli.Workers)
	return func(ctx context.Context) ([]perfRecord, error) {
		if err := cli.AtLeast(fs, 0, "batch"); err != nil {
			return nil, err
		}
		scn, err := scenario.Lookup(*scen)
		if err != nil {
			return nil, err
		}
		return runPerf(ctx, scn, *batch, trial.Workers, trial.Seed)
	}
}

// runPerf is the measurement behind perf and perfcheck, best of
// perfReps timings per record; the perfcheck tests replace it with
// fixed records to test the verdict alone.
var runPerf = func(ctx context.Context, scn scenario.Scenario, batch, workers int, seed int64) ([]perfRecord, error) {
	return measurePerf(ctx, scn, batch, workers, seed, perfReps)
}

// perfReps is the best-of-N count of each perf record: the minimum
// ns/op is far less sensitive to scheduler noise than a single sample,
// which is what lets the perf gate hold a tight tolerance without
// flaking.
const perfReps = 3

// perfFlags declares the perf verb: measure the yield hot path and
// write the records as JSON.
func perfFlags(fs *flag.FlagSet) action {
	measure := perfSetup(fs)
	path := fs.String("perfout", "BENCH_yield.json", "perf record output path")
	return func(ctx context.Context, _ string, out, _ io.Writer) error {
		records, err := measure(ctx)
		if err != nil {
			return err
		}
		data, err := json.MarshalIndent(records, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		if err := perfTable(records).WriteText(out); err != nil {
			return err
		}
		fmt.Fprintf(out, "\nwrote %s\n", *path)
		return nil
	}
}

// perfCheckFlags declares the perfcheck verb: measure the hot-path
// records and compare each ns/op against the committed baseline,
// failing on any fractional regression beyond -perftol. Records
// present on only one side are reported but never fail the check, so
// the benchmark set can evolve without lock-step baseline updates.
func perfCheckFlags(fs *flag.FlagSet) action {
	measure := perfSetup(fs)
	tol := fs.Float64("perftol", 0.10, "allowed fractional ns/op regression (0.10 = 10%)")
	return func(ctx context.Context, path string, out, _ io.Writer) error {
		if err := cli.AtLeast(fs, 0, "perftol"); err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("perfcheck baseline: %w", err)
		}
		var baseline []perfRecord
		if err := json.Unmarshal(data, &baseline); err != nil {
			return fmt.Errorf("perfcheck baseline %s: %w", path, err)
		}
		base := map[string]perfRecord{}
		for _, r := range baseline {
			base[r.Name] = r
		}
		records, err := measure(ctx)
		if err != nil {
			return err
		}
		tb := report.New(fmt.Sprintf("Perf check vs %s (tolerance %+.0f%%)", path, *tol*100),
			"name", "baseline_ns", "current_ns", "delta", "verdict")
		var failures []string
		for _, r := range records {
			b, ok := base[r.Name]
			if !ok || b.NsPerOp <= 0 {
				tb.Add(r.Name, "-", fmt.Sprintf("%.0f", r.NsPerOp), "-", "new (not gated)")
				continue
			}
			delta := r.NsPerOp/b.NsPerOp - 1
			verdict := "ok"
			if delta > *tol {
				verdict = "REGRESSION"
				failures = append(failures, fmt.Sprintf("%s: %.0f -> %.0f ns/op (%+.1f%%)",
					r.Name, b.NsPerOp, r.NsPerOp, delta*100))
			}
			tb.Add(r.Name, fmt.Sprintf("%.0f", b.NsPerOp), fmt.Sprintf("%.0f", r.NsPerOp),
				fmt.Sprintf("%+.1f%%", delta*100), verdict)
		}
		if err := tb.WriteText(out); err != nil {
			return err
		}
		if len(failures) > 0 {
			return fmt.Errorf("perf regression beyond %.0f%%: %s", *tol*100, strings.Join(failures, "; "))
		}
		return nil
	}
}

// perfRecord is one machine-readable micro-benchmark measurement of the
// Monte Carlo yield hot path. chipletqc perf writes these to
// BENCH_yield.json so the perf trajectory (ns/op, trials/sec,
// allocs/op) is tracked across PRs by the CI benchmark artifact.
type perfRecord struct {
	Name         string  `json:"name"`
	Scenario     string  `json:"scenario"`
	Qubits       int     `json:"qubits"`
	Batch        int     `json:"batch"`
	Precision    float64 `json:"precision,omitempty"`
	TrialsUsed   int     `json:"trials_used"`
	Yield        float64 `json:"yield"`
	NsPerOp      float64 `json:"ns_per_op"`
	TrialsPerSec float64 `json:"trials_per_sec"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
}

// measurePerf micro-benchmarks yield.Simulate on a 100-qubit device in
// fixed-batch, stratified, and importance-sampled (rare-event
// estimators, same fixed budget) modes,
// plus one end-to-end wall-time record of the tight-thresholds
// rare-event scenario (adaptive stop at 20% relative precision on a
// 24-qubit device). The records carry the scenario name so the CI perf
// trajectory distinguishes device worlds. Each record keeps the best of
// reps timings.
func measurePerf(ctx context.Context, scn scenario.Scenario, batch, workers int, seed int64, reps int) ([]perfRecord, error) {
	if batch <= 0 {
		batch = scn.Trials.ChipletBatch // -batch 0 = the scenario's policy, as elsewhere
	}
	d := topo.MonolithicDevice(topo.MonolithicSpec(100))
	base := scn.YieldConfig(batch, seed)
	base.Workers = workers
	// The fixed-mode record must stay fixed even under a scenario whose
	// trial policy is adaptive, or its ns/op is not comparable across
	// PRs.
	base.Policy = yield.Policy{}

	measure := func(name, scnName string, dev *topo.Device, cfg yield.Config) (perfRecord, error) {
		res, err := yield.Simulate(ctx, dev, cfg) // warm-up + result snapshot
		if err != nil {
			return perfRecord{}, err
		}
		var br testing.BenchmarkResult
		for rep := 0; rep < reps; rep++ {
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := yield.Simulate(ctx, dev, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
			if rep == 0 || r.NsPerOp() < br.NsPerOp() {
				br = r
			}
		}
		ns := float64(br.NsPerOp())
		rec := perfRecord{
			Name:        name,
			Scenario:    scnName,
			Qubits:      dev.N,
			Batch:       cfg.Batch,
			Precision:   cfg.Precision,
			TrialsUsed:  res.Batch,
			Yield:       res.Fraction(),
			NsPerOp:     ns,
			AllocsPerOp: br.AllocsPerOp(),
			BytesPerOp:  br.AllocedBytesPerOp(),
		}
		if ns > 0 {
			rec.TrialsPerSec = float64(res.Batch) / (ns / 1e9)
		}
		return rec, nil
	}

	stratifiedCfg := base
	stratifiedCfg.Sampling = sampling.Spec{Method: sampling.Stratified}
	importanceCfg := base
	importanceCfg.Sampling = sampling.Spec{Method: sampling.Importance}
	var records []perfRecord
	for _, m := range []struct {
		name string
		cfg  yield.Config
	}{
		{"yield_simulate_fixed", base},
		{"yield_simulate_stratified", stratifiedCfg},
		{"yield_simulate_importance", importanceCfg},
	} {
		rec, err := measure(m.name, scn.Name, d, m.cfg)
		if err != nil {
			return nil, err
		}
		records = append(records, rec)
	}

	// End-to-end rare-event record: the tight-thresholds scenario on a
	// 24-qubit device, run to its adaptive stopping rule rather than a
	// fixed batch. This is the wall-time the campaign engine actually
	// pays per rare-event data point — trial count and per-trial cost
	// together — so proposal-quality regressions that per-trial ns/op
	// cannot see (a worse proposal needs more trials) still trip the
	// gate.
	tight, err := scenario.Lookup(scenario.TightThresholdsName)
	if err != nil {
		return nil, err
	}
	td := topo.MonolithicDevice(topo.MonolithicSpec(24))
	tcfg := tight.YieldConfig(0, seed)
	tcfg.Workers = workers
	tcfg.Precision = 0
	tcfg.RelPrecision = 0.2
	tcfg.MaxTrials = 1 << 20
	rec, err := measure("yield_tight_thresholds_e2e", tight.Name, td, tcfg)
	if err != nil {
		return nil, err
	}
	records = append(records, rec)
	return records, nil
}

// perfTable renders perf records for human reading.
func perfTable(records []perfRecord) *report.Table {
	tb := report.New("Yield hot-path micro-benchmark",
		"name", "trials", "ns_per_op", "trials_per_sec", "allocs_per_op")
	for _, r := range records {
		tb.Add(r.Name, r.TrialsUsed, fmt.Sprintf("%.0f", r.NsPerOp),
			fmt.Sprintf("%.3g", r.TrialsPerSec), r.AllocsPerOp)
	}
	return tb
}

package chipletqc

// The benchmark harness regenerates every table and figure of the
// paper's evaluation section. Each Benchmark* below corresponds to one
// figure/table (see DESIGN.md's experiment index); run with
//
//	go test -bench=. -benchmem
//
// Benchmarks run at reduced Monte Carlo scale so the full suite
// completes in minutes; `chipletqc run` runs the paper-scale versions and
// writes the full row/series output. Key reproduced quantities are
// attached to each benchmark via ReportMetric so regressions in the
// *shape* of the results (who wins, by what factor) are visible in CI.

import (
	"context"
	"math"
	"testing"
)

// benchSeed keeps every benchmark deterministic.
const benchSeed = 42

func benchConfig() ExperimentConfig {
	cfg := QuickExperimentConfig(benchSeed)
	cfg.MonoBatch = 300
	cfg.ChipletBatch = 300
	return cfg
}

// BenchmarkFig1YieldInfidelityTradeoff regenerates Fig. 1: yield falls
// and average infidelity rises with module size.
func BenchmarkFig1YieldInfidelityTradeoff(b *testing.B) {
	var rows []Fig1Row
	for i := 0; i < b.N; i++ {
		rows = must(Fig1(context.Background(), benchConfig()))
	}
	b.ReportMetric(rows[0].Yield, "yield@10q")
	b.ReportMetric(rows[len(rows)-1].Yield, "yield@250q")
	b.ReportMetric(rows[0].EAvg*1e3, "mErr@10q")
	b.ReportMetric(rows[len(rows)-1].EAvg*1e3, "mErr@250q")
}

// BenchmarkFig2WaferOutput regenerates Fig. 2: the monolithic vs chiplet
// wafer-output illustration (7 faulty devices per batch).
func BenchmarkFig2WaferOutput(b *testing.B) {
	var r Fig2Result
	for i := 0; i < b.N; i++ {
		r = Fig2(9, 4, 7)
	}
	b.ReportMetric(float64(r.MonoGood), "mono-good")
	b.ReportMetric(float64(r.ChipletGood), "chiplet-good")
}

// BenchmarkFig3bCXInfidelityBySize regenerates Fig. 3(b): median CX
// infidelity and spread grow with processor size (27/65/127 qubits).
func BenchmarkFig3bCXInfidelityBySize(b *testing.B) {
	var sums []Summary
	for i := 0; i < b.N; i++ {
		sums = must(Fig3b(context.Background(), benchConfig()))
	}
	b.ReportMetric(sums[0].Median*1e3, "median@27q")
	b.ReportMetric(sums[1].Median*1e3, "median@65q")
	b.ReportMetric(sums[2].Median*1e3, "median@127q")
}

// BenchmarkFig4YieldVsQubits regenerates Fig. 4: collision-free yield vs
// qubits for detunings 0.04-0.07 GHz and sigma_f in {0.1323, 0.014,
// 0.006} GHz. The reported metrics pin the optimum step (0.06).
func BenchmarkFig4YieldVsQubits(b *testing.B) {
	cfg := benchConfig()
	cfg.MonoBatch = 150
	var cells []YieldSweepCell
	for i := 0; i < b.N; i++ {
		cells = must(Fig4(context.Background(), cfg, 300))
	}
	for _, c := range cells {
		if c.Sigma != 0.014 {
			continue
		}
		// Yield of the ~100q device per step at laser-tuned precision.
		for _, p := range c.Points {
			if p.Qubits >= 95 && p.Qubits <= 110 {
				b.ReportMetric(p.Yield, "y100q@"+stepName(c.Step))
			}
		}
	}
}

func stepName(s float64) string {
	switch {
	case math.Abs(s-0.04) < 1e-9:
		return "40MHz"
	case math.Abs(s-0.05) < 1e-9:
		return "50MHz"
	case math.Abs(s-0.06) < 1e-9:
		return "60MHz"
	default:
		return "70MHz"
	}
}

// BenchmarkFig6Configurations regenerates Fig. 6: configuration count
// and assembled-MCM bound vs square MCM dimension from a 20q chiplet
// batch.
func BenchmarkFig6Configurations(b *testing.B) {
	var res Fig6Result
	for i := 0; i < b.N; i++ {
		res = must(Fig6(context.Background(), benchConfig(), 2000, 5))
	}
	b.ReportMetric(res.Yield, "chiplet-yield")
	b.ReportMetric(res.Rows[0].Log10Configs, "log10cfg@2x2")
	b.ReportMetric(float64(res.Rows[0].MaxMCMs), "mcms@2x2")
}

// BenchmarkFig7DetuningInfidelity regenerates Fig. 7: the CX infidelity
// vs detuning calibration scatter with pooled median ~0.012 and mean
// ~0.018.
func BenchmarkFig7DetuningInfidelity(b *testing.B) {
	var res Fig7Result
	for i := 0; i < b.N; i++ {
		res = must(Fig7(context.Background(), benchConfig()))
	}
	b.ReportMetric(res.Median*1e3, "median-milli")
	b.ReportMetric(res.Mean*1e3, "mean-milli")
}

// BenchmarkFig8MCMVsMonolithicYield regenerates Fig. 8: post-assembly
// MCM yield vs monolithic yield across systems, with bump-bond loss and
// the 100x bond-failure sensitivity line.
func BenchmarkFig8MCMVsMonolithicYield(b *testing.B) {
	cfg := benchConfig()
	cfg.MaxQubits = 200
	var res Fig8Result
	for i := 0; i < b.N; i++ {
		res = must(Fig8(context.Background(), cfg))
	}
	b.ReportMetric(res.ChipletYields[10], "chipyield@10q")
	b.ReportMetric(res.ChipletYields[20], "chipyield@20q")
	if imp, ok := res.Improvements[10]; ok {
		b.ReportMetric(imp, "improvement@10q")
	}
	if imp, ok := res.Improvements[20]; ok {
		b.ReportMetric(imp, "improvement@20q")
	}
}

// BenchmarkFig9InfidelityHeatmap regenerates Fig. 9: E_avg,MCM /
// E_avg,Mono for square MCMs under the four link-quality assumptions.
func BenchmarkFig9InfidelityHeatmap(b *testing.B) {
	cfg := benchConfig()
	cfg.MaxQubits = 180
	var res map[string][]Fig9Cell
	for i := 0; i < b.N; i++ {
		res = must(Fig9(context.Background(), cfg))
	}
	report := func(name string) {
		var sum float64
		var n int
		for _, c := range res[name] {
			if !math.IsNaN(c.Ratio) {
				sum += c.Ratio
				n++
			}
		}
		if n > 0 {
			b.ReportMetric(sum/float64(n), "ratio-"+name)
		}
	}
	report("state-of-art")
	report("ratio-1")
}

// BenchmarkFig10ApplicationFidelity regenerates Fig. 10: benchmark
// fidelity ratio MCM/monolithic on representative square systems.
func BenchmarkFig10ApplicationFidelity(b *testing.B) {
	cfg := benchConfig()
	spec20, err := ChipletSpec(20)
	if err != nil {
		b.Fatal(err)
	}
	spec40, err := ChipletSpec(40)
	if err != nil {
		b.Fatal(err)
	}
	grids := []Grid{
		{Rows: 2, Cols: 2, Spec: spec20},
		{Rows: 2, Cols: 2, Spec: spec40},
	}
	var pts []Fig10Point
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = Fig10(context.Background(), cfg, grids, 2)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Mean log ratio over finite points: > 0 means MCM advantage.
	var sum float64
	var n int
	for _, p := range pts {
		if !p.MonoZero && !math.IsNaN(p.LogRatio) && !math.IsInf(p.LogRatio, 0) {
			sum += p.LogRatio
			n++
		}
	}
	if n > 0 {
		b.ReportMetric(sum/float64(n), "mean-log-ratio")
	}
	b.ReportMetric(float64(n), "finite-points")
}

// BenchmarkTable1CollisionCriteria exercises Table I: the hot-path
// collision-free check on a fabricated 127-qubit-class device.
func BenchmarkTable1CollisionCriteria(b *testing.B) {
	dev := Monolithic(127)
	f := SampleFrequencies(benchSeed, DefaultFabModel(), dev)
	b.ResetTimer()
	free := 0
	for i := 0; i < b.N; i++ {
		if CollisionFree(dev, f) {
			free++
		}
	}
	_ = free
}

// BenchmarkTable2CompiledBenchmarks regenerates Table II: compiled
// 1q / 2q / 2q-critical counts for the benchmark suite on 2x2 MCMs.
func BenchmarkTable2CompiledBenchmarks(b *testing.B) {
	var rows []Table2Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = Table2(context.Background(), benchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.ChipletQubits == 40 && r.Bench == "g" {
			b.ReportMetric(float64(r.Counts.TwoQ), "ghz-2q@160q")
			b.ReportMetric(float64(r.Counts.TwoQCritical), "ghz-2qcrit@160q")
		}
	}
}

// BenchmarkEq1FabricationOutput regenerates the Section V-C worked
// example: ~7.7x more 100-qubit systems from chiplet production.
func BenchmarkEq1FabricationOutput(b *testing.B) {
	var res Eq1Result
	for i := 0; i < b.N; i++ {
		res = must(Eq1Example(context.Background(), DefaultExperimentConfig(benchSeed)))
	}
	b.ReportMetric(res.MonoYield, "Ym")
	b.ReportMetric(res.ChipletYield, "Yc")
	b.ReportMetric(res.Gain, "gain")
}

// must unwraps a (value, error) pair inside a benchmark loop; the
// ctx-first API only fails on cancellation, which benchmarks never do.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

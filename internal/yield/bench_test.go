package yield

import (
	"runtime"
	"testing"

	"chipletqc/internal/topo"
)

// BenchmarkSimulate measures the Monte Carlo yield hot path with Workers
// tracking GOMAXPROCS; run with -cpu 1,4 to compare the serial and
// parallel runner paths (results are identical either way).
func BenchmarkSimulate(b *testing.B) {
	d := topo.MonolithicDevice(topo.MonolithicSpec(100))
	cfg := testConfig()
	cfg.Batch = 2000
	cfg.Workers = runtime.GOMAXPROCS(0)
	b.ResetTimer()
	var res Result
	for i := 0; i < b.N; i++ {
		res = simulate(b, d, cfg)
	}
	b.ReportMetric(res.Fraction(), "yield@100q")
}

// BenchmarkSimulateSerialVsParallel pins the serial/parallel comparison
// explicitly (independent of -cpu) for quick eyeballing.
func BenchmarkSimulateSerialVsParallel(b *testing.B) {
	d := topo.MonolithicDevice(topo.MonolithicSpec(100))
	cfg := testConfig()
	cfg.Batch = 2000
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		cfg.Workers = workers
		b.Run(map[bool]string{true: "serial", false: "parallel"}[workers == 1], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				simulate(b, d, cfg)
			}
		})
	}
}

// BenchmarkSimulateLowYield measures the plain estimator where almost
// every trial collides: a 500-qubit paper device at laser-tuned
// precision, whose yield is about 0. Each trial's draws stop at its
// first Table I collision, so this per-trial cost sits well below
// 500 draws plus a full check.
func BenchmarkSimulateLowYield(b *testing.B) {
	d := topo.MonolithicDevice(topo.MonolithicSpec(500))
	cfg := testConfig()
	cfg.Batch = 2000
	cfg.Workers = runtime.GOMAXPROCS(0)
	b.ResetTimer()
	var res Result
	for i := 0; i < b.N; i++ {
		res = simulate(b, d, cfg)
	}
	b.ReportMetric(res.Fraction(), "yield@500q")
}

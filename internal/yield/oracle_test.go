package yield

import (
	"fmt"
	"testing"

	"chipletqc/internal/collision"
	"chipletqc/internal/runner"
	"chipletqc/internal/stats"
	"chipletqc/internal/topo"
)

// oracleSimulate is the serial counting loop Simulate ran for the zero
// sampling spec before every spec went through an estimator: fabricate
// trial i from its own (seed, i) stream, check it against Table I, count
// it, and consult the precision targets only at the Checkpoints ladder.
// It shares no code with Simulate's stream, so it pins the zero spec's
// trial count, successes and interval independently.
func oracleSimulate(d *topo.Device, cfg Config) Result {
	res := Result{Device: d.Name, Qubits: d.N, CIHi: 1}
	adaptive := cfg.Precision > 0 || cfg.RelPrecision > 0
	max := cfg.Batch
	if adaptive && cfg.MaxTrials > 0 {
		max = cfg.MaxTrials
	}
	if max <= 0 {
		return res
	}
	checker := collision.NewChecker(d, cfg.Params)
	buf := make([]float64, d.N)
	var p stats.Proportion
	for _, cp := range runner.Checkpoints(adaptiveMinTrials, max) {
		for i := p.Trials; i < cp; i++ {
			cfg.Model.SampleInto(runner.Rand(cfg.Seed, i), d, buf)
			p.Add(checker.Free(buf))
		}
		if adaptive && ((cfg.Precision > 0 && p.HalfWidth(stats.Z95) <= cfg.Precision) ||
			(cfg.RelPrecision > 0 && p.RelHalfWidth(stats.Z95) <= cfg.RelPrecision)) {
			break
		}
	}
	res.Batch, res.Free = p.Trials, p.Successes
	res.CILo, res.CIHi = stats.Wilson(res.Free, res.Batch, stats.Z95)
	return res
}

// TestSimulateMatchesInlineOracle: with the zero sampling spec,
// Simulate's estimator path must reproduce the serial counting oracle
// field for field — trials, successes, interval, and the unlabelled
// Estimator "" / Yield 0 / ESS 0 — in the fixed mode and both adaptive
// modes, at any worker count.
func TestSimulateMatchesInlineOracle(t *testing.T) {
	modes := []struct {
		name string
		set  func(*Config)
	}{
		{"fixed", func(c *Config) { c.Batch = 1500 }},
		{"precision", func(c *Config) { c.Batch = 8000; c.Precision = 0.02; c.MaxTrials = 3000 }},
		{"relprecision", func(c *Config) { c.Batch = 4000; c.RelPrecision = 0.2 }},
	}
	for _, q := range []int{20, 60, 100} {
		d := topo.MonolithicDevice(topo.MonolithicSpec(q))
		for _, m := range modes {
			cfg := testConfig()
			cfg.Seed = int64(q)
			m.set(&cfg)
			want := oracleSimulate(d, cfg)
			for _, workers := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%dq/%s/workers=%d", d.N, m.name, workers), func(t *testing.T) {
					c := cfg
					c.Workers = workers
					if got := simulate(t, d, c); got != want {
						t.Errorf("zero-spec Simulate diverged from the counting oracle:\n got %+v\nwant %+v", got, want)
					}
				})
			}
		}
	}
}

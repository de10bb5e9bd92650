package yield

import (
	"context"
	"math"
	"testing"

	"chipletqc/internal/collision"
	"chipletqc/internal/sampling"
	"chipletqc/internal/topo"
)

// scaledThresholds widens every Table I half-width; 1.5x puts a 12-qubit
// monolithic device at a mid yield where all estimators are cheap.
func scaledThresholds(scale float64) collision.Params {
	p := collision.DefaultParams()
	p.T1 *= scale
	p.T2 *= scale
	p.T3 *= scale
	p.T5 *= scale
	p.T6 *= scale
	p.T7 *= scale
	return p
}

// TestEstimatorsDeterministicAcrossWorkers extends the engine's
// determinism contract to the weighted estimators: a fixed-seed
// stratified or importance run must be bit-identical — estimate, trial
// count, ESS, CI — at any worker count, including the Neyman
// allocator's checkpoint-planned blocks.
func TestEstimatorsDeterministicAcrossWorkers(t *testing.T) {
	specs := []sampling.Spec{
		{Method: sampling.Stratified}, // Neyman allocation by default
		{Method: sampling.Stratified, Allocation: sampling.Proportional},
		{Method: sampling.Importance},
	}
	d := topo.MonolithicDevice(topo.MonolithicSpec(24))
	for _, spec := range specs {
		t.Run(spec.String(), func(t *testing.T) {
			cfg := testConfig()
			cfg.Params = scaledThresholds(1.2)
			cfg.Batch = 8000
			cfg.RelPrecision = 0.1
			cfg.Sampling = spec
			cfg.Workers = 1
			a := simulate(t, d, cfg)
			cfg.Workers = 8
			b := simulate(t, d, cfg)
			if a != b {
				t.Errorf("estimated result diverged across workers:\n%+v\n%+v", a, b)
			}
			if a.Estimator != spec.Method {
				t.Errorf("result estimator = %q, want %q", a.Estimator, spec.Method)
			}
		})
	}
}

// TestEstimatorsAgreeOnMidYield is the unbiasedness property test: the
// plain, stratified, and importance estimators run the same mid-yield
// device with independent randomness and must land within their
// combined confidence intervals of each other. The plain estimator and
// the zero spec must in fact both reproduce the serial counting oracle
// bit-identically.
func TestEstimatorsAgreeOnMidYield(t *testing.T) {
	d := topo.MonolithicDevice(topo.MonolithicSpec(12))
	cfg := testConfig()
	cfg.Params = scaledThresholds(1.5)
	cfg.Batch = 30000

	inline := oracleSimulate(d, cfg)

	results := map[string]Result{}
	for _, method := range []string{"", sampling.Plain, sampling.Stratified, sampling.Importance} {
		c := cfg
		c.Sampling = sampling.Spec{Method: method}
		results[method] = simulate(t, d, c)
	}

	for _, method := range []string{"", sampling.Plain} {
		p := results[method]
		if p.Batch != inline.Batch || p.Free != inline.Free ||
			p.CILo != inline.CILo || p.CIHi != inline.CIHi {
			t.Errorf("spec %q does not reproduce the counting oracle:\n%+v\n%+v", method, p, inline)
		}
	}

	se := func(r Result) float64 { return r.HalfWidth() / 1.96 }
	methods := []string{sampling.Plain, sampling.Stratified, sampling.Importance}
	for i, a := range methods {
		ra := results[a]
		t.Logf("%-11s yield=%.5g ci=[%.5g, %.5g] ess=%.0f trials=%d",
			a, ra.Fraction(), ra.CILo, ra.CIHi, ra.ESS, ra.Batch)
		if ra.Fraction() < ra.CILo || ra.Fraction() > ra.CIHi {
			t.Errorf("%s: point estimate %v outside its own CI [%v, %v]",
				a, ra.Fraction(), ra.CILo, ra.CIHi)
		}
		for _, b := range methods[i+1:] {
			rb := results[b]
			z := (ra.Fraction() - rb.Fraction()) / math.Hypot(se(ra), se(rb))
			if math.Abs(z) > 4 {
				t.Errorf("%s and %s disagree: %v vs %v (z = %.2f)",
					a, b, ra.Fraction(), rb.Fraction(), z)
			}
		}
	}
}

// TestEstimatedResultReportsProvenance pins the Result fields the
// estimated path adds: estimator name, weighted point estimate, and a
// positive effective sample size.
func TestEstimatedResultReportsProvenance(t *testing.T) {
	d := topo.MonolithicDevice(topo.MonolithicSpec(12))
	cfg := testConfig()
	cfg.Params = scaledThresholds(1.5)
	cfg.Batch = 2000
	cfg.Sampling = sampling.Spec{Method: sampling.Importance}
	res := simulate(t, d, cfg)
	if res.Estimator != sampling.Importance {
		t.Errorf("estimator = %q, want importance", res.Estimator)
	}
	if res.ESS <= 0 || res.ESS > float64(res.Batch) {
		t.Errorf("ess = %v, want in (0, %d]", res.ESS, res.Batch)
	}
	if res.Fraction() != res.Yield {
		t.Errorf("Fraction() = %v, want the weighted estimate %v", res.Fraction(), res.Yield)
	}
	if res.Batch != 2000 {
		t.Errorf("fixed-mode estimated run used %d trials, want the full batch", res.Batch)
	}
}

// TestSimulateRejectsBadSampling: an invalid spec or an unusable
// estimator configuration must surface as an error, not a panic or a
// silent fall-back to plain counting.
func TestSimulateRejectsBadSampling(t *testing.T) {
	d := topo.MonolithicDevice(topo.MonolithicSpec(12))
	cfg := testConfig()
	cfg.Sampling = sampling.Spec{Method: "bogus"}
	if _, err := Simulate(context.Background(), d, cfg); err == nil {
		t.Error("unknown sampling method should return an error")
	}
	cfg = testConfig()
	cfg.Model.Sigma = 0
	cfg.Sampling = sampling.Spec{Method: sampling.Importance}
	if _, err := Simulate(context.Background(), d, cfg); err == nil {
		t.Error("importance sampling with sigma = 0 should return an error")
	}
}

// TestCurvesPropagateSimulateErrors: an estimator that cannot be built
// must fail every fan-out over Simulate instead of leaving zero-valued
// points behind a nil error.
func TestCurvesPropagateSimulateErrors(t *testing.T) {
	cfg := testConfig()
	cfg.Batch = 50
	cfg.Model.Sigma = 0
	cfg.Sampling = sampling.Spec{Method: sampling.Importance}
	ctx := context.Background()
	if pts, err := MonolithicCurve(ctx, []int{20, 40}, cfg); err == nil {
		t.Errorf("MonolithicCurve returned %+v with a nil error", pts)
	}
	if res, err := ChipletYields(ctx, cfg); err == nil {
		t.Errorf("ChipletYields returned %+v with a nil error", res)
	}
	if cells, err := Sweep(ctx, []float64{0.06}, []float64{0}, []int{20}, cfg); err == nil {
		t.Errorf("Sweep returned %+v with a nil error", cells)
	}
}

// TestResolveSamplingMethod pins the -sampling flag sentinels: ""
// inherits, "none"/"off" force the zero spec, anything else selects
// that method at defaults.
func TestResolveSamplingMethod(t *testing.T) {
	scenario := sampling.Spec{Method: sampling.Importance, MinESS: 80}
	if got := ResolveSamplingMethod(scenario, ""); got != scenario {
		t.Errorf("empty override should inherit, got %+v", got)
	}
	for _, off := range []string{"none", "off"} {
		if got := ResolveSamplingMethod(scenario, off); !got.IsZero() {
			t.Errorf("%q should force the zero spec, got %+v", off, got)
		}
	}
	if got := ResolveSamplingMethod(scenario, sampling.Stratified); got.Method != sampling.Stratified {
		t.Errorf("method override should replace the spec, got %+v", got)
	}
}

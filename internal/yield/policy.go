package yield

import (
	"fmt"
	"math"

	"chipletqc/internal/sampling"
)

// Policy is the Monte Carlo stopping policy: when a simulation may stop
// early and which estimator it runs. Config, eval.Config and
// scenario.TrialPolicy embed it; the zero value is the fixed-batch
// plain-counting mode, bit-identical to releases that predate it.
type Policy struct {
	// Precision switches Simulate into adaptive mode: trials stream in
	// checkpointed blocks and stop once the 95% CI half-width on the
	// yield is <= Precision. 0 keeps the fixed-batch mode. Early-stop
	// decisions happen only at fixed checkpoint trial counts, so
	// adaptive results are still worker-count invariant.
	Precision float64
	// RelPrecision is the adaptive mode's relative target: stop once the
	// 95% CI half-width <= RelPrecision x the point estimate. It is the
	// right stopping rule for near-zero yields, where any absolute
	// target stops long before the event has even been observed; a run
	// with zero successes can never satisfy it. Either precision target
	// being met stops the run; 0 disables this one.
	RelPrecision float64
	// MaxTrials caps the adaptive mode's budget; <= 0 falls back to the
	// batch size, so adaptive runs never exceed the fixed default's cost.
	MaxTrials int
	// Sampling selects the yield estimator (see internal/sampling):
	// plain counting, stratified, or importance sampling with
	// likelihood-ratio reweighting for deep-low-yield scenarios. The
	// zero spec runs plain counting with the result left unlabelled
	// (Result.Estimator "").
	Sampling sampling.Spec
}

// PolicyOverride is a per-run adjustment of a Policy, as the CLI flags
// and campaign plans spell it. For each number 0 inherits, a positive
// value replaces and a negative value forces zero (fixed batch, no cap,
// no relative target). Sampling "" inherits, "none" or "off" forces
// the zero spec, and a method name selects that estimator at its
// defaults.
type PolicyOverride struct {
	Precision    float64 `json:"precision,omitempty"`
	MaxTrials    int     `json:"max_trials,omitempty"`
	RelPrecision float64 `json:"rel_precision,omitempty"`
	Sampling     string  `json:"sampling,omitempty"`
}

// With returns p with the override applied.
func (p Policy) With(o PolicyOverride) Policy {
	p.Precision = override(p.Precision, o.Precision)
	p.MaxTrials = override(p.MaxTrials, o.MaxTrials)
	p.RelPrecision = override(p.RelPrecision, o.RelPrecision)
	switch o.Sampling {
	case "":
	case "none", "off":
		p.Sampling = sampling.Spec{}
	default:
		p.Sampling = sampling.Spec{Method: o.Sampling}
	}
	return p
}

func override[T float64 | int](current, o T) T {
	switch {
	case o > 0:
		return o
	case o < 0:
		return 0
	}
	return current
}

// Validate reports the first invalid policy value: a non-finite or
// negative target, a negative cap, or an invalid sampling spec.
func (p Policy) Validate() error {
	if err := checkTarget("precision", p.Precision, false); err != nil {
		return err
	}
	if err := checkTarget("relative precision", p.RelPrecision, false); err != nil {
		return err
	}
	if p.MaxTrials < 0 {
		return fmt.Errorf("trial policy: max trials %d is negative", p.MaxTrials)
	}
	return p.Sampling.Validate()
}

// Validate reports the first invalid override value: a non-finite
// target or an unknown estimator. Negative numbers are sentinels and
// pass.
func (o PolicyOverride) Validate() error {
	if err := checkTarget("precision", o.Precision, true); err != nil {
		return err
	}
	if err := checkTarget("relative precision", o.RelPrecision, true); err != nil {
		return err
	}
	return Policy{}.With(o).Sampling.Validate()
}

// checkTarget rejects a non-finite target, and a negative one unless
// negative is a sentinel there.
func checkTarget(name string, x float64, sentinel bool) error {
	switch {
	case math.IsNaN(x) || math.IsInf(x, 0):
		return fmt.Errorf("trial policy: %s %g is not finite", name, x)
	case x < 0 && !sentinel:
		return fmt.Errorf("trial policy: %s %g is negative", name, x)
	}
	return nil
}

package yield

import (
	"math"
	"testing"

	"chipletqc/internal/sampling"
)

// TestApplyTrialPolicyOverrides pins the numeric override sentinels on
// a yield.Config: 0 inherits, positive overrides, negative forces the
// fixed-batch mode.
func TestApplyTrialPolicyOverrides(t *testing.T) {
	cfg := Config{Policy: Policy{Precision: 0.05, MaxTrials: 500}}
	cfg.Policy = cfg.Policy.With(PolicyOverride{})
	if cfg.Precision != 0.05 || cfg.MaxTrials != 500 {
		t.Errorf("zero overrides should inherit, got %+v", cfg.Policy)
	}
	cfg.Policy = cfg.Policy.With(PolicyOverride{Precision: 0.01, MaxTrials: 99})
	if cfg.Precision != 0.01 || cfg.MaxTrials != 99 {
		t.Errorf("positive overrides should apply, got %+v", cfg.Policy)
	}
	cfg.Policy = cfg.Policy.With(PolicyOverride{Precision: -1, MaxTrials: -1})
	if cfg.Policy != (Policy{}) {
		t.Errorf("negative overrides should force fixed mode, got %+v", cfg.Policy)
	}
}

// TestResolveSamplingMethod pins the sampling override sentinels: ""
// inherits, "none"/"off" force the zero spec, anything else selects
// that method at defaults. The numeric fields are left alone.
func TestResolveSamplingMethod(t *testing.T) {
	imp := sampling.Spec{Method: sampling.Importance, MinESS: 80}
	base := Policy{Precision: 0.05, MaxTrials: 4000, RelPrecision: 0.2, Sampling: imp}
	if got := base.With(PolicyOverride{}); got != base {
		t.Errorf("empty override should inherit, got %+v", got)
	}
	for _, off := range []string{"none", "off"} {
		want := base
		want.Sampling = sampling.Spec{}
		if got := base.With(PolicyOverride{Sampling: off}); got != want {
			t.Errorf("%q should force the zero spec, got %+v", off, got)
		}
	}
	want := base
	want.Sampling = sampling.Spec{Method: sampling.Stratified}
	if got := base.With(PolicyOverride{Sampling: sampling.Stratified}); got != want {
		t.Errorf("method override should replace the spec at defaults, got %+v", got)
	}
}

// TestPolicyWith pins the relative-precision sentinels and that each
// override field touches only its own policy field.
func TestPolicyWith(t *testing.T) {
	imp := sampling.Spec{Method: sampling.Importance, MinESS: 80}
	adaptive := Policy{Precision: 0.05, MaxTrials: 4000, RelPrecision: 0.2, Sampling: imp}
	for _, c := range []struct {
		name string
		o    PolicyOverride
		want Policy
	}{
		{"zero inherits", PolicyOverride{}, adaptive},
		{"relative replaced", PolicyOverride{RelPrecision: 0.1},
			Policy{Precision: 0.05, MaxTrials: 4000, RelPrecision: 0.1, Sampling: imp}},
		{"relative disabled", PolicyOverride{RelPrecision: -1},
			Policy{Precision: 0.05, MaxTrials: 4000, Sampling: imp}},
		{"precision alone", PolicyOverride{Precision: 0.02},
			Policy{Precision: 0.02, MaxTrials: 4000, RelPrecision: 0.2, Sampling: imp}},
		{"cap reset alone", PolicyOverride{MaxTrials: -1},
			Policy{Precision: 0.05, RelPrecision: 0.2, Sampling: imp}},
		{"all reset", PolicyOverride{Precision: -1, MaxTrials: -1, RelPrecision: -1, Sampling: "none"}, Policy{}},
	} {
		if got := adaptive.With(c.o); got != c.want {
			t.Errorf("%s: %+v.With(%+v) = %+v, want %+v", c.name, adaptive, c.o, got, c.want)
		}
	}
}

// TestPolicyValidate: a resolved policy must be finite and
// non-negative with a known estimator; an override may carry negative
// sentinels but nothing non-finite or unknown.
func TestPolicyValidate(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, p := range []Policy{{}, {Precision: 0.01, RelPrecision: 0.2, MaxTrials: 9, Sampling: sampling.Spec{Method: sampling.Importance}}} {
		if err := p.Validate(); err != nil {
			t.Errorf("%+v.Validate() = %v, want nil", p, err)
		}
	}
	for _, p := range []Policy{
		{Precision: nan}, {Precision: inf}, {Precision: -0.01},
		{RelPrecision: nan}, {RelPrecision: -inf}, {RelPrecision: -1},
		{MaxTrials: -1}, {Sampling: sampling.Spec{Method: "bogus"}},
	} {
		if err := p.Validate(); err == nil {
			t.Errorf("%+v.Validate() = nil, want an error", p)
		}
	}
	for _, o := range []PolicyOverride{{}, {Precision: -1, MaxTrials: -1, RelPrecision: -1, Sampling: "none"}, {Sampling: "off"}, {Sampling: sampling.Plain}} {
		if err := o.Validate(); err != nil {
			t.Errorf("%+v.Validate() = %v, want nil", o, err)
		}
	}
	for _, o := range []PolicyOverride{{Precision: nan}, {Precision: -inf}, {RelPrecision: nan}, {RelPrecision: inf}, {Sampling: "bogus"}} {
		if err := o.Validate(); err == nil {
			t.Errorf("%+v.Validate() = nil, want an error", o)
		}
	}
}

package sampling

import (
	"testing"

	"chipletqc/internal/collision"
	"chipletqc/internal/fab"
	"chipletqc/internal/topo"
)

// scaledThresholds widens (scale > 1) or narrows every Table I
// half-width, the knob the rare-event tests use to dial the yield.
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

func TestSpecCanonicalResolvesDefaults(t *testing.T) {
	cases := []struct {
		name string
		in   Spec
		want Spec
	}{
		{"zero stays zero", Spec{}, Spec{}},
		{"plain drops foreign fields",
			Spec{Method: Plain, Strata: 7, Allocation: Proportional, Tilt: 1.3, MinESS: 9},
			Spec{Method: Plain}},
		{"stratified fills defaults",
			Spec{Method: Stratified},
			Spec{Method: Stratified, Strata: DefaultStrata, Allocation: Neyman,
				Tilt: DefaultTilt, MinESS: DefaultMinESS}},
		{"stratified keeps explicit fields",
			Spec{Method: Stratified, Strata: 16, Allocation: Proportional, Tilt: 1.5, MinESS: 10},
			Spec{Method: Stratified, Strata: 16, Allocation: Proportional, Tilt: 1.5, MinESS: 10}},
		{"importance drops stratified fields",
			Spec{Method: Importance, Strata: 16, Allocation: Proportional, Tilt: 1.5},
			Spec{Method: Importance, MinESS: DefaultMinESS}},
	}
	for _, tc := range cases {
		if got := tc.in.Canonical(); got != tc.want {
			t.Errorf("%s: Canonical() = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// TestSpecStringFingerprintStable pins the token fingerprints embed: an
// explicitly-defaulted spec and a bare method spec must render (and so
// cache) identically, and the zero spec must render empty so pinned
// pre-sampling fingerprints stay byte-identical.
func TestSpecStringFingerprintStable(t *testing.T) {
	if got := (Spec{}).String(); got != "" {
		t.Errorf("zero spec renders %q, want empty", got)
	}
	if got := (Spec{Method: Plain}).String(); got != "plain" {
		t.Errorf("plain renders %q", got)
	}
	if got := (Spec{Method: Stratified}).String(); got != "stratified(strata=32,alloc=neyman,tilt=0.7,miness=50)" {
		t.Errorf("stratified default renders %q", got)
	}
	if got := (Spec{Method: Importance}).String(); got != "importance(miness=50)" {
		t.Errorf("importance default renders %q", got)
	}
	bare := Spec{Method: Stratified}
	explicit := Spec{Method: Stratified, Strata: DefaultStrata, Allocation: Neyman,
		Tilt: DefaultTilt, MinESS: DefaultMinESS}
	if bare.String() != explicit.String() {
		t.Errorf("default-resolved specs split the fingerprint space: %q vs %q",
			bare.String(), explicit.String())
	}
}

func TestSpecValidate(t *testing.T) {
	valid := []Spec{
		{},
		{Method: Plain},
		{Method: Stratified},
		{Method: Stratified, Strata: 256, Allocation: Proportional, Tilt: 0.5},
		{Method: Stratified, Tilt: 2},
		{Method: Importance},
		{Method: Importance, MinESS: 100},
	}
	for _, s := range valid {
		if err := s.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", s, err)
		}
	}
	invalid := []Spec{
		{Method: "bogus"},
		{Method: Stratified, MinESS: -1},
		{Method: Importance, MinESS: -1},
		{Method: Stratified, Strata: -1},
		{Method: Stratified, Strata: 257},
		{Method: Stratified, Allocation: "greedy"},
		{Method: Stratified, Tilt: 0.3},
		{Method: Stratified, Tilt: 2.5},
		{Method: Stratified, Tilt: -1},
	}
	for _, s := range invalid {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", s)
		}
	}
}

func TestNewSelectsEstimator(t *testing.T) {
	d := topo.MonolithicDevice(topo.MonolithicSpec(16))
	m := fab.DefaultModel()
	p := collision.DefaultParams()
	for spec, want := range map[Spec]string{
		{}:                   Plain,
		{Method: Plain}:      Plain,
		{Method: Stratified}: Stratified,
		{Method: Importance}: Importance,
	} {
		est, err := New(spec, d, m, collision.NewChecker(d, p))
		if err != nil {
			t.Fatalf("New(%+v): %v", spec, err)
		}
		if est.Name() != want {
			t.Errorf("New(%+v).Name() = %q, want %q", spec, est.Name(), want)
		}
	}
}

func TestNewRejectsUnusableConfigs(t *testing.T) {
	d := topo.MonolithicDevice(topo.MonolithicSpec(16))
	deterministic := fab.DefaultModel()
	deterministic.Sigma = 0
	p := collision.DefaultParams()
	cases := []struct {
		name string
		spec Spec
		m    fab.Model
	}{
		{"unknown method", Spec{Method: "bogus"}, fab.DefaultModel()},
		{"stratified without noise", Spec{Method: Stratified}, deterministic},
		{"importance without noise", Spec{Method: Importance}, deterministic},
	}
	for _, tc := range cases {
		if _, err := New(tc.spec, d, tc.m, collision.NewChecker(d, p)); err == nil {
			t.Errorf("%s: New succeeded, want error", tc.name)
		}
	}
}

// TestStratifiedSliceMassesExact pins the warped-slice construction:
// the slice masses are exact CDF differences, so they sum to 1 for any
// tilt, the likelihood ratios are S·mass_s, and tilt 1 degenerates to
// the classic equiprobable split.
func TestStratifiedSliceMassesExact(t *testing.T) {
	d := topo.MonolithicDevice(topo.MonolithicSpec(16))
	m := fab.DefaultModel()
	for _, tilt := range []float64{0.5, 0.7, 1, 2} {
		spec := Spec{Method: Stratified, Tilt: tilt}.Canonical()
		e := newStratified(spec, d, m)
		total := 0.0
		for s := 0; s < spec.Strata; s++ {
			if e.mass[s] <= 0 {
				t.Fatalf("tilt %g: stratum %d has non-positive mass %g", tilt, s, e.mass[s])
			}
			if got, want := e.massW[s], float64(spec.Strata)*e.mass[s]; got != want {
				t.Errorf("tilt %g: massW[%d] = %g, want S*mass = %g", tilt, s, got, want)
			}
			// The quantile seed table must be strictly increasing within a
			// stratum (its nodes sit at strictly increasing CDF values) and
			// non-decreasing across the whole table.
			row := e.seedQ[s*(stratSeedN+1) : (s+1)*(stratSeedN+1)]
			for j := 1; j < len(row); j++ {
				if row[j] <= row[j-1] {
					t.Errorf("tilt %g: stratum %d seed nodes not increasing at %d (%g <= %g)",
						tilt, s, j, row[j], row[j-1])
				}
			}
			if s > 0 && row[0] < e.seedQ[s*(stratSeedN+1)-1] {
				t.Errorf("tilt %g: seed table decreasing across stratum boundary %d", tilt, s)
			}
			total += e.mass[s]
		}
		if diff := total - 1; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("tilt %g: slice masses sum to %v, want 1", tilt, total)
		}
		if tilt == 1 {
			for s := 0; s < spec.Strata; s++ {
				if diff := e.mass[s] - 1/float64(spec.Strata); diff > 1e-12 || diff < -1e-12 {
					t.Errorf("tilt 1: stratum %d mass %g, want equiprobable %g",
						s, e.mass[s], 1/float64(spec.Strata))
				}
			}
		}
	}
}

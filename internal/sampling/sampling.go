// Package sampling provides pluggable Monte Carlo yield estimators for
// the collision-free yield simulation: the plain counting estimator the
// engine always had, a stratified estimator (the fabrication draw is
// partitioned into radial strata of its differential mode, with
// proportional or Neyman allocation and exact per-slice masses), and an
// importance-sampling estimator (qubit frequencies are placed
// sequentially, each drawn from the fabrication Gaussian conditioned on
// the values that keep the partial assignment collision-free, and every
// trial is reweighted by the exact Gaussian likelihood ratio — the
// product of the per-qubit allowed masses).
//
// The plain estimator screens each trial while drawing it: it draws
// qubit frequencies in index order through the engine's checker and
// returns a −Inf weight at the first completed Table I collision, so
// its per-trial cost falls with the yield. The stratified estimator
// needs a trial's whole draw before it can normalise, so it fills the
// buffer and leaves the check to the engine.
//
// The variance-reduction estimators exist for deep-low-yield scenarios:
// once the collision-free probability p falls toward 10^-3 and below,
// the plain estimator needs ~z²/(rel²·p) trials for a tight *relative*
// confidence interval — ~10^5 trials at p = 10^-3 for ±20%, ~10^7 at
// p = 10^-5 — and adaptive stopping cannot help because every trial is
// an almost-certain failure. The sequential conditioned estimator never
// wastes a trial: its proposal's support is exactly the collision-free
// set, every sample carries a weight in (0, 1], and the trial count at
// equal CI width drops by orders of magnitude (see the tight-thresholds
// acceptance test in internal/scenario).
//
// Every estimator honours the engine's determinism contract: trial i
// draws only from its private (seed, i)-derived RNG stream, stratum
// assignment is a pure function of the trial index and of statistics
// frozen at fixed checkpoint trial counts, and observations fold in
// index order — so estimates, trial counts, and effective sample sizes
// are bit-identical at any worker count. Estimators are single-use and
// bind one (device, fabrication model) pair; SampleInto is safe for
// concurrent workers because it never mutates estimator state.
package sampling

import (
	"fmt"
	"math"
	"math/rand"

	"chipletqc/internal/collision"
	"chipletqc/internal/fab"
	"chipletqc/internal/topo"
)

// Method names. The empty method is "no spec": the yield engine runs
// the plain estimator and leaves its results unlabelled.
const (
	Plain      = "plain"
	Stratified = "stratified"
	Importance = "importance"
)

// Allocation policies for the stratified estimator.
const (
	Proportional = "proportional"
	Neyman       = "neyman"
)

// Defaults resolved by Spec.Canonical.
const (
	// DefaultStrata is the stratified estimator's radial stratum count:
	// fine enough to resolve how sharply the collision-free rate falls
	// with the differential radius, coarse enough that every stratum is
	// fed within the first adaptive blocks.
	DefaultStrata = 32
	// DefaultTilt warps the stratified estimator's radial slice
	// boundaries. Below 1 resolution concentrates toward the ideal
	// frequency plan — the right direction for deep-low-yield scenarios,
	// where the rare collision-free region is the plan's small-deviation
	// neighbourhood (the plan itself is collision-free and the criteria
	// are two-sided bands in pairwise frequency differences).
	DefaultTilt = 0.7
	// DefaultMinESS is the effective sample size both weighted
	// estimators require before they let adaptive stopping trigger:
	// the per-stratum-summed effective success count for stratified,
	// the Kish size (Σw)²/Σw² for importance. An estimate resting on a
	// handful of dominant weights must keep sampling no matter how
	// small its nominal variance looks.
	DefaultMinESS = 50
)

// Spec selects and parameterises a yield estimator. It is plain,
// comparable data so it can live in a scenario's trial policy and fold
// into fingerprints. The zero value means "unset": the yield engine
// runs the plain estimator but reports its results unlabelled, so they
// stay byte-identical to releases that predate this package.
type Spec struct {
	// Method is "plain", "stratified", or "importance" ("" = unset).
	Method string `json:"method,omitempty"`
	// Strata is the stratified estimator's radial stratum count
	// (0 = DefaultStrata). Ignored by plain and importance.
	Strata int `json:"strata,omitempty"`
	// Allocation is the stratified estimator's trial-allocation policy:
	// "proportional" fills strata uniformly; "neyman" reallocates each
	// checkpoint block toward high-variance strata (the default —
	// aiming trials at the radial shells where successes vary is where
	// the savings come from). Ignored by plain and importance.
	Allocation string `json:"allocation,omitempty"`
	// Tilt warps the stratified estimator's radial slice boundaries,
	// placed at target-CDF values (s/Strata)^(1/Tilt²)
	// (0 = DefaultTilt). Values below 1 concentrate resolution — and
	// with it sampling effort — toward the ideal frequency plan; values
	// above 1 push it toward large deviations. Range [0.5, 2]. Ignored
	// by plain and importance.
	Tilt float64 `json:"tilt,omitempty"`
	// MinESS is the effective sample size a weighted estimator must
	// reach before adaptive stopping may trigger (0 = DefaultMinESS).
	// Ignored by plain.
	MinESS float64 `json:"min_ess,omitempty"`
}

// IsZero reports whether the spec is unset.
func (s Spec) IsZero() bool { return s == Spec{} }

// Canonical resolves defaults and zeroes every field the method does
// not read, so two specs that configure the same estimator compare and
// fingerprint equal (a leftover Tilt on a stratified spec must not
// split the artifact-store key space).
func (s Spec) Canonical() Spec {
	switch s.Method {
	case "":
		return Spec{}
	case Plain:
		return Spec{Method: Plain}
	case Stratified:
		c := Spec{Method: Stratified, Strata: s.Strata, Allocation: s.Allocation,
			Tilt: s.Tilt, MinESS: s.MinESS}
		if c.Strata == 0 {
			c.Strata = DefaultStrata
		}
		if c.Allocation == "" {
			c.Allocation = Neyman
		}
		if c.Tilt == 0 {
			c.Tilt = DefaultTilt
		}
		if c.MinESS == 0 {
			c.MinESS = DefaultMinESS
		}
		return c
	case Importance:
		c := Spec{Method: Importance, MinESS: s.MinESS}
		if c.MinESS == 0 {
			c.MinESS = DefaultMinESS
		}
		return c
	}
	return s
}

// Validate reports the first invalid spec field.
func (s Spec) Validate() error {
	switch s.Method {
	case "", Plain:
	case Stratified, Importance:
		if s.MinESS < 0 {
			return fmt.Errorf("sampling: negative MinESS %g", s.MinESS)
		}
		if s.Method == Importance {
			break
		}
		if s.Strata < 0 || s.Strata > 256 {
			return fmt.Errorf("sampling: strata %d outside [0, 256]", s.Strata)
		}
		switch s.Allocation {
		case "", Proportional, Neyman:
		default:
			return fmt.Errorf("sampling: unknown allocation %q (want %q or %q)",
				s.Allocation, Proportional, Neyman)
		}
		if s.Tilt < 0 {
			return fmt.Errorf("sampling: negative tilt %g", s.Tilt)
		}
		// The likelihood ratio is piecewise constant (the slice masses
		// are exact by construction), so no tilt diverges; the bounds
		// only keep the CDF warp exponent 1/t² numerically sane.
		if s.Tilt != 0 && (s.Tilt < 0.5 || s.Tilt > 2) {
			return fmt.Errorf("sampling: tilt %g out of range [0.5, 2]", s.Tilt)
		}
	default:
		return fmt.Errorf("sampling: unknown method %q (want %q, %q, or %q)",
			s.Method, Plain, Stratified, Importance)
	}
	return nil
}

// String renders the canonical spec as a short stable token, the form
// scenario and experiment fingerprints embed. The zero spec renders "".
func (s Spec) String() string {
	c := s.Canonical()
	switch c.Method {
	case "":
		return ""
	case Stratified:
		return fmt.Sprintf("stratified(strata=%d,alloc=%s,tilt=%g,miness=%g)",
			c.Strata, c.Allocation, c.Tilt, c.MinESS)
	case Importance:
		return fmt.Sprintf("importance(miness=%g)", c.MinESS)
	}
	return c.Method
}

// Estimate is one estimator's current view of the yield.
type Estimate struct {
	// Estimator is the producing method's name.
	Estimator string
	// Trials and Successes count raw executed trials and raw
	// collision-free outcomes (under the *proposal* for importance
	// sampling, so Successes/Trials is not the estimate there).
	Trials    int
	Successes int
	// Yield is the point estimate of the collision-free probability.
	Yield float64
	// ESS is the effective sample size: Trials for unweighted
	// estimators; for importance sampling it is the effective success
	// count (Σw·y)²/Σ(w·y)², the number of equally weighted successes
	// carrying the same estimator mass.
	ESS float64
	// CILo and CIHi bound the yield with a 95%-style interval at the
	// quantile the snapshot was taken with.
	CILo, CIHi float64
}

// HalfWidth returns half the interval width.
func (e Estimate) HalfWidth() float64 { return (e.CIHi - e.CILo) / 2 }

// RelHalfWidth returns the interval half-width relative to the point
// estimate; +Inf when the estimate is 0, so a run that has seen no
// successes can never satisfy a relative-precision target.
func (e Estimate) RelHalfWidth() float64 {
	if e.Yield <= 0 {
		return math.Inf(1)
	}
	return e.HalfWidth() / e.Yield
}

// Estimator is one pluggable yield-estimation strategy, driven by the
// checkpointed streaming loop in internal/yield:
//
//	PlanBlock(lo, hi)            before each block of trials [lo, hi)
//	w := SampleInto(r, i, buf)   concurrently, one call per trial
//	Observe(i, ok, w)            in trial-index order after the block
//	HalfWidth / Snapshot         at checkpoints, for stopping and results
//
// PlanBlock and Observe run on the coordinating goroutine only;
// SampleInto runs concurrently from workers and must not mutate state.
// The float64 threaded from SampleInto to Observe is the trial's LOG
// likelihood ratio (0 for unweighted estimators), kept in log domain so
// extreme draws cannot overflow a linear weight.
type Estimator interface {
	// Name returns the method name recorded on results.
	Name() string
	// PlanBlock prepares trial assignment for indices [lo, hi). It is
	// never called concurrently with SampleInto.
	PlanBlock(lo, hi int)
	// SampleInto fills buf (device-qubit length) with trial i's realised
	// frequencies from r, which is positioned on trial i's private
	// stream, and returns the trial's log likelihood ratio. −Inf marks
	// a trial already known to fail (a dead end, or a collision found
	// while drawing); buf may then be only partly filled.
	SampleInto(r *rand.Rand, i int, buf []float64) float64
	// Observe folds trial i's outcome; called in index order.
	Observe(i int, ok bool, logw float64)
	// HalfWidth returns the current CI half-width at quantile z, or +Inf
	// while the estimate is not yet stoppable (empty strata, ESS below
	// the guard), so adaptive stopping composes with the guards for free.
	HalfWidth(z float64) float64
	// Snapshot reports the current estimate with its CI at quantile z.
	Snapshot(z float64) Estimate
}

// New constructs the estimator a spec selects, bound to one device,
// fabrication model, and collision checker compiled for that device.
// The zero spec yields the plain estimator. The plain estimator screens
// each draw with ch; the importance estimator builds its conditioned
// proposal from ch's thresholds. Passing the engine's own checker keeps
// both free by construction under exactly the criteria the engine
// audits with.
func New(spec Spec, d *topo.Device, m fab.Model, ch *collision.Checker) (Estimator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	c := spec.Canonical()
	switch c.Method {
	case "", Plain:
		return newPlain(d, m, ch), nil
	case Stratified:
		if m.Sigma <= 0 {
			return nil, fmt.Errorf("sampling: stratified sampling needs a positive fabrication sigma (got %g)", m.Sigma)
		}
		if d.N < 2 {
			return nil, fmt.Errorf("sampling: stratified sampling needs at least 2 qubits (got %d); the differential mode it slices is empty", d.N)
		}
		return newStratified(c, d, m), nil
	case Importance:
		if m.Sigma <= 0 {
			return nil, fmt.Errorf("sampling: importance sampling needs a positive fabrication sigma (got %g)", m.Sigma)
		}
		// newImportance validates the per-qubit band counts against the
		// sequential proposal's scratch capacity and returns a typed
		// *BandLimitError for over-dense devices.
		return newImportance(c, d, m, ch.Params())
	}
	return nil, fmt.Errorf("sampling: unknown method %q", c.Method)
}

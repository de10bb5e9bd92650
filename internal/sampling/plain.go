package sampling

import (
	"math"
	"math/rand"

	"chipletqc/internal/collision"
	"chipletqc/internal/fab"
	"chipletqc/internal/stats"
	"chipletqc/internal/topo"
)

// plain is the counting estimator behind the Estimator interface, and
// the one the zero spec runs: unweighted fabrication draws on the
// trial's own stream, Wilson score intervals. Each trial is screened
// while it is drawn (fab.Model.SampleFreeInto): the draw stops at the
// first qubit that completes a Table I collision and the trial returns
// −Inf, so a trial's cost falls with the device's yield. A free trial
// holds exactly fab.Model.SampleInto's frequencies, which is why plain
// declares itself free by construction and leaves the engine's checker
// to a sampled audit.
type plain struct {
	d *topo.Device
	m fab.Model
	c *collision.Checker
	p stats.Proportion
}

func newPlain(d *topo.Device, m fab.Model, c *collision.Checker) *plain {
	return &plain{d: d, m: m, c: c}
}

func (e *plain) Name() string { return Plain }

// FreeByConstruction reports that every finite-weight trial has passed
// the full Table I screen while it was drawn.
func (e *plain) FreeByConstruction() bool { return true }

func (e *plain) PlanBlock(lo, hi int) {}

func (e *plain) SampleInto(r *rand.Rand, i int, buf []float64) float64 {
	if !e.m.SampleFreeInto(r, e.d, e.c, buf) {
		return math.Inf(-1)
	}
	return 0
}

func (e *plain) Observe(i int, ok bool, logw float64) { e.p.Add(ok) }

func (e *plain) HalfWidth(z float64) float64 { return e.p.HalfWidth(z) }

func (e *plain) Snapshot(z float64) Estimate {
	lo, hi := e.p.CI(z)
	return Estimate{
		Estimator: Plain,
		Trials:    e.p.Trials,
		Successes: e.p.Successes,
		Yield:     e.p.Estimate(),
		ESS:       float64(e.p.Trials),
		CILo:      lo,
		CIHi:      hi,
	}
}

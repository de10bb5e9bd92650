// Package analytic provides closed-form estimates of frequency-collision
// probabilities and collision-free yield under Gaussian fabrication
// noise. Each Table I criterion is a band (or tail) constraint on a
// linear combination of independent normal frequencies, so its violation
// probability is an exact expression in the normal CDF; a device's yield
// is then approximated by the product over criteria (independence
// approximation — criteria share qubits, so this is an estimate, but it
// tracks the Monte Carlo simulation closely and runs thousands of times
// faster, which the frequency-allocation optimiser exploits).
package analytic

import (
	"math"

	"chipletqc/internal/collision"
	"chipletqc/internal/topo"
)

// Phi is the standard normal CDF.
func Phi(x float64) float64 {
	return 0.5 * (1 + math.Erf(x/math.Sqrt2))
}

// bandProb returns P(|X - c| <= w) for X ~ N(mu, sigma^2): the
// probability that X lands in the band [c-w, c+w].
func bandProb(mu, sigma, c, w float64) float64 {
	if sigma == 0 {
		if math.Abs(mu-c) <= w {
			return 1
		}
		return 0
	}
	return Phi((c+w-mu)/sigma) - Phi((c-w-mu)/sigma)
}

// tailBelow returns P(X < c) for X ~ N(mu, sigma^2).
func tailBelow(mu, sigma, c float64) float64 {
	if sigma == 0 {
		if mu < c {
			return 1
		}
		return 0
	}
	return Phi((c - mu) / sigma)
}

// EdgeFreeProb returns the probability that a control/target pair with
// ideal frequencies ti (control) and tj (target), each drawn
// independently with spread sigma, satisfies all pairwise criteria
// (Table I types 1-4).
func EdgeFreeProb(ti, tj, sigma float64, p collision.Params) float64 {
	a := p.Anharmonicity
	// Differences of two independent normals: sigma * sqrt(2).
	sd := sigma * math.Sqrt2
	mu := ti - tj // distribution of fi - fj

	free := 1.0
	// Type 1: |fi - fj| <= T1.
	free *= 1 - bandProb(mu, sd, 0, p.T1)
	// Type 2: |fi + a/2 - fj| <= T2  ->  band around -a/2 for fi - fj.
	free *= 1 - bandProb(mu, sd, -a/2, p.T2)
	// Type 3: band around a or -a.
	free *= 1 - bandProb(mu, sd, a, p.T3)
	free *= 1 - bandProb(mu, sd, -a, p.T3)
	// Type 4: fj < fi + a (fi - fj > -a) or fi < fj (fi - fj < 0).
	free *= 1 - (tailBelow(-mu, sd, a) + tailBelow(mu, sd, 0))
	if free < 0 {
		return 0
	}
	return free
}

// PairFreeProb returns the probability that a control with two targets
// (ideal frequencies ti; tj, tk) satisfies the spectator criteria
// (types 5-7).
func PairFreeProb(ti, tj, tk, sigma float64, p collision.Params) float64 {
	a := p.Anharmonicity
	sd2 := sigma * math.Sqrt2
	muJK := tj - tk

	free := 1.0
	// Type 5: |fj - fk| <= T5.
	free *= 1 - bandProb(muJK, sd2, 0, p.T5)
	// Type 6: |fj - fk - a| <= T6 or |fj + a - fk| <= T6.
	free *= 1 - bandProb(muJK, sd2, a, p.T6)
	free *= 1 - bandProb(muJK, sd2, -a, p.T6)
	// Type 7: |2fi + a - fj - fk| <= T7; variance 4+1+1 = 6 sigma^2.
	mu7 := 2*ti + a - tj - tk
	free *= 1 - bandProb(mu7, sigma*math.Sqrt(6), 0, p.T7)
	if free < 0 {
		return 0
	}
	return free
}

// DeviceYield estimates the collision-free yield of a device under the
// given frequency plan and fabrication spread: the product of the free
// probabilities of every coupling and every control pair.
func DeviceYield(d *topo.Device, plan topo.FreqPlan, sigma float64, p collision.Params) float64 {
	classes := make([]topo.Class, d.N)
	copy(classes, d.Class)
	return YieldForClasses(d, classes, plan, sigma, p)
}

// YieldForClasses estimates yield for an arbitrary candidate class
// assignment on the device's coupling graph, with control direction
// taken from the candidate classes (topo.ControlByClass).
func YieldForClasses(d *topo.Device, classes []topo.Class, plan topo.FreqPlan, sigma float64, p collision.Params) float64 {
	logY := LogYieldForClasses(d, classes, plan, sigma, p)
	if math.IsInf(logY, -1) {
		return 0
	}
	return math.Exp(logY)
}

// LogYieldForClasses is YieldForClasses in log space, the optimiser's
// objective (avoids underflow on large devices).
func LogYieldForClasses(d *topo.Device, classes []topo.Class, plan topo.FreqPlan, sigma float64, p collision.Params) float64 {
	var logY float64
	target := func(q int) float64 { return plan.Target(classes[q]) }
	for _, e := range d.G.Edges() {
		ctrl := topo.ControlByClass(classes, e.U, e.V)
		tgt := e.U
		if ctrl == e.U {
			tgt = e.V
		}
		f := EdgeFreeProb(target(ctrl), target(tgt), sigma, p)
		if f <= 0 {
			return math.Inf(-1)
		}
		logY += math.Log(f)
	}
	for _, cp := range topo.ControlPairsByClass(d, classes) {
		f := PairFreeProb(target(cp.Control), target(cp.T1), target(cp.T2), sigma, p)
		if f <= 0 {
			return math.Inf(-1)
		}
		logY += math.Log(f)
	}
	return logY
}

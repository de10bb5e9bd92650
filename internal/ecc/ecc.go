// Package ecc analyses devices against error-correcting-code thresholds.
// The paper's heavy-hex lattice targets the hybrid surface/Bacon-Shor
// code with a 0.45% error threshold (Section II-B), and its future-work
// section proposes "adaptive code distances across lower fidelity or
// more varied sections of the MCM network" (Section VIII); this package
// implements both analyses on top of realised gate-error assignments.
package ecc

import (
	"errors"
	"fmt"
	"math"

	"chipletqc/internal/noise"
	"chipletqc/internal/stats"
	"chipletqc/internal/topo"
)

// HeavyHexThreshold is the error threshold of the hybrid
// surface/Bacon-Shor code on the heavy-hexagon lattice (0.45%).
const HeavyHexThreshold = 0.0045

// Report summarises how a device's two-qubit errors compare to a code
// threshold.
type Report struct {
	Threshold float64
	Couplings int
	// Below counts couplings with error strictly below the threshold.
	Below int
	// MeanError and WorstError summarise the coupling error population.
	MeanError  float64
	WorstError float64
	// ChipBelowFraction gives, per chip, the fraction of that chip's
	// couplings (links attributed to both endpoint chips) below the
	// threshold — the "varied sections" the paper wants ECC compilation
	// to adapt to.
	ChipBelowFraction []float64
}

// BelowFraction returns the device-wide fraction of couplings below
// threshold.
func (r Report) BelowFraction() float64 {
	if r.Couplings == 0 {
		return 0
	}
	return float64(r.Below) / float64(r.Couplings)
}

// Qualifies reports whether every coupling beats the threshold — the
// condition for uniform code operation at any distance.
func (r Report) Qualifies() bool {
	return r.Couplings > 0 && r.Below == r.Couplings
}

// Analyze evaluates device d's realised error assignment against the
// threshold.
func Analyze(d *topo.Device, a noise.Assignment, threshold float64) Report {
	if threshold <= 0 {
		panic(fmt.Sprintf("ecc: non-positive threshold %g", threshold))
	}
	rep := Report{Threshold: threshold}
	chipCouplings := make([]int, d.Chips)
	chipBelow := make([]int, d.Chips)
	var sum float64
	for _, e := range d.G.Edges() {
		err := a.Err[e]
		rep.Couplings++
		sum += err
		if err > rep.WorstError {
			rep.WorstError = err
		}
		below := err < threshold
		if below {
			rep.Below++
		}
		// Attribute the coupling to both endpoint chips (identical for
		// intra-chip couplings).
		chips := map[int]bool{d.ChipOf[e.U]: true, d.ChipOf[e.V]: true}
		for c := range chips {
			chipCouplings[c]++
			if below {
				chipBelow[c]++
			}
		}
	}
	if rep.Couplings > 0 {
		rep.MeanError = sum / float64(rep.Couplings)
	}
	rep.ChipBelowFraction = make([]float64, d.Chips)
	for c := range rep.ChipBelowFraction {
		if chipCouplings[c] > 0 {
			rep.ChipBelowFraction[c] = float64(chipBelow[c]) / float64(chipCouplings[c])
		}
	}
	return rep
}

// ErrAboveThreshold is returned when physical error meets or exceeds the
// code threshold — no code distance can help.
var ErrAboveThreshold = errors.New("ecc: physical error at or above threshold")

// RecommendDistance returns the smallest odd code distance d such that
// the projected logical error rate (p/p_th)^((d+1)/2) is at or below
// target. The standard surface-code scaling law underlies the estimate.
func RecommendDistance(p, pth, target float64) (int, error) {
	if p <= 0 || pth <= 0 || target <= 0 || target >= 1 {
		return 0, fmt.Errorf("ecc: invalid parameters p=%g pth=%g target=%g", p, pth, target)
	}
	if p >= pth {
		return 0, ErrAboveThreshold
	}
	// (p/pth)^((d+1)/2) <= target  =>  (d+1)/2 >= ln target / ln(p/pth).
	halves := math.Log(target) / math.Log(p/pth)
	d := 2*int(math.Ceil(halves)) - 1
	if d < 3 {
		d = 3
	}
	if d%2 == 0 {
		d++
	}
	return d, nil
}

// ChipDistance is one chip's adaptive code-distance recommendation.
type ChipDistance struct {
	Chip      int
	MeanError float64
	// Distance is the recommended odd code distance; 0 with
	// AboveThreshold set when the chip cannot support the code.
	Distance       int
	AboveThreshold bool
}

// AdaptiveDistances recommends a code distance per chip of an MCM from
// each chip's mean coupling error (inter-chip links count toward both
// endpoint chips), implementing the paper's dynamic-ECC idea.
func AdaptiveDistances(d *topo.Device, a noise.Assignment, pth, target float64) []ChipDistance {
	sums := make([]float64, d.Chips)
	counts := make([]int, d.Chips)
	for _, e := range d.G.Edges() {
		err := a.Err[e]
		chips := map[int]bool{d.ChipOf[e.U]: true, d.ChipOf[e.V]: true}
		for c := range chips {
			sums[c] += err
			counts[c]++
		}
	}
	out := make([]ChipDistance, d.Chips)
	for c := 0; c < d.Chips; c++ {
		cd := ChipDistance{Chip: c}
		if counts[c] > 0 {
			cd.MeanError = sums[c] / float64(counts[c])
		}
		dist, err := RecommendDistance(cd.MeanError, pth, target)
		if err != nil {
			cd.AboveThreshold = true
		} else {
			cd.Distance = dist
		}
		out[c] = cd
	}
	return out
}

// meanCouplingError is a convenience for tests and examples.
func meanCouplingError(a noise.Assignment) float64 {
	var xs []float64
	for _, v := range a.Err {
		xs = append(xs, v)
	}
	return stats.Mean(xs)
}

// Package fab models transmon fabrication imprecision (paper Section
// III-C): each qubit's realised frequency is drawn from a normal
// distribution centred on its ideal class target with standard deviation
// sigma_f, the fabrication precision.
//
// The three precision regimes the paper anchors on:
//
//	SigmaAsFabricated = 0.1323 GHz  raw JJ spread after fabrication [32]
//	SigmaLaserTuned   = 0.014  GHz  post laser-annealing precision [32]
//	SigmaScalingGoal  = 0.006  GHz  the projected threshold for >10^3
//	                                qubit devices under Table I criteria
package fab

import (
	"fmt"
	"math/rand"

	"chipletqc/internal/stats"
	"chipletqc/internal/topo"
)

// Published fabrication precision values, in GHz.
const (
	SigmaAsFabricated = 0.1323
	SigmaLaserTuned   = 0.014
	SigmaScalingGoal  = 0.006
)

// Model is a fabrication process: a frequency plan plus a precision.
type Model struct {
	Plan  topo.FreqPlan
	Sigma float64 // GHz, >= 0
}

// DefaultModel is the paper's forward-looking baseline: laser-tuned
// precision on the optimal 0.06 GHz step plan (Section IV-B).
func DefaultModel() Model {
	return Model{Plan: topo.DefaultFreqPlan, Sigma: SigmaLaserTuned}
}

// Validate reports whether the model parameters are physical.
func (m Model) Validate() error {
	if m.Sigma < 0 {
		return fmt.Errorf("fab: negative sigma %g", m.Sigma)
	}
	if m.Plan.Step <= 0 {
		return fmt.Errorf("fab: non-positive frequency step %g", m.Plan.Step)
	}
	if m.Plan.Base <= 0 {
		return fmt.Errorf("fab: non-positive base frequency %g", m.Plan.Base)
	}
	return nil
}

// Sample draws a realised frequency assignment for device d.
func (m Model) Sample(r *rand.Rand, d *topo.Device) []float64 {
	f := make([]float64, d.N)
	m.SampleInto(r, d, f)
	return f
}

// SampleInto fills f (length d.N) with realised frequencies, avoiding
// allocation in Monte Carlo loops. It panics if len(f) != d.N.
func (m Model) SampleInto(r *rand.Rand, d *topo.Device, f []float64) {
	if len(f) != d.N {
		panic(fmt.Sprintf("fab: buffer length %d != device qubits %d", len(f), d.N))
	}
	for q := 0; q < d.N; q++ {
		f[q] = stats.Normal(r, m.Plan.Target(d.Class[q]), m.Sigma)
	}
}

// SampleChip draws a realised frequency assignment for a bare chip (used
// by chiplet fabrication batches before MCM assembly).
func (m Model) SampleChip(r *rand.Rand, c *topo.Chip) []float64 {
	f := make([]float64, c.N)
	m.SampleChipInto(r, c, f)
	return f
}

// SampleChipInto fills f (length c.N) with realised chip frequencies,
// avoiding allocation in fabrication loops. It panics if len(f) != c.N.
func (m Model) SampleChipInto(r *rand.Rand, c *topo.Chip, f []float64) {
	if len(f) != c.N {
		panic(fmt.Sprintf("fab: buffer length %d != chip qubits %d", len(f), c.N))
	}
	for q := 0; q < c.N; q++ {
		f[q] = stats.Normal(r, m.Plan.Target(c.Class[q]), m.Sigma)
	}
}

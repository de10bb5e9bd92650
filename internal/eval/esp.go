package eval

import (
	"math"

	"chipletqc/internal/compiler"
	"chipletqc/internal/noise"
)

// LogFidelity returns the natural log of the estimated probability of
// success of a compiled circuit: the sum of ln(1 - e) over every
// compiled two-qubit gate, with e the error of the coupling the gate
// executes on, or -Inf when any such e is 1 or more. Working in log
// space keeps deep circuits representable.
//
// It reads each distinct coupling's error once through the Result's
// pair index and sums the per-gate terms in gate order, so the sum is
// bit-identical to a per-gate walk. A Result that Compile did not build
// has no pair index and takes the per-gate walk.
func LogFidelity(r *compiler.Result, a noise.Assignment) float64 {
	pairs, gatePair := r.PairIndex()
	if gatePair == nil {
		return logFidelityGates(r, a)
	}
	// terms[i] is ln(1 - e) of pairs[i]; the stack buffer keeps it off
	// the heap for circuits using up to 256 couplings.
	var buf [256]float64
	terms := buf[:0]
	for _, p := range pairs {
		e := a.Err[p]
		if e >= 1 {
			return math.Inf(-1)
		}
		terms = append(terms, math.Log1p(-e))
	}
	var sum float64
	for _, p := range gatePair {
		sum += terms[p]
	}
	return sum
}

// logFidelityGates is LogFidelity's per-gate walk: one error lookup and
// one log per compiled two-qubit gate.
func logFidelityGates(r *compiler.Result, a noise.Assignment) float64 {
	var sum float64
	for _, g := range r.Compiled.Gates {
		if !g.IsTwoQubit() {
			continue
		}
		e := a.Get(g.Qubits[0], g.Qubits[1])
		if e >= 1 {
			return math.Inf(-1)
		}
		sum += math.Log1p(-e)
	}
	return sum
}

// Fidelity returns the fidelity product itself; prefer LogFidelity for
// comparisons between deep circuits.
func Fidelity(r *compiler.Result, a noise.Assignment) float64 {
	return math.Exp(LogFidelity(r, a))
}

package qbench

import (
	"chipletqc/internal/circuit"
)

// Spec names one member of the paper's benchmark suite and how to
// generate it at a given width. Short is the Table II abbreviation.
type Spec struct {
	Name     string
	Short    string
	Generate func(n int, seed int64) *circuit.Circuit
}

// Suite returns the seven paper benchmarks with their default
// parameters, in Table II order. Every generated circuit is lowered to
// the native {1q, CX} basis so gate counts match the hardware view.
func Suite() []Spec {
	native := func(f func(n int, seed int64) *circuit.Circuit) func(int, int64) *circuit.Circuit {
		return func(n int, seed int64) *circuit.Circuit {
			return circuit.Decompose(f(n, seed))
		}
	}
	return []Spec{
		{
			Name:  "Bernstein-Vazirani",
			Short: "bv",
			Generate: native(func(n int, seed int64) *circuit.Circuit {
				return BV(n, AlternatingHidden(n))
			}),
		},
		{
			Name:  "GHZ",
			Short: "g",
			Generate: native(func(n int, seed int64) *circuit.Circuit {
				return GHZ(n)
			}),
		},
		{
			Name:  "QAOA",
			Short: "q",
			Generate: native(func(n int, seed int64) *circuit.Circuit {
				return QAOA(n, 1, seed)
			}),
		},
		{
			Name:  "Ripple-Carry Adder",
			Short: "a",
			Generate: native(func(n int, seed int64) *circuit.Circuit {
				// Fixed non-trivial operands exercise every carry path.
				m := AdderOperandBits(n)
				mask := uint64(1)<<uint(min(m, 63)) - 1
				return Adder(n, 0x5555555555555555&mask, mask)
			}),
		},
		{
			Name:  "Quantum Primacy",
			Short: "p",
			Generate: native(func(n int, seed int64) *circuit.Circuit {
				return Primacy(n, 10, seed)
			}),
		},
		{
			Name:  "Bit Code",
			Short: "bc",
			Generate: native(func(n int, seed int64) *circuit.Circuit {
				return BitCode(n, 0x3333333333333333)
			}),
		},
		{
			Name:  "Hamiltonian (TFIM)",
			Short: "h",
			Generate: native(func(n int, seed int64) *circuit.Circuit {
				return TFIM(n, 1, 0.1, 1.0, 1.0)
			}),
		},
	}
}

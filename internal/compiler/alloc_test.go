package compiler

import (
	"math/rand"
	"slices"
	"testing"

	"chipletqc/internal/circuit"
	"chipletqc/internal/mcm"
	"chipletqc/internal/qbench"
	"chipletqc/internal/topo"
)

// TestCompiledGatesExactSize checks that Compile allocates the compiled
// gate list once at its final length, and that the pair index covers
// every compiled two-qubit gate with the coupling it acts on.
func TestCompiledGatesExactSize(t *testing.T) {
	dev := mcm.MustBuild(mcm.Grid{Rows: 2, Cols: 2, Spec: topo.ChipSpec{DenseRows: 2, Width: 8}})
	for _, bs := range qbench.Suite() {
		r, err := Compile(bs.Generate(qbench.UtilizedQubits(dev.N), 3), dev)
		if err != nil {
			t.Fatal(err)
		}
		gates := r.Compiled.Gates
		if len(gates) != cap(gates) {
			t.Errorf("%s: compiled gates len %d, cap %d", bs.Short, len(gates), cap(gates))
		}
		pairs, gatePair := r.PairIndex()
		k := 0
		for _, g := range gates {
			if !g.IsTwoQubit() {
				continue
			}
			e := pairs[gatePair[k]]
			if lo, hi := min(g.Qubits[0], g.Qubits[1]), max(g.Qubits[0], g.Qubits[1]); e.U != lo || e.V != hi {
				t.Fatalf("%s: gate %d (%v) indexed to pair %v", bs.Short, k, g, e)
			}
			k++
		}
		if k != len(gatePair) {
			t.Errorf("%s: pair index covers %d gates, circuit has %d", bs.Short, len(gatePair), k)
		}
	}
}

// TestCompiledOperandsDoNotAlias checks that the compiled gates'
// operands, which share arena chunks, are capacity-capped: growing one
// gate's Qubits must not overwrite the next gate's.
func TestCompiledOperandsDoNotAlias(t *testing.T) {
	dev := topo.MonolithicDevice(topo.ChipSpec{DenseRows: 2, Width: 8})
	r, err := Compile(qbench.QAOA(16, 1, 4), dev)
	if err != nil {
		t.Fatal(err)
	}
	gates := r.Compiled.Gates
	for i := 0; i+1 < len(gates); i++ {
		next := slices.Clone(gates[i+1].Qubits)
		grown := append(gates[i].Qubits, -1, -1, -1)
		if !slices.Equal(gates[i+1].Qubits, next) {
			t.Fatalf("appending to gate %d's operands changed gate %d: %v -> %v", i, i+1, next, gates[i+1].Qubits)
		}
		if len(grown) != len(gates[i].Qubits)+3 {
			t.Fatalf("grown operands have length %d", len(grown))
		}
	}
}

// TestCompileAllocsSublinear checks that compile's allocations do not
// scale with the gate count: a circuit with twice the gates may not
// take twice the allocations, and its extra gates must cost far less
// than one allocation each.
func TestCompileAllocsSublinear(t *testing.T) {
	dev := topo.MonolithicDevice(topo.ChipSpec{DenseRows: 2, Width: 8})
	once := randomCircuit(rand.New(rand.NewSource(7)), 16, 400)
	twice := circuit.New(once.NumQubits)
	for range 2 {
		for _, g := range once.Gates {
			twice.Append(g.Name, g.Param, g.Qubits...)
		}
	}
	allocs := func(c *circuit.Circuit) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := Compile(c, dev); err != nil {
				t.Fatal(err)
			}
		})
	}
	a1, a2 := allocs(once), allocs(twice)
	if a2 >= 2*a1 || a2-a1 > float64(len(once.Gates))/10 {
		t.Errorf("Compile allocations: %v for %d gates, %v for %d: scale with the gate count",
			a1, len(once.Gates), a2, len(twice.Gates))
	}
}

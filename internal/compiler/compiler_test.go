package compiler

import (
	"errors"
	"math"
	"testing"

	"chipletqc/internal/circuit"
	"chipletqc/internal/graph"
	"chipletqc/internal/mcm"
	"chipletqc/internal/qbench"
	"chipletqc/internal/qsim"
	"chipletqc/internal/topo"
)

func TestCompileRejectsOversizedCircuit(t *testing.T) {
	dev := topo.MonolithicDevice(topo.ChipSpec{DenseRows: 1, Width: 8})
	if _, err := Compile(circuit.New(11), dev); err == nil {
		t.Error("expected error for 11-qubit circuit on 10-qubit device")
	}
}

// disconnectedDevice is a 6-qubit device with couplings 0-1, 1-2 and 3-4;
// qubit 5 is isolated.
func disconnectedDevice() *topo.Device {
	g := graph.New(6)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4)
	return &topo.Device{Name: "split-6", N: 6, G: g}
}

func TestCompileDisconnectedDevice(t *testing.T) {
	dev := disconnectedDevice()

	// Four qubits do not fit the center's component {0, 1, 2}, whether
	// the circuit routes (CX) or not (1q gates only).
	oneQ := circuit.New(4)
	for q := 0; q < 4; q++ {
		oneQ.H(q)
	}
	cx := circuit.New(4)
	cx.CX(1, 2)
	for _, c := range []*circuit.Circuit{oneQ, cx} {
		r, err := Compile(c, dev)
		var de *DisconnectedError
		if !errors.As(err, &de) {
			t.Fatalf("Compile = %+v, %v; want *DisconnectedError", r, err)
		}
		if de.Device != "split-6" || de.Need != 4 || de.Reachable != 3 {
			t.Errorf("DisconnectedError = %+v, want {split-6 4 3}", *de)
		}
	}

	// Three qubits fit: the layout is the component, and CX(1,2) routes
	// inside it.
	c := circuit.New(3)
	c.CX(1, 2)
	r, err := Compile(c, dev)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.InitialLayout; len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Errorf("InitialLayout = %v, want [0 1 2]", got)
	}
	checkRouted(t, r, dev)
}

// checkRouted asserts every 2q gate of a compiled circuit lands on a
// coupled pair.
func checkRouted(t *testing.T, r *Result, dev *topo.Device) {
	t.Helper()
	for _, g := range r.Compiled.Gates {
		if g.IsTwoQubit() && !dev.G.HasEdge(g.Qubits[0], g.Qubits[1]) {
			t.Fatalf("gate %v not on a device coupling", g)
		}
	}
}

func TestCompileRoutesAllGates(t *testing.T) {
	dev := topo.MonolithicDevice(topo.ChipSpec{DenseRows: 2, Width: 8})
	for _, spec := range qbench.Suite() {
		c := spec.Generate(qbench.UtilizedQubits(dev.N), 3)
		r, err := Compile(c, dev)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		checkRouted(t, r, dev)
		if r.Counts.TwoQ < c.TwoQubitGates() {
			t.Errorf("%s: compiled 2q %d below logical %d",
				spec.Name, r.Counts.TwoQ, c.TwoQubitGates())
		}
	}
}

func TestCompileOnMCMDevice(t *testing.T) {
	dev := mcm.MustBuild(mcm.Grid{Rows: 2, Cols: 2, Spec: topo.ChipSpec{DenseRows: 2, Width: 8}})
	c := qbench.GHZ(qbench.UtilizedQubits(dev.N))
	r, err := Compile(circuit.Decompose(c), dev)
	if err != nil {
		t.Fatal(err)
	}
	checkRouted(t, r, dev)
	// The GHZ chain must cross chips: some compiled gates use links.
	usesLink := false
	for _, g := range r.Compiled.Gates {
		if g.IsTwoQubit() && dev.IsLink(g.Qubits[0], g.Qubits[1]) {
			usesLink = true
			break
		}
	}
	if !usesLink {
		t.Error("64-qubit GHZ on a 4x20q MCM should traverse inter-chip links")
	}
}

func TestLayoutBijection(t *testing.T) {
	dev := topo.MonolithicDevice(topo.ChipSpec{DenseRows: 2, Width: 8})
	c := qbench.QAOA(16, 1, 5)
	r, err := Compile(circuit.Decompose(c), dev)
	if err != nil {
		t.Fatal(err)
	}
	for _, layout := range [][]int{r.InitialLayout, r.FinalLayout} {
		if len(layout) != 16 {
			t.Fatalf("layout size %d", len(layout))
		}
		seen := map[int]bool{}
		for _, p := range layout {
			if p < 0 || p >= dev.N {
				t.Fatalf("physical qubit %d out of range", p)
			}
			if seen[p] {
				t.Fatalf("layout maps two logicals to physical %d", p)
			}
			seen[p] = true
		}
	}
}

func TestCompiledSemanticsPreserved(t *testing.T) {
	// Compile GHZ(5) onto the 10-qubit chip and verify by simulation
	// that the final layout qubits hold a GHZ state.
	dev := topo.MonolithicDevice(topo.ChipSpec{DenseRows: 1, Width: 8})
	c := circuit.Decompose(qbench.GHZ(5))
	r, err := Compile(c, dev)
	if err != nil {
		t.Fatal(err)
	}
	s := qsim.Run(r.Compiled)
	qs := r.FinalLayout
	all0 := make([]int, 5)
	all1 := []int{1, 1, 1, 1, 1}
	p0 := s.MarginalProbability(qs, all0)
	p1 := s.MarginalProbability(qs, all1)
	if math.Abs(p0-0.5) > 1e-9 || math.Abs(p1-0.5) > 1e-9 {
		t.Errorf("compiled GHZ marginals: P(00000)=%v P(11111)=%v, want 0.5", p0, p1)
	}
}

func TestCompiledBVSemanticsPreserved(t *testing.T) {
	dev := topo.MonolithicDevice(topo.ChipSpec{DenseRows: 1, Width: 8})
	hidden := uint64(0b1011)
	c := circuit.Decompose(qbench.BV(5, hidden))
	r, err := Compile(c, dev)
	if err != nil {
		t.Fatal(err)
	}
	s := qsim.Run(r.Compiled)
	qs := make([]int, 4)
	bits := make([]int, 4)
	for i := 0; i < 4; i++ {
		qs[i] = r.FinalLayout[i]
		bits[i] = int(hidden >> uint(i) & 1)
	}
	if p := s.MarginalProbability(qs, bits); math.Abs(p-1) > 1e-9 {
		t.Errorf("compiled BV recovers hidden with P=%v, want 1", p)
	}
}

func TestAdjacentGatesNeedNoSwaps(t *testing.T) {
	dev := topo.MonolithicDevice(topo.ChipSpec{DenseRows: 1, Width: 8})
	// A circuit acting only on one logical qubit pair that the layout
	// places adjacently: two qubits, one CX.
	c := circuit.New(2)
	c.CX(0, 1)
	r, err := Compile(c, dev)
	if err != nil {
		t.Fatal(err)
	}
	if r.SwapsInserted != 0 {
		t.Errorf("swaps = %d, want 0 (layout should be contiguous)", r.SwapsInserted)
	}
	if r.Counts.TwoQ != 1 {
		t.Errorf("compiled 2q = %d, want 1", r.Counts.TwoQ)
	}
}

func TestSwapAccounting(t *testing.T) {
	dev := topo.MonolithicDevice(topo.ChipSpec{DenseRows: 2, Width: 8})
	c := qbench.QAOA(16, 1, 11)
	lowered := circuit.Decompose(c)
	r, err := Compile(lowered, dev)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Counts.TwoQ; got != lowered.TwoQubitGates()+3*r.SwapsInserted {
		t.Errorf("2q accounting: compiled %d != logical %d + 3*swaps %d",
			got, lowered.TwoQubitGates(), r.SwapsInserted)
	}
}

func TestDeterministicCompilation(t *testing.T) {
	dev := topo.MonolithicDevice(topo.ChipSpec{DenseRows: 2, Width: 8})
	c := circuit.Decompose(qbench.Primacy(16, 6, 2))
	r1, err := Compile(c, dev)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Compile(c, dev)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Compiled.Gates) != len(r2.Compiled.Gates) {
		t.Error("compilation not deterministic")
	}
}

func TestCountsMatchCompiledCircuit(t *testing.T) {
	dev := topo.MonolithicDevice(topo.ChipSpec{DenseRows: 2, Width: 8})
	c := circuit.Decompose(qbench.TFIM(12, 2, 0.1, 1, 1))
	r, err := Compile(c, dev)
	if err != nil {
		t.Fatal(err)
	}
	if r.Counts != r.Compiled.Counts() {
		t.Errorf("cached counts %v != recomputed %v", r.Counts, r.Compiled.Counts())
	}
}

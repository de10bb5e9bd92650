package compiler

import (
	"math"
	"math/rand"
	"testing"

	"chipletqc/internal/circuit"
	"chipletqc/internal/fab"
	"chipletqc/internal/graph"
	"chipletqc/internal/mcm"
	"chipletqc/internal/noise"
	"chipletqc/internal/qbench"
	"chipletqc/internal/qsim"
	"chipletqc/internal/topo"
)

func TestLinkAwareCost(t *testing.T) {
	dev := mcm.MustBuild(mcm.Grid{Rows: 1, Cols: 2, Spec: topo.ChipSpec{DenseRows: 2, Width: 8}})
	cost := LinkAwareCost(dev, 4)
	var linkEdge, chipEdge graph.Edge
	for _, e := range dev.G.Edges() {
		if dev.Link[e] {
			linkEdge = e
		} else {
			chipEdge = e
		}
	}
	if cost(linkEdge.U, linkEdge.V) != 4 {
		t.Errorf("link cost = %v, want 4", cost(linkEdge.U, linkEdge.V))
	}
	if cost(chipEdge.U, chipEdge.V) != 1 {
		t.Errorf("chip cost = %v, want 1", cost(chipEdge.U, chipEdge.V))
	}
	// Penalties below 1 clamp to 1.
	if c := LinkAwareCost(dev, 0.2); c(linkEdge.U, linkEdge.V) != 1 {
		t.Error("penalty should clamp to >= 1")
	}
}

func TestErrorAwareCost(t *testing.T) {
	dev := topo.MonolithicDevice(topo.ChipSpec{DenseRows: 1, Width: 8})
	e := dev.G.Edges()[0]
	a := noise.Assignment{Err: map[graph.Edge]float64{e: 0.02}}
	cost := ErrorAwareCost(a)
	want := -math.Log1p(-0.02)
	if got := cost(e.U, e.V); math.Abs(got-want) > 1e-12 {
		t.Errorf("cost = %v, want %v", got, want)
	}
	// Unknown couplings cost like 50% error.
	other := dev.G.Edges()[1]
	if got := cost(other.U, other.V); math.Abs(got-math.Ln2) > 1e-12 {
		t.Errorf("unknown coupling cost = %v, want ln2", got)
	}
}

func TestCompileWithOptionsDefaultMatchesCompile(t *testing.T) {
	dev := topo.MonolithicDevice(topo.ChipSpec{DenseRows: 2, Width: 8})
	c := circuit.Decompose(qbench.QAOA(16, 1, 4))
	a, err := Compile(c, dev)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CompileWithOptions(c, dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Counts != b.Counts {
		t.Errorf("default options diverge: %v vs %v", a.Counts, b.Counts)
	}
}

func TestLinkAwareRoutingReducesLinkTraffic(t *testing.T) {
	// On a wide MCM with realistic circuits, link-aware routing should
	// route at most as many 2q gates over links as naive routing does.
	dev := mcm.MustBuild(mcm.Grid{Rows: 2, Cols: 2, Spec: topo.ChipSpec{DenseRows: 4, Width: 8}})
	countLinkGates := func(r *Result) int {
		n := 0
		for _, g := range r.Compiled.Gates {
			if g.IsTwoQubit() && dev.IsLink(g.Qubits[0], g.Qubits[1]) {
				n++
			}
		}
		return n
	}
	totalNaive, totalAware := 0, 0
	for _, bs := range qbench.Suite() {
		c := bs.Generate(qbench.UtilizedQubits(dev.N), 9)
		naive, err := Compile(c, dev)
		if err != nil {
			t.Fatal(err)
		}
		aware, err := CompileWithOptions(c, dev, Options{EdgeCost: LinkAwareCost(dev, 4)})
		if err != nil {
			t.Fatal(err)
		}
		// Routed circuits stay valid.
		for _, g := range aware.Compiled.Gates {
			if g.IsTwoQubit() && !dev.G.HasEdge(g.Qubits[0], g.Qubits[1]) {
				t.Fatalf("%s: link-aware gate %v not on coupling", bs.Short, g)
			}
		}
		totalNaive += countLinkGates(naive)
		totalAware += countLinkGates(aware)
	}
	if totalAware > totalNaive {
		t.Errorf("link-aware routing used more link gates (%d) than naive (%d)",
			totalAware, totalNaive)
	}
	if totalAware == 0 {
		t.Error("benchmarks spanning chips must still cross some links")
	}
}

func TestErrorAwareRoutingImprovesFidelity(t *testing.T) {
	// Route with knowledge of a realised error map: the error-aware
	// compiled circuit should achieve at least the naive fidelity.
	dev := mcm.MustBuild(mcm.Grid{Rows: 2, Cols: 2, Spec: topo.ChipSpec{DenseRows: 2, Width: 8}})
	r := rand.New(rand.NewSource(31))
	f := fab.DefaultModel().Sample(r, dev)
	a := noise.Assign(r, dev, f, noise.NewDetuningModel(noise.DefaultCalibration(32), noise.BinWidthFig7), noise.DefaultLinkModel())

	logF := func(res *Result) float64 {
		var sum float64
		for _, g := range res.Compiled.Gates {
			if g.IsTwoQubit() {
				sum += math.Log1p(-a.Get(g.Qubits[0], g.Qubits[1]))
			}
		}
		return sum
	}

	var naiveSum, awareSum float64
	for _, bs := range qbench.Suite() {
		c := bs.Generate(qbench.UtilizedQubits(dev.N), 13)
		naive, err := Compile(c, dev)
		if err != nil {
			t.Fatal(err)
		}
		aware, err := CompileWithOptions(c, dev, Options{EdgeCost: ErrorAwareCost(a)})
		if err != nil {
			t.Fatal(err)
		}
		naiveSum += logF(naive)
		awareSum += logF(aware)
	}
	if awareSum < naiveSum {
		t.Errorf("error-aware routing lost fidelity: %v vs naive %v", awareSum, naiveSum)
	}
}

func TestCompileWithOptionsSemanticsPreserved(t *testing.T) {
	// Link-aware routing must not change circuit semantics.
	dev := mcm.MustBuild(mcm.Grid{Rows: 1, Cols: 2, Spec: topo.ChipSpec{DenseRows: 1, Width: 8}})
	hidden := uint64(0b101)
	c := circuit.Decompose(qbench.BV(4, hidden))
	res, err := CompileWithOptions(c, dev, Options{EdgeCost: LinkAwareCost(dev, 4)})
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the 20-qubit compiled circuit and check the data qubits.
	s := simulateSmall(t, res)
	qs := make([]int, 3)
	bits := make([]int, 3)
	for i := 0; i < 3; i++ {
		qs[i] = res.FinalLayout[i]
		bits[i] = int(hidden >> uint(i) & 1)
	}
	if p := s.MarginalProbability(qs, bits); math.Abs(p-1) > 1e-9 {
		t.Errorf("link-aware BV recovers hidden with P=%v, want 1", p)
	}
}

// simulateSmall runs a compiled circuit on the statevector simulator.
func simulateSmall(t *testing.T, r *Result) *qsim.State {
	t.Helper()
	if r.Compiled.NumQubits > 20 {
		t.Fatalf("device too large to simulate: %d qubits", r.Compiled.NumQubits)
	}
	return qsim.Run(r.Compiled)
}

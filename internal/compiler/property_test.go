package compiler

import (
	"math/rand"
	"testing"
	"testing/quick"

	"chipletqc/internal/circuit"
	"chipletqc/internal/mcm"
	"chipletqc/internal/topo"
)

// randomCircuit builds a random native circuit over n qubits.
func randomCircuit(r *rand.Rand, n, gates int) *circuit.Circuit {
	c := circuit.New(n)
	oneQ := []string{"h", "x", "t", "rz", "rx"}
	for i := 0; i < gates; i++ {
		if r.Float64() < 0.4 && n >= 2 {
			a, b := r.Intn(n), r.Intn(n)
			if a != b {
				c.CX(a, b)
				continue
			}
		}
		c.Append(oneQ[r.Intn(len(oneQ))], r.Float64()*6, r.Intn(n))
	}
	return c
}

// TestCompileRandomCircuitsProperty: for random circuits on random
// devices, every compiled 2q gate is on a coupling, layouts are
// bijections, gate accounting holds, and the output is identical to the
// per-SWAP BFS router's.
func TestCompileRandomCircuitsProperty(t *testing.T) {
	devices := []*topo.Device{
		topo.MonolithicDevice(topo.ChipSpec{DenseRows: 2, Width: 8}),
		topo.MonolithicDevice(topo.ChipSpec{DenseRows: 4, Width: 12}),
		mcm.MustBuild(mcm.Grid{Rows: 2, Cols: 2, Spec: topo.ChipSpec{DenseRows: 2, Width: 8}}),
	}
	f := func(seed int64, devIdx, width, gates uint8) bool {
		dev := devices[int(devIdx)%len(devices)]
		n := 2 + int(width)%(dev.N-2)
		r := rand.New(rand.NewSource(seed))
		c := randomCircuit(r, n, 5+int(gates)%60)
		res, err := Compile(c, dev)
		if err != nil {
			return false
		}
		for _, g := range res.Compiled.Gates {
			if g.IsTwoQubit() && !dev.G.HasEdge(g.Qubits[0], g.Qubits[1]) {
				return false
			}
		}
		// Layout bijectivity.
		seen := map[int]bool{}
		for _, p := range res.FinalLayout {
			if p < 0 || p >= dev.N || seen[p] {
				return false
			}
			seen[p] = true
		}
		// 2q accounting: logical + 3 per swap.
		if res.Counts.TwoQ != c.TwoQubitGates()+3*res.SwapsInserted {
			return false
		}
		// 1q gates are preserved exactly.
		if res.Counts.OneQ != c.OneQubitGates() {
			return false
		}
		return sameAsOracle(res, c, dev) == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestCompileAllEnumeratedGridsSmoke compiles one benchmark on every
// enumerated MCM system up to 200 qubits — the shapes Fig. 10 visits —
// and checks each against the per-SWAP BFS router.
func TestCompileAllEnumeratedGridsSmoke(t *testing.T) {
	for _, g := range mcm.EnumerateGrids(200) {
		dev := mcm.MustBuild(g)
		c := circuit.New(dev.N * 4 / 5)
		for q := 0; q+1 < c.NumQubits; q += 2 {
			c.CX(q, q+1)
		}
		res, err := Compile(c, dev)
		if err != nil {
			t.Fatalf("%v: %v", g, err)
		}
		if res.Counts.TwoQ < c.TwoQubitGates() {
			t.Fatalf("%v: lost gates", g)
		}
		if field := sameAsOracle(res, c, dev); field != "" {
			t.Fatalf("%v: %s differs from the per-SWAP BFS router", g, field)
		}
	}
}

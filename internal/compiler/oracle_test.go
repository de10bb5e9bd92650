package compiler

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"chipletqc/internal/circuit"
	"chipletqc/internal/qbench"
	"chipletqc/internal/topo"
)

// bfsTree runs a BFS from src that visits each vertex's neighbours in
// ascending order. It returns the discovery order and every vertex's
// predecessor (-1 for src and for unreached vertices).
func bfsTree(dev *topo.Device, src int) (order, prev []int) {
	prev = make([]int, dev.N)
	for i := range prev {
		prev[i] = -1
	}
	seen := make([]bool, dev.N)
	seen[src] = true
	order = []int{src}
	for i := 0; i < len(order); i++ {
		v := order[i]
		nbrs := slices.Sorted(slices.Values(dev.G.Neighbors(v)))
		for _, w := range nbrs {
			if !seen[w] {
				seen[w], prev[w] = true, v
				order = append(order, w)
			}
		}
	}
	return order, prev
}

// oracleCompile is the router the shared routing table replaced: the
// center from one BFS per vertex and a fresh BFS shortest path for every
// SWAP. It handles connected devices and uniform routing only, and is
// kept to prove compile's output unchanged.
func oracleCompile(c *circuit.Circuit, dev *topo.Device) *Result {
	native := circuit.Decompose(c)
	center, bestEcc := 0, math.MaxInt
	for v := 0; v < dev.N; v++ {
		if ecc := slices.Max(dev.G.BFSFrom(v)); ecc < bestEcc {
			center, bestEcc = v, ecc
		}
	}
	order, _ := bfsTree(dev, center)
	layout := order[:c.NumQubits]

	pos := slices.Clone(layout)
	owner := make([]int, dev.N)
	for p := range owner {
		owner[p] = -1
	}
	for l, p := range pos {
		owner[p] = l
	}
	out := circuit.New(dev.N)
	swaps := 0
	for _, g := range native.Gates {
		if g.IsOneQubit() {
			out.Append(g.Name, g.Param, pos[g.Qubits[0]])
			continue
		}
		a, b := g.Qubits[0], g.Qubits[1]
		for !dev.G.HasEdge(pos[a], pos[b]) {
			u, v := pos[a], pos[b]
			_, prev := bfsTree(dev, u)
			for prev[v] != u {
				v = prev[v]
			}
			out.CX(u, v)
			out.CX(v, u)
			out.CX(u, v)
			lu, lv := owner[u], owner[v]
			owner[u], owner[v] = lv, lu
			pos[lu] = v
			if lv >= 0 {
				pos[lv] = u
			}
			swaps++
		}
		out.Append(g.Name, g.Param, pos[a], pos[b])
	}
	return &Result{
		Compiled:      out,
		InitialLayout: layout,
		FinalLayout:   pos,
		SwapsInserted: swaps,
		Counts:        out.Counts(),
	}
}

// sameAsOracle reports the first field in which got differs from the
// oracle's compilation of c onto dev, or "" when they are identical.
func sameAsOracle(got *Result, c *circuit.Circuit, dev *topo.Device) string {
	want := oracleCompile(c, dev)
	switch {
	case !slices.Equal(got.InitialLayout, want.InitialLayout):
		return "InitialLayout"
	case !slices.Equal(got.FinalLayout, want.FinalLayout):
		return "FinalLayout"
	case got.SwapsInserted != want.SwapsInserted:
		return "SwapsInserted"
	case !reflect.DeepEqual(got.Compiled, want.Compiled):
		return "Compiled"
	}
	return ""
}

// TestCompileMatchesOracleOnLatticeFamilies compiles the benchmark suite
// onto one generated device per lattice family and checks it gate for
// gate against the per-SWAP BFS router.
func TestCompileMatchesOracleOnLatticeFamilies(t *testing.T) {
	for _, fam := range topo.LatticeFamilies() {
		spec := topo.LatticeSpec{Family: fam, Rows: 2, Cols: 2, ChipQubits: 20}
		if fam == topo.FamilyStack3D {
			spec.Layers = 2
		}
		dev := spec.MustBuild()
		for _, bs := range qbench.Suite() {
			c := bs.Generate(qbench.UtilizedQubits(dev.N), 5)
			r, err := Compile(c, dev)
			if err != nil {
				t.Fatalf("%s %s: %v", fam, bs.Short, err)
			}
			if field := sameAsOracle(r, c, dev); field != "" {
				t.Errorf("%s %s: %s differs from the per-SWAP BFS router", fam, bs.Short, field)
			}
		}
	}
}

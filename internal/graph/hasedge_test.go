package graph_test

import (
	"testing"

	"chipletqc/internal/topo"
)

// TestHasEdgeAgreesWithEdges checks the adjacency-scan HasEdge against
// edge-list membership on one device per lattice family, for every
// ordered vertex pair including self-pairs and out-of-range vertices.
func TestHasEdgeAgreesWithEdges(t *testing.T) {
	for _, fam := range topo.LatticeFamilies() {
		spec := topo.LatticeSpec{Family: fam, Rows: 2, Cols: 2, ChipQubits: 20}
		if fam == topo.FamilyStack3D {
			spec.Layers = 2
		}
		g := spec.MustBuild().G
		in := map[[2]int]bool{}
		for _, e := range g.Edges() {
			in[[2]int{e.U, e.V}], in[[2]int{e.V, e.U}] = true, true
		}
		for u := -1; u <= g.N(); u++ {
			for v := -1; v <= g.N(); v++ {
				if got, want := g.HasEdge(u, v), in[[2]int{u, v}]; got != want {
					t.Errorf("%s: HasEdge(%d, %d) = %v, edge list says %v", fam, u, v, got, want)
				}
			}
		}
	}
}

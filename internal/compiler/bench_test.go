package compiler

import (
	"testing"

	"chipletqc/internal/circuit"
	"chipletqc/internal/mcm"
	"chipletqc/internal/qbench"
	"chipletqc/internal/topo"
)

// BenchmarkCompileMCM compiles the benchmark suite onto a 3x3 MCM of
// 20-qubit chiplets and onto its monolithic counterpart: one Fig. 10
// system. The devices are rebuilt every iteration so each pays for its
// routing table once, as a fresh system does. Run with -benchmem.
func BenchmarkCompileMCM(b *testing.B) {
	grid := mcm.Grid{Rows: 3, Cols: 3, Spec: topo.ChipSpec{DenseRows: 2, Width: 8}}
	width := qbench.UtilizedQubits(grid.Qubits())
	var circs []*circuit.Circuit
	for _, bs := range qbench.Suite() {
		circs = append(circs, bs.Generate(width, 1))
	}
	b.ReportAllocs()
	swaps := 0
	for b.Loop() {
		swaps = 0
		for _, dev := range []*topo.Device{
			mcm.MustBuild(grid),
			topo.MonolithicDevice(grid.MonolithicCounterpart()),
		} {
			for _, c := range circs {
				r, err := Compile(c, dev)
				if err != nil {
					b.Fatal(err)
				}
				swaps += r.SwapsInserted
			}
		}
	}
	b.ReportMetric(float64(swaps), "swaps/op")
}

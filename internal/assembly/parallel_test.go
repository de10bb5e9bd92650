package assembly

import (
	"math"
	"runtime"
	"testing"

	"chipletqc/internal/mcm"
	"chipletqc/internal/topo"
)

// TestFabricateWorkerCountInvariance is the determinism regression test
// for parallel fabrication: the same seed must produce a bit-identical
// batch at workers=1 and workers=8.
func TestFabricateWorkerCountInvariance(t *testing.T) {
	spec := topo.ChipSpec{DenseRows: 2, Width: 8}
	fab := func(workers int) *Batch {
		cfg := testBatchConfig(2024)
		cfg.Workers = workers
		return fabricate(t, spec, 400, cfg)
	}
	serial := fab(1)
	parallel := fab(8)

	if len(serial.Free) != len(parallel.Free) {
		t.Fatalf("bin sizes differ: %d vs %d", len(serial.Free), len(parallel.Free))
	}
	for i := range serial.Free {
		a, b := serial.Free[i], parallel.Free[i]
		if a.ID != b.ID || a.AvgErr != b.AvgErr {
			t.Fatalf("chiplet %d differs: ID %d/%d, AvgErr %v/%v",
				i, a.ID, b.ID, a.AvgErr, b.AvgErr)
		}
		for j := range a.Freq {
			if a.Freq[j] != b.Freq[j] {
				t.Fatalf("chiplet %d frequency %d differs", i, j)
			}
		}
		for j := range a.EdgeErr {
			if a.EdgeErr[j] != b.EdgeErr[j] {
				t.Fatalf("chiplet %d edge error %d differs", i, j)
			}
		}
	}
}

// TestFabricateWorkerCountInvarianceThroughAssembly extends the
// invariance through the full assembly pipeline: identical batches must
// assemble into identical modules.
func TestFabricateWorkerCountInvarianceThroughAssembly(t *testing.T) {
	spec := topo.ChipSpec{DenseRows: 2, Width: 8}
	grid := mcm.Grid{Rows: 2, Cols: 2, Spec: spec}
	build := func(workers int) (int, float64) {
		cfg := testBatchConfig(7)
		cfg.Workers = workers
		b := fabricate(t, spec, 300, cfg)
		mods, st := assemble(t, b, grid, testAssembleConfig(8))
		var sum float64
		for _, m := range mods {
			sum += m.EAvg()
		}
		return st.MCMs, sum
	}
	mcms1, sum1 := build(1)
	mcms8, sum8 := build(8)
	if mcms1 != mcms8 || math.Abs(sum1-sum8) > 0 {
		t.Errorf("assembly diverged across worker counts: %d/%v vs %d/%v",
			mcms1, sum1, mcms8, sum8)
	}
}

// BenchmarkFabricate measures batch fabrication; run with -cpu 1,N to
// compare the serial and parallel paths (Workers tracks GOMAXPROCS).
func BenchmarkFabricate(b *testing.B) {
	spec := topo.ChipSpec{DenseRows: 2, Width: 8}
	cfg := testBatchConfig(1)
	cfg.Workers = runtime.GOMAXPROCS(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fabricate(b, spec, 1000, cfg)
	}
}

// BenchmarkAssemble stitches one wafer-scaled batch of 20-qubit
// chiplets (the quick figure scale, 500 dies per chip slot) into every
// 2x2 module it allows. Fabrication runs once, outside the timer. Run
// with -benchmem.
func BenchmarkAssemble(b *testing.B) {
	spec := topo.ChipSpec{DenseRows: 2, Width: 8}
	grid := mcm.Grid{Rows: 2, Cols: 2, Spec: spec}
	batch := fabricate(b, spec, 500*grid.Chips(), testBatchConfig(1))
	cfg := testAssembleConfig(2)
	b.ReportAllocs()
	for b.Loop() {
		assemble(b, batch, grid, cfg)
	}
}

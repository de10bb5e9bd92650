package eval

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"chipletqc/internal/mcm"
	"chipletqc/internal/sampling"
)

// tinyConfig is a reduced-scale experiment configuration for the
// worker-count invariance tests: big enough to exercise every pipeline
// stage, small enough to run in well under a second.
func tinyConfig(seed int64, workers int) Config {
	cfg := QuickConfig(seed)
	cfg.MonoBatch = 200
	cfg.ChipletBatch = 200
	cfg.MaxQubits = 100
	cfg.Workers = workers
	return cfg
}

// TestFig8WorkerCountInvariance is the determinism regression test for
// the parallel Fig. 8 pipeline: workers=1 and workers=8 must produce
// identical results for the same seed.
func TestFig8WorkerCountInvariance(t *testing.T) {
	serial := runFig8(t, tinyConfig(11, 1))
	parallel := runFig8(t, tinyConfig(11, 8))
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("Fig8 diverged across worker counts:\nserial:   %+v\nparallel: %+v",
			serial, parallel)
	}
}

// TestFig9WorkerCountInvariance covers the grid-level fan-out plus the
// parallel assembly.Survivors scan underneath it. NaN-valued cells (zero
// monolithic yield) compare by position rather than value.
func TestFig9WorkerCountInvariance(t *testing.T) {
	serial := runFig9(t, tinyConfig(12, 1))
	parallel := runFig9(t, tinyConfig(12, 8))
	if len(serial) != len(parallel) {
		t.Fatalf("ratio sets differ: %d vs %d", len(serial), len(parallel))
	}
	for _, name := range Fig9Ratios {
		a, b := serial[name], parallel[name]
		if len(a) != len(b) {
			t.Fatalf("%s: cell counts differ: %d vs %d", name, len(a), len(b))
		}
		for i := range a {
			same := a[i].Grid == b[i].Grid &&
				a[i].MonoAvailable == b[i].MonoAvailable &&
				floatsEqualOrBothNaN(a[i].EAvgMCM, b[i].EAvgMCM) &&
				floatsEqualOrBothNaN(a[i].EAvgMono, b[i].EAvgMono) &&
				floatsEqualOrBothNaN(a[i].Ratio, b[i].Ratio)
			if !same {
				t.Errorf("%s cell %d diverged: %+v vs %+v", name, i, a[i], b[i])
			}
		}
	}
}

// TestFig10WorkerCountInvariance covers the MapErr fan-out and the
// chunked assembly.Survivors scan.
func TestFig10WorkerCountInvariance(t *testing.T) {
	grids := mcm.EnumerateGrids(80)
	serial, err := runFig10(t, tinyConfig(13, 1), grids, 2)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := runFig10(t, tinyConfig(13, 8), grids, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("point counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		a, b := serial[i], parallel[i]
		same := a.Grid == b.Grid && a.Bench == b.Bench && a.TwoQ == b.TwoQ &&
			a.MonoZero == b.MonoZero && floatsEqualOrBothNaN(a.LogRatio, b.LogRatio)
		if !same {
			t.Errorf("point %d diverged: %+v vs %+v", i, a, b)
		}
	}
}

func floatsEqualOrBothNaN(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return a == b
}

// BenchmarkFig8 measures the full Fig. 8 pipeline (fabrication,
// monolithic Monte Carlo, assembly) with Workers tracking GOMAXPROCS;
// run with -cpu 1,4 to compare the serial and parallel runner paths.
func BenchmarkFig8(b *testing.B) {
	cfg := QuickConfig(42)
	cfg.MonoBatch = 1000
	cfg.ChipletBatch = 1000
	cfg.MaxQubits = 200
	cfg.Workers = runtime.GOMAXPROCS(0)
	b.ResetTimer()
	var res Fig8Result
	for i := 0; i < b.N; i++ {
		res = runFig8(b, cfg)
	}
	b.ReportMetric(res.ChipletYields[20], "chipyield@20q")
}

// TestFig8PropagatesMonoYieldErrors: a monolithic yield simulation that
// cannot build its estimator must fail Fig8 instead of leaving
// zero-valued monolithic yields behind a nil error.
func TestFig8PropagatesMonoYieldErrors(t *testing.T) {
	cfg := tinyConfig(11, 2)
	cfg.Sampling = sampling.Spec{Method: "bogus"}
	if res, err := Fig8(context.Background(), cfg); err == nil {
		t.Errorf("Fig8 returned %d points with a nil error", len(res.Points))
	}
}

// TestFanOutStageProgress pins unit progress for every fan-out stage:
// at any worker count, each label reports units 1..n exactly once, all
// against the total n, so the last event a consumer keeps reads
// Done == Total == n.
func TestFanOutStageProgress(t *testing.T) {
	fig10Grids := mcm.EnumerateGrids(40)
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		events := map[string][]Event{}
		cfg := tinyConfig(14, workers)
		cfg.Progress = func(e Event) {
			mu.Lock()
			events[e.Label] = append(events[e.Label], e)
			mu.Unlock()
		}
		ctx := context.Background()
		if _, err := Fig1(ctx, cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := Fig8(ctx, cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := Fig9(ctx, cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := Fig10(ctx, cfg, fig10Grids, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := Table2(ctx, cfg); err != nil {
			t.Fatal(err)
		}

		catalog := cfg.catalog()
		fig8Grids := mcm.EnumerateGridsFrom(catalog, cfg.MaxQubits)
		monoSizes := map[int]bool{}
		for _, g := range fig8Grids {
			monoSizes[g.Qubits()] = true
		}
		want := map[string]int{
			"fig1":           len(catalog),
			"fig8/fabricate": len(catalog),
			"fig8/mono":      len(monoSizes),
			"fig8/assemble":  len(fig8Grids),
			"fig9":           len(mcm.SquareGridsFrom(catalog, cfg.MaxQubits)),
			"fig10":          len(fig10Grids),
			"table2":         len(Table2Chiplets),
		}
		for label, n := range want {
			if n == 0 {
				t.Fatalf("%s has no units at this scale", label)
			}
			got := events[label]
			seen := make([]bool, n+1)
			for _, e := range got {
				if e.Total != n || e.Done < 1 || e.Done > n || seen[e.Done] {
					t.Errorf("workers %d %s: event %+v, want Done 1..%d once each of Total %d",
						workers, label, e, n, n)
					continue
				}
				seen[e.Done] = true
			}
			if len(got) != n {
				t.Errorf("workers %d %s: %d events, want %d", workers, label, len(got), n)
			}
		}
	}
}

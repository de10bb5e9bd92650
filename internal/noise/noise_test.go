package noise

import (
	"math"
	"math/rand"
	"testing"

	"chipletqc/internal/fab"
	"chipletqc/internal/mcm"
	"chipletqc/internal/stats"
	"chipletqc/internal/topo"
)

func TestPenaltyFactorShape(t *testing.T) {
	cfg := DefaultCalibConfig()
	// Far from resonances: factor ~ 1.
	if p := cfg.PenaltyFactor(0.08); p > 1.1 {
		t.Errorf("penalty at healthy detuning = %v, want ~1", p)
	}
	// At the near-null resonance the factor peaks.
	if p := cfg.PenaltyFactor(0.0); p < 4 {
		t.Errorf("penalty at zero detuning = %v, want > 4", p)
	}
	// At |alpha|/2 and |alpha| the factor is elevated.
	if p := cfg.PenaltyFactor(0.165); p < 2 {
		t.Errorf("penalty at alpha/2 = %v, want > 2", p)
	}
	if p := cfg.PenaltyFactor(0.330); p < 2.5 {
		t.Errorf("penalty at alpha = %v, want > 2.5", p)
	}
	// Symmetric in sign.
	if cfg.PenaltyFactor(-0.165) != cfg.PenaltyFactor(0.165) {
		t.Error("penalty must depend on |detuning|")
	}
}

func TestSampleEdgeErrorClamps(t *testing.T) {
	cfg := DefaultCalibConfig()
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		e := cfg.SampleEdgeError(r, 0.0, 127)
		if e < cfg.Floor || e > cfg.Ceil {
			t.Fatalf("sample %v outside [%v, %v]", e, cfg.Floor, cfg.Ceil)
		}
	}
}

func TestFig7PooledStatistics(t *testing.T) {
	// The synthetic Washington calibration must reproduce the paper's
	// Fig. 7 annotations: median ~0.012, average ~0.018.
	m := defaultDetuningModel(41)
	median, mean := m.PooledStats()
	if median < 0.008 || median > 0.016 {
		t.Errorf("pooled median = %v, want ~0.012", median)
	}
	if mean < 0.013 || mean > 0.024 {
		t.Errorf("pooled mean = %v, want ~0.018", mean)
	}
	if mean <= median {
		t.Errorf("mean %v should exceed median %v (right-skewed errors)", mean, median)
	}
}

func TestCalibrationRunShape(t *testing.T) {
	pts := CalibrationRun(topo.ChipSpec{DenseRows: 2, Width: 8}, 0.1, 15, 1, DefaultCalibConfig())
	d := topo.MonolithicDevice(topo.ChipSpec{DenseRows: 2, Width: 8})
	if len(pts) != d.G.M() {
		t.Fatalf("points = %d, want one per coupling (%d)", len(pts), d.G.M())
	}
	for _, p := range pts {
		if p.Detuning < 0 {
			t.Errorf("negative detuning %v", p.Detuning)
		}
		if p.Infidelity <= 0 || p.Infidelity >= 1 {
			t.Errorf("unphysical infidelity %v", p.Infidelity)
		}
	}
}

func TestDetuningModelSamplesFromMatchingBin(t *testing.T) {
	// Build a model with two well-separated bins and check routing.
	pts := []CalibPoint{
		{Detuning: 0.05, Infidelity: 0.001},
		{Detuning: 0.05, Infidelity: 0.002},
		{Detuning: 0.45, Infidelity: 0.2},
	}
	m := NewDetuningModel(pts, 0.1)
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		if e := m.Sample(r, 0.06); e > 0.01 {
			t.Fatalf("low-detuning sample %v drew from wrong bin", e)
		}
		if e := m.Sample(r, 0.44); e < 0.1 {
			t.Fatalf("high-detuning sample %v drew from wrong bin", e)
		}
	}
	// Negative detunings are folded to absolute value.
	if e := m.Sample(r, -0.05); e > 0.01 {
		t.Errorf("negative detuning sample %v wrong", e)
	}
}

func TestDetuningModelNearestBinFallback(t *testing.T) {
	pts := []CalibPoint{{Detuning: 0.25, Infidelity: 0.03}}
	m := NewDetuningModel(pts, 0.1)
	r := rand.New(rand.NewSource(3))
	// A detuning in an empty bin falls back to the nearest populated one.
	if e := m.Sample(r, 0.02); e != 0.03 {
		t.Errorf("fallback sample = %v, want 0.03", e)
	}
}

func TestDetuningModelEmptyPanics(t *testing.T) {
	m := NewDetuningModel(nil, 0.1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic with no calibration data")
		}
	}()
	m.Sample(rand.New(rand.NewSource(1)), 0.05)
}

func TestLinkModelStatistics(t *testing.T) {
	l := DefaultLinkModel()
	r := rand.New(rand.NewSource(9))
	xs := make([]float64, 200000)
	for i := range xs {
		xs[i] = l.Sample(r)
	}
	if m := stats.Mean(xs); math.Abs(m-LinkMeanInfidelity) > 0.004 {
		t.Errorf("link mean = %v, want ~%v", m, LinkMeanInfidelity)
	}
	if med := stats.Median(xs); math.Abs(med-LinkMedianInfidelity) > 0.004 {
		t.Errorf("link median = %v, want ~%v", med, LinkMedianInfidelity)
	}
}

func TestLinkModelWithMean(t *testing.T) {
	l := DefaultLinkModel().WithMean(0.036) // e_link = 2 * e_chip
	if math.Abs(l.Mean()-0.036) > 1e-9 {
		t.Errorf("rescaled mean = %v, want 0.036", l.Mean())
	}
	r := rand.New(rand.NewSource(10))
	xs := make([]float64, 100000)
	for i := range xs {
		xs[i] = l.Sample(r)
	}
	if m := stats.Mean(xs); math.Abs(m-0.036) > 0.003 {
		t.Errorf("sampled rescaled mean = %v, want ~0.036", m)
	}
}

func TestLinkModelWithMeanPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for negative mean")
		}
	}()
	DefaultLinkModel().WithMean(-0.01)
}

// TestLinkModelWithMeanZero: mean 0 is the degenerate perfect-link
// model — every sample is exactly 0, and the draw is still consumed so
// RNG streams stay aligned with the nonzero case.
func TestLinkModelWithMeanZero(t *testing.T) {
	l := DefaultLinkModel().WithMean(0)
	if m := l.Mean(); m != 0 {
		t.Errorf("mean = %v, want 0", m)
	}
	r := rand.New(rand.NewSource(4))
	ref := rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		if v := l.Sample(r); v != 0 {
			t.Fatalf("sample %d = %v, want 0", i, v)
		}
	}
	// Stream alignment: the zero model consumed exactly as many draws
	// as the nonzero model would have.
	nz := DefaultLinkModel()
	for i := 0; i < 100; i++ {
		nz.Sample(ref)
	}
	if r.Int63() != ref.Int63() {
		t.Error("zero-mean model consumed a different number of draws")
	}
}

func TestLinkRatioModels(t *testing.T) {
	ms := LinkRatioModels(ChipMeanInfidelity)
	if len(ms) != 4 {
		t.Fatalf("ratio models = %d, want 4", len(ms))
	}
	if m := ms["ratio-1"].Mean(); math.Abs(m-0.018) > 1e-9 {
		t.Errorf("ratio-1 mean = %v, want 0.018", m)
	}
	if m := ms["ratio-2"].Mean(); math.Abs(m-0.036) > 1e-9 {
		t.Errorf("ratio-2 mean = %v, want 0.036", m)
	}
	// State of art keeps the published mean.
	if m := ms["state-of-art"].Mean(); math.Abs(m-LinkMeanInfidelity) > 1e-9 {
		t.Errorf("state-of-art mean = %v, want %v", m, LinkMeanInfidelity)
	}
}

func TestAssignCoversEveryCoupling(t *testing.T) {
	d := mcm.MustBuild(mcm.Grid{Rows: 2, Cols: 2, Spec: topo.ChipSpec{DenseRows: 2, Width: 8}})
	r := rand.New(rand.NewSource(12))
	f := fab.DefaultModel().Sample(r, d)
	det := defaultDetuningModel(13)
	a := Assign(r, d, f, det, DefaultLinkModel())
	if len(a.Err) != d.G.M() {
		t.Fatalf("assigned %d errors, want %d", len(a.Err), d.G.M())
	}
	for e, err := range a.Err {
		if err <= 0 || err >= 1 {
			t.Errorf("coupling %v has unphysical error %v", e, err)
		}
	}
	if a.Mean() <= 0 {
		t.Error("mean infidelity should be positive")
	}
}

func TestAssignLinksAreNoisierAtStateOfArt(t *testing.T) {
	// e_link/e_chip ~ 4 at state of art: link couplings should average
	// well above on-chip couplings.
	d := mcm.MustBuild(mcm.Grid{Rows: 3, Cols: 3, Spec: topo.ChipSpec{DenseRows: 4, Width: 12}})
	r := rand.New(rand.NewSource(21))
	f := fab.DefaultModel().Sample(r, d)
	det := defaultDetuningModel(22)
	a := Assign(r, d, f, det, DefaultLinkModel())
	var link, chip []float64
	for e, err := range a.Err {
		if d.Link[e] {
			link = append(link, err)
		} else {
			chip = append(chip, err)
		}
	}
	lm, cm := stats.Mean(link), stats.Mean(chip)
	if lm < 2*cm {
		t.Errorf("link mean %v should be >= 2x chip mean %v at state of art", lm, cm)
	}
	if ratio := lm / cm; ratio < 2.5 || ratio > 7 {
		t.Errorf("e_link/e_chip = %v, want ~4", ratio)
	}
}

func TestAssignmentAccessors(t *testing.T) {
	d := topo.MonolithicDevice(topo.ChipSpec{DenseRows: 1, Width: 8})
	r := rand.New(rand.NewSource(30))
	f := fab.DefaultModel().Sample(r, d)
	det := defaultDetuningModel(31)
	a := Assign(r, d, f, det, DefaultLinkModel())
	e := d.G.Edges()[0]
	if a.Get(e.U, e.V) != a.Err[e] || a.Get(e.V, e.U) != a.Err[e] {
		t.Error("Get must be order-independent")
	}
	if got := a.MeanOver(d.G.Edges()); math.Abs(got-a.Mean()) > 1e-12 {
		t.Errorf("MeanOver(all) = %v, want Mean() = %v", got, a.Mean())
	}
	var empty Assignment
	if empty.Mean() != 0 || empty.MeanOver(nil) != 0 {
		t.Error("empty assignment means should be 0")
	}
}

func TestSizeSeriesOrdering(t *testing.T) {
	// Fig. 3(b): median CX infidelity grows with device size.
	sums := SizeSeries([]int{27, 65, 127}, 15, 51, DefaultCalibConfig())
	if len(sums) != 3 {
		t.Fatalf("summaries = %d, want 3", len(sums))
	}
	if !(sums[0].Median < sums[1].Median && sums[1].Median < sums[2].Median) {
		t.Errorf("medians should increase with size: %v %v %v",
			sums[0].Median, sums[1].Median, sums[2].Median)
	}
	// Spread (IQR) grows as well.
	if sums[0].IQR() >= sums[2].IQR() {
		t.Errorf("IQR should widen with size: %v vs %v", sums[0].IQR(), sums[2].IQR())
	}
}

func TestWashingtonSpecSize(t *testing.T) {
	spec := WashingtonSpec()
	if q := spec.Qubits(); q < 120 || q > 134 {
		t.Errorf("Washington-class spec has %d qubits, want ~127", q)
	}
}

// defaultDetuningModel builds the model from the reference synthetic
// Washington calibration set.
func defaultDetuningModel(seed int64) *DetuningModel {
	return NewDetuningModel(DefaultCalibration(seed), BinWidthFig7)
}

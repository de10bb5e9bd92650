package fab_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"chipletqc/internal/collision"
	"chipletqc/internal/fab"
	"chipletqc/internal/scenario"
	"chipletqc/internal/topo"
)

// screenDevices is a multi-chip member of every lattice family plus the
// paper's 100-qubit heavy-hex device.
func screenDevices(t testing.TB) []*topo.Device {
	out := []*topo.Device{topo.MonolithicDevice(topo.MonolithicSpec(100))}
	for _, fam := range topo.LatticeFamilies() {
		spec := topo.LatticeSpec{Family: fam, Rows: 2, Cols: 2, ChipQubits: 20}
		if fam == topo.FamilyStack3D {
			spec = topo.LatticeSpec{Family: fam, Rows: 2, Cols: 2, ChipQubits: 9, Layers: 3}
		}
		d, err := spec.Build()
		if err != nil {
			t.Fatalf("%s: %v", spec.Canonical(), err)
		}
		out = append(out, d)
	}
	return out
}

// firstFailingStage is the qubit at which a staged walk over the full
// assignment f first fails, or -1 when f is collision-free.
func firstFailingStage(c *collision.Checker, f []float64) int {
	for q := range f {
		if !c.FreeAt(q, f) {
			return q
		}
	}
	return -1
}

func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestSampleFreeIntoMatchesSampleInto is the fused kernel's oracle: on
// every lattice family, under every registered scenario's thresholds
// and precision (and at sigma 0, where stats.Normal draws nothing),
// SampleFreeInto must reach Checker.Free's verdict on SampleInto's
// buffer, draw a bit-identical prefix of it up to the first failing
// qubit and nothing past it, and on a free verdict leave the full
// buffer and the stream's next draw identical to SampleInto's.
func TestSampleFreeIntoMatchesSampleInto(t *testing.T) {
	const trials = 150
	for _, d := range screenDevices(t) {
		for _, scn := range scenario.All() {
			for _, sigma := range []float64{scn.Fab.Sigma, 0} {
				m := fab.Model{Plan: scn.Fab.Plan, Sigma: sigma}
				c := collision.NewChecker(d, scn.Params)
				t.Run(fmt.Sprintf("%s/%s/sigma=%g", d.Name, scn.Name, sigma), func(t *testing.T) {
					want := make([]float64, d.N)
					got := make([]float64, d.N)
					free := 0
					for i := 0; i < trials; i++ {
						r1 := rand.New(rand.NewSource(int64(i)))
						r2 := rand.New(rand.NewSource(int64(i)))
						m.SampleInto(r1, d, want)
						for q := range got {
							got[q] = math.NaN()
						}
						ok := m.SampleFreeInto(r2, d, c, got)
						if ok != c.Free(want) {
							t.Fatalf("trial %d: SampleFreeInto = %v, Free(SampleInto) = %v", i, ok, !ok)
						}
						stop := firstFailingStage(c, want)
						if ok {
							free++
							if !sameBits(got, want) {
								t.Fatalf("trial %d: free buffer differs from SampleInto's", i)
							}
							if a, b := r1.Int63(), r2.Int63(); a != b {
								t.Fatalf("trial %d: next draw %d after SampleFreeInto, %d after SampleInto", i, b, a)
							}
							continue
						}
						if !sameBits(got[:stop+1], want[:stop+1]) {
							t.Fatalf("trial %d: drawn prefix up to qubit %d differs from SampleInto's", i, stop)
						}
						for q := stop + 1; q < d.N; q++ {
							if !math.IsNaN(got[q]) {
								t.Fatalf("trial %d: drew qubit %d past the first failing qubit %d", i, q, stop)
							}
						}
					}
					t.Logf("%d/%d free", free, trials)
				})
			}
		}
	}
}

// TestSampleFreeIntoAllocationFree pins the fused kernel at zero
// allocations per call, like SampleInto.
func TestSampleFreeIntoAllocationFree(t *testing.T) {
	d := topo.MonolithicDevice(topo.MonolithicSpec(100))
	m := fab.DefaultModel()
	c := collision.NewChecker(d, collision.DefaultParams())
	r := rand.New(rand.NewSource(1))
	f := make([]float64, d.N)
	if allocs := testing.AllocsPerRun(200, func() { m.SampleFreeInto(r, d, c, f) }); allocs != 0 {
		t.Errorf("SampleFreeInto allocates %.1f times per call, want 0", allocs)
	}
}

// BenchmarkSampleThenFree and BenchmarkSampleFreeInto compare the
// draw-everything-then-check path with the fused screen on the paper's
// 100-qubit device at laser-tuned precision.
func BenchmarkSampleThenFree(b *testing.B) {
	d := topo.MonolithicDevice(topo.MonolithicSpec(100))
	m := fab.DefaultModel()
	c := collision.NewChecker(d, collision.DefaultParams())
	r := rand.New(rand.NewSource(1))
	f := make([]float64, d.N)
	for i := 0; i < b.N; i++ {
		m.SampleInto(r, d, f)
		c.Free(f)
	}
}

func BenchmarkSampleFreeInto(b *testing.B) {
	d := topo.MonolithicDevice(topo.MonolithicSpec(100))
	m := fab.DefaultModel()
	c := collision.NewChecker(d, collision.DefaultParams())
	r := rand.New(rand.NewSource(1))
	f := make([]float64, d.N)
	for i := 0; i < b.N; i++ {
		m.SampleFreeInto(r, d, c, f)
	}
}

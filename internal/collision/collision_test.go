package collision

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"chipletqc/internal/mcm"
	"chipletqc/internal/topo"
)

// idealFreqs assigns every qubit its exact class target.
func idealFreqs(d *topo.Device, plan topo.FreqPlan) []float64 {
	f := make([]float64, d.N)
	for q := 0; q < d.N; q++ {
		f[q] = plan.Target(d.Class[q])
	}
	return f
}

func TestIdealAssignmentIsCollisionFree(t *testing.T) {
	// The paper's whole premise: the ideal three-frequency heavy-hex
	// pattern satisfies all seven criteria at step 0.06 GHz.
	for _, cs := range topo.Catalog {
		d := topo.MonolithicDevice(cs.Spec)
		ch := NewChecker(d, DefaultParams())
		f := idealFreqs(d, topo.DefaultFreqPlan)
		if !ch.Free(f) {
			vs := ch.Violations(f)
			t.Errorf("%v ideal assignment has %d violations, first: %v",
				cs.Spec, len(vs), vs[0])
		}
	}
}

func TestIdealAssignmentStepSweep(t *testing.T) {
	// Steps in the paper's swept range 0.04-0.07 GHz all leave the ideal
	// pattern collision-free (collisions come from fabrication noise).
	d := topo.MonolithicDevice(topo.ChipSpec{DenseRows: 4, Width: 12})
	ch := NewChecker(d, DefaultParams())
	for _, step := range []float64{0.04, 0.05, 0.06, 0.07} {
		f := idealFreqs(d, topo.FreqPlan{Base: 5.0, Step: step})
		if !ch.Free(f) {
			t.Errorf("step %.2f: ideal pattern not collision-free: %v",
				step, ch.Violations(f)[0])
		}
	}
}

func TestType1NearNull(t *testing.T) {
	p := DefaultParams()
	if got := maskType(edgeMask(5.12, 5.12+0.016, &p)); got != 1 {
		t.Errorf("detuning 0.016 should be type 1, got %d", got)
	}
	if got := maskType(edgeMask(5.12, 5.12-0.0169, &p)); got != 1 {
		t.Errorf("detuning -0.0169 should be type 1, got %d", got)
	}
	if got := maskType(edgeMask(5.12, 5.06, &p)); got != 0 {
		t.Errorf("healthy 0.06 detuning flagged: type %d", got)
	}
}

func TestType2HalfAnharmonicity(t *testing.T) {
	p := DefaultParams()
	// fi + a/2 = fj: control 5.12, a = -0.330 -> fj near 4.955.
	if got := maskType(edgeMask(5.12, 4.9551, &p)); got != 2 {
		t.Errorf("half-anharmonicity resonance should be type 2, got %d", got)
	}
	if got := maskType(edgeMask(5.12, 4.9499, &p)); got == 2 {
		t.Error("0.0051 away from resonance should not be type 2")
	}
}

func TestType3Anharmonicity(t *testing.T) {
	p := DefaultParams()
	// fi = fj + a: control 5.12, fj = 5.45 -> fi - fj = -0.33 = a.
	if got := maskType(edgeMask(5.12, 5.44, &p)); got != 3 {
		t.Errorf("anharmonicity detuning should be type 3, got %d", got)
	}
	// Symmetric direction: fj = fi + a = 4.79.
	if got := maskType(edgeMask(5.12, 4.80, &p)); got != 3 {
		t.Errorf("reverse anharmonicity detuning should be type 3, got %d", got)
	}
}

func TestType4StraddlingRegime(t *testing.T) {
	p := DefaultParams()
	// Target above control: fails.
	if got := maskType(edgeMask(5.0, 5.05, &p)); got != 4 {
		t.Errorf("target above control should be type 4, got %d", got)
	}
	// Target far below the straddle (below fi + a, and outside type-3
	// band): 5.12 - 0.33 - 0.05 = 4.74.
	if got := maskType(edgeMask(5.12, 4.74, &p)); got != 4 {
		t.Errorf("target below straddle should be type 4, got %d", got)
	}
	// Target inside the straddle: fine.
	if got := maskType(edgeMask(5.12, 5.0, &p)); got != 0 {
		t.Errorf("target inside straddle flagged: type %d", got)
	}
}

func TestType5TargetsNearResonant(t *testing.T) {
	p := DefaultParams()
	if got := maskType(pairMask(5.12, 5.0, 5.012, &p)); got != 5 {
		t.Errorf("near-resonant targets should be type 5, got %d", got)
	}
	if got := maskType(pairMask(5.12, 5.0, 5.06, &p)); got != 0 {
		t.Errorf("distinct targets flagged: type %d", got)
	}
}

func TestType6TargetAnharmonicity(t *testing.T) {
	p := DefaultParams()
	// fj = fk + a: fj = 5.0, fk = 5.33.
	if got := maskType(pairMask(5.7, 5.0, 5.33, &p)); got != 6 {
		t.Errorf("target anharmonicity gap should be type 6, got %d", got)
	}
	// Mirrored: fj + a = fk.
	if got := maskType(pairMask(5.7, 5.33, 5.0, &p)); got != 6 {
		t.Errorf("mirrored target anharmonicity gap should be type 6, got %d", got)
	}
}

func TestType7TwoPhoton(t *testing.T) {
	p := DefaultParams()
	// 2fi + a = fj + fk: choose fi = 5.12, so fj + fk = 9.91.
	// Keep fj, fk individually clear of types 5/6.
	fj, fk := 4.87, 5.04
	if math.Abs(fj+fk-9.91) > 1e-9 {
		t.Fatal("test construction broken")
	}
	if got := maskType(pairMask(5.12, fj, fk, &p)); got != 7 {
		t.Errorf("two-photon resonance should be type 7, got %d", got)
	}
}

func TestCheckerViolationsMatchFree(t *testing.T) {
	// Free(f) iff Violations(f) is empty — on perturbed assignments.
	d := topo.MonolithicDevice(topo.ChipSpec{DenseRows: 2, Width: 8})
	ch := NewChecker(d, DefaultParams())
	f := func(seed int64) bool {
		freqs := idealFreqs(d, topo.DefaultFreqPlan)
		// Deterministic pseudo-perturbation from the seed.
		s := seed
		for q := range freqs {
			s = s*6364136223846793005 + 1442695040888963407
			freqs[q] += float64(int8(s>>32)) / 127.0 * 0.05
		}
		return ch.Free(freqs) == (len(ch.Violations(freqs)) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCollisionForcesNotFree(t *testing.T) {
	d := topo.MonolithicDevice(topo.ChipSpec{DenseRows: 2, Width: 8})
	ch := NewChecker(d, DefaultParams())
	f := idealFreqs(d, topo.DefaultFreqPlan)
	// Force a near-null collision on the first coupling.
	e := d.G.Edges()[0]
	f[e.U] = f[e.V]
	if ch.Free(f) {
		t.Fatal("identical neighbour frequencies must collide")
	}
	vs := ch.Violations(f)
	found := false
	for _, v := range vs {
		if v.Type == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("expected a type 1 violation, got %v", vs)
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Type: 1, Control: 3, Target: 4, Target2: -1}
	if v.String() != "type 1 collision: q3-q4" {
		t.Errorf("pair string = %q", v.String())
	}
	v = Violation{Type: 5, Control: 1, Target: 2, Target2: 3}
	if v.String() != "type 5 collision: control q1 targets q2,q3" {
		t.Errorf("triple string = %q", v.String())
	}
}

func TestCheckerSizes(t *testing.T) {
	d := topo.MonolithicDevice(topo.ChipSpec{DenseRows: 2, Width: 8})
	ch := NewChecker(d, DefaultParams())
	if ch.Edges() != d.G.M() {
		t.Errorf("checker edges = %d, want %d", ch.Edges(), d.G.M())
	}
	if pairs := len(ch.crit) - ch.Edges(); pairs != len(d.ControlPairs()) {
		t.Errorf("checker pairs = %d, want %d", pairs, len(d.ControlPairs()))
	}
}

func TestThresholdMonotonicity(t *testing.T) {
	// Property: widening every threshold can only turn Free from true to
	// false, never the reverse.
	d := topo.MonolithicDevice(topo.ChipSpec{DenseRows: 1, Width: 8})
	narrow := DefaultParams()
	wide := DefaultParams()
	wide.T1 *= 2
	wide.T2 *= 2
	wide.T3 *= 2
	wide.T5 *= 2
	wide.T6 *= 2
	wide.T7 *= 2
	chN := NewChecker(d, narrow)
	chW := NewChecker(d, wide)
	f := func(seed int64) bool {
		freqs := idealFreqs(d, topo.DefaultFreqPlan)
		s := seed
		for q := range freqs {
			s = s*6364136223846793005 + 1442695040888963407
			freqs[q] += float64(int8(s>>24)) / 127.0 * 0.03
		}
		if chW.Free(freqs) && !chN.Free(freqs) {
			return false // wide free implies narrow free
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// lattices is a 2x2 member of every lattice family.
func lattices() []topo.LatticeSpec {
	var out []topo.LatticeSpec
	for _, fam := range topo.LatticeFamilies() {
		spec := topo.LatticeSpec{Family: fam, Rows: 2, Cols: 2, ChipQubits: 20}
		if fam == topo.FamilyStack3D {
			spec = topo.LatticeSpec{Family: fam, Rows: 2, Cols: 2, ChipQubits: 9, Layers: 3}
		}
		out = append(out, spec)
	}
	return out
}

// layoutDevices is the device set the layout tests walk: every catalog
// chiplet and a multi-chip member of every lattice family.
func layoutDevices(t *testing.T) []*topo.Device {
	var out []*topo.Device
	for _, cs := range topo.Catalog {
		out = append(out, topo.MonolithicDevice(cs.Spec))
	}
	for _, spec := range lattices() {
		d, err := spec.Build()
		if err != nil {
			t.Fatalf("%s: %v", spec.Canonical(), err)
		}
		out = append(out, d)
	}
	return out
}

// TestLayoutStagesByHighestQubit pins the checker's one constraint
// layout: every coupling and every control pair of the device appears
// exactly once, in the stage of the highest-indexed qubit it mentions,
// with the coupling's control direction resolved; stages tile crit in
// qubit order with couplings before pairs.
func TestLayoutStagesByHighestQubit(t *testing.T) {
	for _, d := range layoutDevices(t) {
		ch := NewChecker(d, DefaultParams())
		if ch.Qubits() != d.N || ch.stage[0] != 0 || int(ch.stage[d.N]) != len(ch.crit) {
			t.Fatalf("%s: stage table %v does not span %d criteria over %d qubits",
				d.Name, ch.stage, len(ch.crit), d.N)
		}
		want := map[criterion]int{}
		for _, e := range d.G.Edges() {
			want[criterion{c: int32(d.ControlOf(e.U, e.V)), t: int32(d.TargetOf(e.U, e.V)), t2: -1}]++
		}
		for _, cp := range d.ControlPairs() {
			want[criterion{c: int32(cp.Control), t: int32(cp.T1), t2: int32(cp.T2)}]++
		}
		for q := 0; q < d.N; q++ {
			if ch.stage[q] > ch.stage[q+1] {
				t.Fatalf("%s: stage %d runs backwards: %d > %d", d.Name, q, ch.stage[q], ch.stage[q+1])
			}
			seenPair := false
			for _, k := range ch.crit[ch.stage[q]:ch.stage[q+1]] {
				if hi := max(k.c, k.t, k.t2); int(hi) != q {
					t.Errorf("%s: %+v filed under qubit %d, its highest qubit is %d", d.Name, k, q, hi)
				}
				if k.t2 >= 0 {
					seenPair = true
				} else if seenPair {
					t.Errorf("%s: coupling %+v after a control pair in stage %d", d.Name, k, q)
				}
				want[k]--
			}
		}
		for k, n := range want {
			if n != 0 {
				t.Errorf("%s: criterion %+v appears %d times too few in the layout", d.Name, k, n)
			}
		}
	}
}

// TestFreeAtComposesFree: walking the stages in qubit order reaches the
// same verdict as Free, and each stage reads only the qubits placed so
// far — poisoning f[q+1:] with NaN never changes FreeAt(q).
func TestFreeAtComposesFree(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, d := range layoutDevices(t) {
		ch := NewChecker(d, DefaultParams())
		f := make([]float64, d.N)
		poisoned := make([]float64, d.N)
		for trial := 0; trial < 200; trial++ {
			for q := range f {
				f[q] = topo.DefaultFreqPlan.Target(d.Class[q]) + 0.02*r.NormFloat64()
			}
			staged := true
			for q := 0; q < d.N; q++ {
				copy(poisoned, f[:q+1])
				for j := q + 1; j < d.N; j++ {
					poisoned[j] = math.NaN()
				}
				at := ch.FreeAt(q, f)
				if ch.FreeAt(q, poisoned) != at {
					t.Fatalf("%s trial %d: FreeAt(%d) reads past qubit %d", d.Name, trial, q, q)
				}
				staged = staged && at
			}
			if staged != ch.Free(f) {
				t.Fatalf("%s trial %d: staged walk says %v, Free says %v", d.Name, trial, staged, ch.Free(f))
			}
		}
	}
}

// seamDevice pairs a multi-chip device with the chip design each of its
// slots copies, or nil when its chips are not contiguous copies of one
// design (the planar lattice families).
type seamDevice struct {
	d    *topo.Device
	chip *topo.Device
}

// seamDevices is every enumerated MCM grid up to 500 qubits plus a 2x2
// member of every lattice family.
func seamDevices(t *testing.T) []seamDevice {
	var out []seamDevice
	for _, g := range mcm.EnumerateGrids(500) {
		out = append(out, seamDevice{mcm.MustBuild(g), topo.MonolithicDevice(g.Spec)})
	}
	for _, spec := range lattices() {
		d, err := spec.Build()
		if err != nil {
			t.Fatalf("%s: %v", spec.Canonical(), err)
		}
		var chip *topo.Device
		if spec.Family == topo.FamilyHeavyHex {
			cs, err := spec.HeavyHexChip()
			if err != nil {
				t.Fatal(err)
			}
			chip = topo.MonolithicDevice(cs)
		}
		out = append(out, seamDevice{d, chip})
	}
	return out
}

// spansChips reports whether criterion k mentions qubits of more than
// one chip.
func spansChips(d *topo.Device, k criterion) bool {
	on := d.ChipOf
	return on[k.c] != on[k.t] || (k.t2 >= 0 && on[k.c] != on[k.t2])
}

// TestSeamCheckerPartitionsCriteria: the seam checker holds exactly the
// device's chip-spanning criteria, in the full checker's stages and
// order, and every other criterion belongs to exactly one chip. Where
// the device tiles one chip design (every MCM grid, which is what
// assembly stitches), chip c's criteria are the design's own, shifted
// by c*nPer — the same in every slot, so a die's own criteria do not
// depend on where it is placed.
func TestSeamCheckerPartitionsCriteria(t *testing.T) {
	for _, sd := range seamDevices(t) {
		d := sd.d
		full, seam := NewChecker(d, DefaultParams()), NewSeamChecker(d, DefaultParams())
		if seam.Qubits() != d.N || seam.Edges() != len(d.Link) {
			t.Fatalf("%s: seam checker spans %d qubits and %d couplings, want %d and %d",
				d.Name, seam.Qubits(), seam.Edges(), d.N, len(d.Link))
		}
		for q := 0; q < d.N; q++ {
			var want []criterion
			for _, k := range full.crit[full.stage[q]:full.stage[q+1]] {
				if spansChips(d, k) {
					want = append(want, k)
				}
			}
			if got := seam.crit[seam.stage[q]:seam.stage[q+1]]; !slices.Equal(got, want) {
				t.Fatalf("%s: seam stage %d is %v, want the full stage's chip-spanning %v", d.Name, q, got, want)
			}
		}

		// Types 5-7 are symmetric in a pair's two targets, and the chip
		// design and the tiled device list a control's neighbours in
		// different orders, so pairs are counted with ordered targets.
		count := map[criterion]int{}
		tally := func(k criterion, n int) {
			if k.t2 >= 0 && k.t2 < k.t {
				k.t, k.t2 = k.t2, k.t
			}
			count[k] += n
		}
		for _, k := range full.crit {
			tally(k, 1)
		}
		for _, k := range seam.crit {
			tally(k, -1)
		}
		if sd.chip == nil {
			for _, k := range full.crit {
				if !spansChips(d, k) {
					tally(k, -1)
				}
			}
		} else {
			nPer, own := int32(sd.chip.N), NewChecker(sd.chip, DefaultParams()).crit
			for c := int32(0); c < int32(d.Chips); c++ {
				for _, k := range own {
					k.c, k.t = k.c+c*nPer, k.t+c*nPer
					if k.t2 >= 0 {
						k.t2 += c * nPer
					}
					tally(k, -1)
				}
			}
		}
		for k, n := range count {
			if n != 0 {
				t.Errorf("%s: criterion %+v is covered %d times by the seam and the chips, want once", d.Name, k, 1-n)
			}
		}
	}
}

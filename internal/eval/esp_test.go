package eval

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"chipletqc/internal/compiler"
	"chipletqc/internal/graph"
	"chipletqc/internal/mcm"
	"chipletqc/internal/noise"
	"chipletqc/internal/qbench"
	"chipletqc/internal/topo"
)

// logFidelityOracle is the per-gate walk LogFidelity replaced: one error
// lookup and one log per compiled two-qubit gate, in gate order, with an
// early -Inf return. It is kept to prove the pair-index sum unchanged.
func logFidelityOracle(r *compiler.Result, a noise.Assignment) float64 {
	var sum float64
	for _, g := range r.Compiled.Gates {
		if !g.IsTwoQubit() {
			continue
		}
		e := a.Get(g.Qubits[0], g.Qubits[1])
		if e >= 1 {
			return math.Inf(-1)
		}
		sum += math.Log1p(-e)
	}
	return sum
}

// oracleAssignments returns named error assignments over dev's couplings
// for a compiled result: two random draws, then copies of the first with
// one pair the circuit uses set to 1 (-Inf), to NaN, negative, NaN
// ahead of a later 1, and deleted (reads as 0).
func oracleAssignments(dev *topo.Device, r *compiler.Result, seed int64) map[string]noise.Assignment {
	random := func(seed int64) noise.Assignment {
		rng := rand.New(rand.NewSource(seed))
		a := noise.Assignment{Err: map[graph.Edge]float64{}}
		for _, e := range dev.G.Edges() {
			a.Err[e] = 0.05 * rng.Float64()
		}
		return a
	}
	base := random(seed)
	edit := func(f func(map[graph.Edge]float64)) noise.Assignment {
		a := noise.Assignment{Err: make(map[graph.Edge]float64, len(base.Err))}
		for e, x := range base.Err {
			a.Err[e] = x
		}
		f(a.Err)
		return a
	}
	pairs, _ := r.PairIndex()
	first, mid, last := pairs[0], pairs[len(pairs)/2], pairs[len(pairs)-1]
	return map[string]noise.Assignment{
		"random":    base,
		"random2":   random(seed + 1),
		"one":       edit(func(m map[graph.Edge]float64) { m[mid] = 1 }),
		"above-one": edit(func(m map[graph.Edge]float64) { m[last] = 1.5 }),
		"nan":       edit(func(m map[graph.Edge]float64) { m[mid] = math.NaN() }),
		"negative":  edit(func(m map[graph.Edge]float64) { m[mid] = -0.02 }),
		"nan-then-one": edit(func(m map[graph.Edge]float64) {
			m[first], m[last] = math.NaN(), 1
		}),
		"missing": edit(func(m map[graph.Edge]float64) { delete(m, mid) }),
	}
}

// TestLogFidelityMatchesOracle scores the benchmark suite compiled onto
// an MCM and its monolithic counterpart under every oracle assignment
// and requires the pair-index sum to equal the per-gate walk bit for
// bit, through Compile's Result and through a hand-built one.
func TestLogFidelityMatchesOracle(t *testing.T) {
	grid := mcm.Grid{Rows: 2, Cols: 2, Spec: topo.ChipSpec{DenseRows: 2, Width: 8}}
	devs := []*topo.Device{mcm.MustBuild(grid), topo.MonolithicDevice(grid.MonolithicCounterpart())}
	width := qbench.UtilizedQubits(grid.Qubits())
	for di, dev := range devs {
		for _, bs := range qbench.Suite() {
			r, err := compiler.Compile(bs.Generate(width, 3), dev)
			if err != nil {
				t.Fatal(err)
			}
			if _, gatePair := r.PairIndex(); len(gatePair) != r.Counts.TwoQ {
				t.Fatalf("%s %s: pair index covers %d gates, want %d", dev.Name, bs.Short, len(gatePair), r.Counts.TwoQ)
			}
			bare := &compiler.Result{Compiled: r.Compiled}
			if _, gatePair := bare.PairIndex(); gatePair != nil {
				t.Fatalf("hand-built Result has a pair index")
			}
			for name, a := range oracleAssignments(dev, r, int64(10*di)) {
				want := logFidelityOracle(r, a)
				for how, res := range map[string]*compiler.Result{"compiled": r, "hand-built": bare} {
					if got := LogFidelity(res, a); math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("%s %s %s (%s): LogFidelity = %v, oracle %v", dev.Name, bs.Short, name, how, got, want)
					}
				}
			}
		}
	}
}

// BenchmarkLogFidelity scores one compiled Fig. 10 system, the benchmark
// suite on a 2x2 MCM of 20-qubit chiplets, against each of its
// assembled modules' error assignments. Run with -benchmem.
func BenchmarkLogFidelity(b *testing.B) {
	cfg := QuickConfig(1)
	grid := mcm.Grid{Rows: 2, Cols: 2, Spec: topo.ChipSpec{DenseRows: 2, Width: 8}}
	mods, err := cfg.waferScaledMCMs(context.Background(), grid, seedOffFig10Fabricate, seedOffFig10Assemble, cfg.linkModel(), 0)
	if err != nil {
		b.Fatal(err)
	}
	if len(mods) == 0 {
		b.Fatal("no assembled modules")
	}
	dev, chip := mcm.MustBuild(grid), topo.BuildChip(grid.Spec)
	var assignments []noise.Assignment
	for _, m := range mods {
		assignments = append(assignments, m.Errors(dev, chip))
	}
	width := qbench.UtilizedQubits(grid.Qubits())
	var results []*compiler.Result
	for _, bs := range qbench.Suite() {
		r, err := compiler.Compile(bs.Generate(width, cfg.Seed+seedOffFig10Circuits), dev)
		if err != nil {
			b.Fatal(err)
		}
		results = append(results, r)
	}
	b.ReportAllocs()
	var sink float64
	for b.Loop() {
		for _, r := range results {
			for _, a := range assignments {
				sink += LogFidelity(r, a)
			}
		}
	}
	b.ReportMetric(float64(len(results)*len(assignments)), "scores/op")
	_ = sink
}

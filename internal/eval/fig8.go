package eval

import (
	"context"
	"sort"
	"sync/atomic"

	"chipletqc/internal/assembly"
	"chipletqc/internal/mcm"
	"chipletqc/internal/runner"
	"chipletqc/internal/topo"
	"chipletqc/internal/yield"
)

// Fig8Point is one MCM system's yield picture: its post-assembly yield
// at nominal and 100x bump-bond failure, alongside the monolithic yield
// at the same qubit count.
type Fig8Point struct {
	Grid         mcm.Grid
	Qubits       int
	ChipletYield float64 // collision-free yield of the base chiplet (Fig. 8b)
	MCMYield     float64 // post-assembly yield, nominal bonding
	MCMYield100x float64 // post-assembly yield, 100x bond failure (dashed)
	MonoYield    float64 // monolithic counterpart collision-free yield
	MonoTrials   int     // Monte Carlo trials behind MonoYield
	MonoCILo     float64 // 95% Wilson lower bound on MonoYield
	MonoCIHi     float64 // 95% Wilson upper bound on MonoYield
}

// Fig8Result is the full Fig. 8 dataset.
type Fig8Result struct {
	Points []Fig8Point
	// ChipletYields reports Fig. 8(b): collision-free yield per catalog
	// chiplet size.
	ChipletYields map[int]float64
	// Improvements is the paper's headline metric: per chiplet size, the
	// ratio of the group's average MCM yield to its average monolithic
	// yield, over systems whose monolithic counterpart yielded nonzero
	// (the paper excludes the 200q chiplet for exactly this reason).
	// Ratio-of-averages keeps near-zero monolithic outcomes from
	// dominating the statistic and reproduces the paper's 9.6-92.6x
	// band with improvement growing alongside chiplet size.
	Improvements map[int]float64
	// ExcludedChiplets lists chiplet sizes with no finite improvement
	// ratio (every counterpart had zero yield).
	ExcludedChiplets []int
}

// Fig8 runs the MCM-vs-monolithic yield comparison over every enumerated
// MCM system up to cfg.MaxQubits. The three stages — chiplet batch
// fabrication, monolithic yield simulation, and per-grid assembly — each
// fan out over cfg.Workers; every unit is independently seeded, so the
// result is identical at any worker count. Cancelling ctx aborts the
// run within one in-flight trial per worker and returns ctx.Err().
func Fig8(ctx context.Context, cfg Config) (Fig8Result, error) {
	cfg.det() // resolve the shared detuning model before fanning out
	catalog := cfg.catalog()
	grids := mcm.EnumerateGridsFrom(catalog, cfg.MaxQubits)

	// One fabrication batch per chiplet size, re-assembled per grid. The
	// worker budget splits between the per-size fan-out and the nested
	// per-die fabrication so total concurrency stays near cfg.Workers.
	fabOuter, fabInner := runner.Split(cfg.Workers, len(catalog))
	fabCfg := cfg
	fabCfg.Workers = fabInner
	var fabDone atomic.Int64
	batchList, err := runner.Map(ctx, len(catalog), fabOuter, func(i int) *assembly.Batch {
		// A nested cancellation surfaces through the outer Map's own
		// context check, so the per-batch error can be dropped here.
		b, _ := assembly.Fabricate(ctx, catalog[i].Spec, cfg.ChipletBatch, fabCfg.batchConfig(seedOffFig8Fabricate+int64(i)))
		cfg.progress("fig8/fabricate", int(fabDone.Add(1)), len(catalog))
		return b
	})
	if err != nil {
		return Fig8Result{}, err
	}
	batches := map[int]*assembly.Batch{}
	for i, cs := range catalog {
		batches[cs.Qubits] = batchList[i]
	}

	// Monolithic yields per distinct system size.
	var monoQubits []int
	seen := map[int]bool{}
	for _, g := range grids {
		if q := g.Qubits(); !seen[q] {
			seen[q] = true
			monoQubits = append(monoQubits, q)
		}
	}
	monoOuter, monoInner := runner.Split(cfg.Workers, len(monoQubits))
	var monoDone atomic.Int64
	monoList, err := runner.MapErr(ctx, len(monoQubits), monoOuter, func(i int) (yield.Result, error) {
		q := monoQubits[i]
		ycfg := cfg.yieldConfig(cfg.MonoBatch, cfg.Seed+seedOffFig8Mono+int64(q))
		ycfg.Workers = monoInner
		res, err := yield.Simulate(ctx, topo.MonolithicDevice(topo.MonolithicSpec(q)), ycfg)
		if err != nil {
			return yield.Result{}, err
		}
		cfg.progress("fig8/mono", int(monoDone.Add(1)), len(monoQubits))
		return res, nil
	})
	if err != nil {
		return Fig8Result{}, err
	}
	monoYield := map[int]yield.Result{}
	for i, q := range monoQubits {
		monoYield[q] = monoList[i]
	}

	res := Fig8Result{
		ChipletYields: map[int]float64{},
		Improvements:  map[int]float64{},
	}
	for q, b := range batches {
		res.ChipletYields[q] = b.Yield()
	}

	// Assembly is read-only on the shared batches, so grids fan out too.
	var asmDone atomic.Int64
	res.Points, err = runner.Map(ctx, len(grids), cfg.Workers, func(gi int) Fig8Point {
		g := grids[gi]
		b := batches[g.Spec.Qubits()]
		acfg := cfg.assembleConfig(seedOffFig8Assemble + int64(gi))
		_, st, _ := assembly.Assemble(ctx, b, g, acfg)
		// 100x bump-bond failure sensitivity (the paper's dashed line).
		y100 := st.AssemblyYield * assembly.BondSurvival(st.LinkedQubits, 100)
		mono := monoYield[g.Qubits()]
		cfg.progress("fig8/assemble", int(asmDone.Add(1)), len(grids))
		return Fig8Point{
			Grid:         g,
			Qubits:       g.Qubits(),
			ChipletYield: b.Yield(),
			MCMYield:     st.PostAssemblyYield,
			MCMYield100x: y100,
			MonoYield:    mono.Fraction(),
			MonoTrials:   mono.Batch,
			MonoCILo:     mono.CILo,
			MonoCIHi:     mono.CIHi,
		}
	})
	if err != nil {
		return Fig8Result{}, err
	}

	mcmYieldSums := map[int]float64{}
	monoYieldSums := map[int]float64{}
	improvementCounts := map[int]int{}
	for _, p := range res.Points {
		if p.MonoYield > 0 {
			q := p.Grid.Spec.Qubits()
			mcmYieldSums[q] += p.MCMYield
			monoYieldSums[q] += p.MonoYield
			improvementCounts[q]++
		}
	}

	for _, cs := range catalog {
		q := cs.Qubits
		if improvementCounts[q] > 0 && monoYieldSums[q] > 0 {
			res.Improvements[q] = mcmYieldSums[q] / monoYieldSums[q]
		} else {
			res.ExcludedChiplets = append(res.ExcludedChiplets, q)
		}
	}
	sort.Ints(res.ExcludedChiplets)
	sort.Slice(res.Points, func(i, j int) bool {
		a, b := res.Points[i], res.Points[j]
		if a.Grid.Spec.Qubits() != b.Grid.Spec.Qubits() {
			return a.Grid.Spec.Qubits() < b.Grid.Spec.Qubits()
		}
		return a.Qubits < b.Qubits
	})
	return res, nil
}

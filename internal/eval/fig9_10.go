package eval

import (
	"context"
	"fmt"
	"math"

	"chipletqc/internal/assembly"
	"chipletqc/internal/compiler"
	"chipletqc/internal/mcm"
	"chipletqc/internal/noise"
	"chipletqc/internal/qbench"
	"chipletqc/internal/runner"
	"chipletqc/internal/stats"
	"chipletqc/internal/topo"
)

// Fig9Ratios orders the Fig. 9 link-quality sweep: the state-of-art
// e_link/e_chip ~ 4.17 plus the projected improvements 3, 2, 1.
var Fig9Ratios = []string{"state-of-art", "ratio-3", "ratio-2", "ratio-1"}

// Fig9Cell is one heatmap cell: a square MCM's E_avg relative to its
// monolithic counterpart under one link-quality assumption.
type Fig9Cell struct {
	Grid     mcm.Grid
	Qubits   int
	EAvgMCM  float64
	EAvgMono float64
	// Ratio is E_avg,MCM / E_avg,Mono; < 1 means the MCM wins.
	Ratio float64
	// MonoAvailable is false when the monolithic counterpart had zero
	// collision-free yield (no comparison possible; the paper notes
	// these systems explicitly).
	MonoAvailable bool
}

// Fig9 computes the four heatmaps over the square MCM systems.
//
// The comparison follows the paper's Section VII-C2 semantics: the
// chiplet batch is scaled to the same wafer area as the monolithic batch
// (B * qm/qc dies), and "the devices in the collision-free monolithic
// yield" are compared against the same *number* of MCMs drawn best-first
// from the sorted, scaled bin. This equal-count comparison is what lets
// KGD post-selection ("speed binning") offset the higher link error:
// when monolithic yield is tiny, the matching MCM population is an elite
// slice of a much larger supply.
//
// Each ratio restarts the grid's link stream, so a ratio's cells do not
// depend on the ratios swept before it (fig10corr reads the
// state-of-art cells alone).
func Fig9(ctx context.Context, cfg Config) (map[string][]Fig9Cell, error) {
	grids := mcm.SquareGridsFrom(cfg.catalog(), cfg.MaxQubits)
	links := noise.LinkRatioModels(noise.ChipMeanInfidelity)
	links[Fig9Ratios[0]] = cfg.scn().Link // state of art = the scenario's own links

	// The link sweep within one grid stays serial because ResampleLinks
	// mutates the selected modules in ratio order.
	perGrid, err := fanOut(ctx, cfg, "fig9", len(grids), func(icfg Config, gi int) ([]Fig9Cell, error) {
		g := grids[gi]
		monoDev := topo.MonolithicDevice(g.MonolithicCounterpart())
		bc := icfg.batchConfig(seedOffFig9Mono + int64(gi))
		monoEavgs, err := assembly.Survivors(ctx, monoDev, icfg.MonoBatch, icfg.MonoBatch, bc, eavg(monoDev, bc.Det))
		if err != nil {
			return nil, err
		}
		monoMean := meanOrNaN(monoEavgs)

		// Equal-count population: the top-K MCMs (the bin is sorted, so
		// assembly order is best-first) against the K monolithic
		// survivors, so assembly stops at K. With zero monolithic yield
		// every MCM stands alone (want 0 assembles them all).
		sel, err := icfg.waferScaledMCMs(ctx, g, seedOffFig9Fabricate+int64(gi), seedOffFig9Assemble+int64(gi), icfg.scn().Link, len(monoEavgs))
		if err != nil {
			return nil, err
		}

		cells := make([]Fig9Cell, 0, len(Fig9Ratios))
		for _, name := range Fig9Ratios {
			r := runner.Rand(icfg.Seed+seedOffFig9Links, gi)
			var eavgs []float64
			for _, m := range sel {
				m.ResampleLinks(r, links[name])
				eavgs = append(eavgs, m.EAvg())
			}
			mcmMean := meanOrNaN(eavgs)
			cells = append(cells, Fig9Cell{
				Grid:          g,
				Qubits:        g.Qubits(),
				EAvgMCM:       mcmMean,
				EAvgMono:      monoMean,
				Ratio:         mcmMean / monoMean, // NaN when either side is empty
				MonoAvailable: len(monoEavgs) > 0,
			})
		}
		return cells, nil
	})
	if err != nil {
		return nil, err
	}

	out := map[string][]Fig9Cell{}
	for _, cells := range perGrid {
		for i, name := range Fig9Ratios {
			out[name] = append(out[name], cells[i])
		}
	}
	return out, nil
}

// Fig10Point is one benchmark evaluated on one MCM system against its
// monolithic counterpart.
type Fig10Point struct {
	Grid   mcm.Grid
	Qubits int
	Bench  string
	// LogRatio is ln(F_MCM / F_mono) using mean log fidelity products;
	// positive means the MCM wins. +Inf marks systems whose monolithic
	// counterpart had zero yield (the paper's red X markers).
	LogRatio float64
	// TwoQ is the compiled two-qubit gate count on the MCM, used to
	// normalise LogRatio into a per-gate advantage.
	TwoQ     int
	MonoZero bool
	Square   bool
}

// Ratio returns the fidelity ratio F_MCM / F_mono.
func (p Fig10Point) Ratio() float64 { return math.Exp(p.LogRatio) }

// Fig10 evaluates the benchmark suite on the given MCM systems.
// samples bounds the device instances averaged per architecture.
// Systems fan out over cfg.Workers; a compile failure on any system
// cancels the remaining work and the lowest-indexed error is returned,
// so both results and errors are deterministic at any worker count.
func Fig10(ctx context.Context, cfg Config, grids []mcm.Grid, samples int) ([]Fig10Point, error) {
	if samples < 1 {
		samples = 3
	}
	perGrid, err := fanOut(ctx, cfg, "fig10", len(grids), func(icfg Config, gi int) ([]Fig10Point, error) {
		return fig10System(ctx, icfg, grids[gi], gi, samples)
	})
	if err != nil {
		return nil, err
	}
	var out []Fig10Point
	for _, pts := range perGrid {
		out = append(out, pts...)
	}
	return out, nil
}

// fig10System evaluates the benchmark suite on one MCM system against
// its monolithic counterpart.
func fig10System(ctx context.Context, cfg Config, g mcm.Grid, gi, samples int) ([]Fig10Point, error) {
	var out []Fig10Point
	// MCM side: the best `samples` wafer-scaled modules (equal-count
	// selection, matching the Fig. 9 comparison semantics).
	mods, err := cfg.waferScaledMCMs(ctx, g, seedOffFig10Fabricate+int64(gi), seedOffFig10Assemble+int64(gi), cfg.linkModel(), samples)
	if err != nil {
		return nil, err
	}
	mcmDev := mcm.MustBuild(g)
	chip := topo.BuildChip(g.Spec)

	// Monolithic side: the first `samples` collision-free instances,
	// with their full per-coupling error maps.
	monoDev := topo.MonolithicDevice(g.MonolithicCounterpart())
	bc := cfg.batchConfig(seedOffFig10Mono + int64(gi))
	monoAssignments, err := assembly.Survivors(ctx, monoDev, cfg.MonoBatch, samples, bc, assign(monoDev, bc.Det, cfg.scn().Link))
	if err != nil {
		return nil, err
	}

	// Link-aware routing penalises seam crossings by the scenario's
	// link/chip error ratio when enabled.
	var mcmOpts compiler.Options
	if cfg.LinkAwareRouting {
		mcmOpts.EdgeCost = compiler.LinkAwareCost(mcmDev,
			cfg.linkModel().Mean()/noise.ChipMeanInfidelity)
	}

	width := qbench.UtilizedQubits(g.Qubits())
	for _, bs := range qbench.Suite() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		circ := bs.Generate(width, cfg.Seed+seedOffFig10Circuits)
		mcmRes, err := compiler.CompileWithOptions(circ, mcmDev, mcmOpts)
		if err != nil {
			return nil, fmt.Errorf("fig10 %v %s (mcm): %w", g, bs.Short, err)
		}
		var mcmLogs []float64
		for _, m := range mods {
			mcmLogs = append(mcmLogs, LogFidelity(mcmRes, m.Errors(mcmDev, chip)))
		}
		p := Fig10Point{
			Grid:   g,
			Qubits: g.Qubits(),
			Bench:  bs.Short,
			TwoQ:   mcmRes.Counts.TwoQ,
			Square: g.Rows == g.Cols,
		}
		if len(monoAssignments) == 0 {
			p.MonoZero = true
			p.LogRatio = math.Inf(1)
		} else {
			monoRes, err := compiler.Compile(circ, monoDev)
			if err != nil {
				return nil, fmt.Errorf("fig10 %v %s (mono): %w", g, bs.Short, err)
			}
			var monoLogs []float64
			for _, a := range monoAssignments {
				monoLogs = append(monoLogs, LogFidelity(monoRes, a))
			}
			if len(mcmLogs) == 0 {
				p.LogRatio = math.NaN()
			} else {
				p.LogRatio = stats.Mean(mcmLogs) - stats.Mean(monoLogs)
			}
		}
		out = append(out, p)
	}
	return out, nil
}

package main

import (
	"context"
	"fmt"
	"math"
	"sort"

	"chipletqc/internal/assembly"
	"chipletqc/internal/circuit"
	"chipletqc/internal/collision"
	"chipletqc/internal/compiler"
	"chipletqc/internal/eval"
	"chipletqc/internal/experiment"
	"chipletqc/internal/mcm"
	"chipletqc/internal/noise"
	"chipletqc/internal/qbench"
	"chipletqc/internal/report"
	"chipletqc/internal/runner"
	"chipletqc/internal/stats"
	"chipletqc/internal/topo"
	"chipletqc/internal/yield"
)

// A replay re-runs one registry experiment as the same sequence of
// calls into the program's layers that the experiment makes, with a
// span around each call, and renders the same artifact. Traced ops use
// replays so the per-layer numbers come from the workload itself; the
// artifact digest must equal the untraced run's, which proves the
// replay did the experiment's work and no other.
//
// The sub-stream seed offsets are the frozen values of
// internal/eval/seeds.go; a replay that drifted from them would fail
// the digest check.
const (
	seedOffFig4Sweep      = 400
	seedOffTable2Circuits = 800
	seedOffFig8Fabricate  = 1100
	seedOffFig8Mono       = 1200
	seedOffFig8Assemble   = 1300
	seedOffFig9Fabricate  = 2100
	seedOffFig9Assemble   = 2200
	seedOffFig9Mono       = 2300
	seedOffFig9Links      = 2400
	seedOffFig10Fabricate = 3100
	seedOffFig10Assemble  = 3200
	seedOffFig10Mono      = 3300
	seedOffFig10Circuits  = 3400
	seedOffDetuningModel  = 1000003
)

type replayFunc func(ctx context.Context, s scope, cfg eval.Config) (*report.Table, int, error)

// replays maps registry names to their layer-by-layer replays.
var replays = map[string]replayFunc{
	"table2":    replayTable2,
	"fig10":     replayFig10,
	"fig10corr": replayFig10Corr,
	"fig4":      replayFig4,
	"fig8":      replayFig8,
	"fig9":      replayFig9,
}

// runExperiment runs registry experiment e under cfg. With a tracer it
// opens an experiment span named label and replays e when a replay
// exists (otherwise the whole experiment is one span).
func runExperiment(ctx context.Context, s *scope, label string, e experiment.Experiment, cfg eval.Config) (experiment.Artifact, error) {
	if s == nil {
		return e.Run(ctx, cfg)
	}
	es := s.child("experiment." + label)
	defer es.done()
	replay, ok := replays[e.Name()]
	if !ok {
		return e.Run(ctx, cfg)
	}
	tb, trials, err := replay(ctx, es, cfg)
	if err != nil {
		return experiment.Artifact{}, fmt.Errorf("replay %s: %w", e.Name(), err)
	}
	scn := cfg.ResolvedScenario()
	return experiment.Artifact{
		Name:                e.Name(),
		Description:         e.Describe(),
		Seed:                cfg.Seed,
		Scenario:            scn.Name,
		ScenarioFingerprint: scn.Fingerprint(),
		Fingerprint:         experiment.Fingerprint(cfg),
		Trials:              trials,
		Payload:             tb,
	}, nil
}

// detuning builds the scenario's detuning model the way an experiment
// resolves it on first use.
func detuning(s scope, cfg eval.Config) *noise.DetuningModel {
	return timed(s, "noise.detuning_model", func() *noise.DetuningModel {
		return cfg.ResolvedScenario().DetuningModel(cfg.Seed + seedOffDetuningModel)
	})
}

func fabricate(ctx context.Context, s scope, spec topo.ChipSpec, size int, bc assembly.BatchConfig) (*assembly.Batch, error) {
	c := s.child("assembly.fabricate")
	b, err := assembly.Fabricate(ctx, spec, size, bc)
	c.done()
	if err == nil {
		s.t.add("assembly.dies", float64(b.Size))
		s.t.add("assembly.kgd", float64(len(b.Free)))
	}
	return b, err
}

func assemble(ctx context.Context, s scope, b *assembly.Batch, g mcm.Grid, ac assembly.AssembleConfig) ([]*assembly.AssembledMCM, assembly.Stats, error) {
	c := s.child("assembly.assemble")
	mods, st, err := assembly.Assemble(ctx, b, g, ac)
	c.done()
	s.t.add("assembly.mcms", float64(len(mods)))
	return mods, st, err
}

func simulate(ctx context.Context, s scope, d *topo.Device, yc yield.Config) (yield.Result, error) {
	c := s.child("yield.simulate")
	res, err := yield.Simulate(ctx, d, yc)
	c.done()
	s.t.add("yield.trials", float64(res.Batch))
	return res, err
}

func compile(s scope, c *circuit.Circuit, dev *topo.Device, opts compiler.Options) (*compiler.Result, error) {
	cs := s.child("compiler.compile")
	r, err := compiler.CompileWithOptions(c, dev, opts)
	cs.done()
	if err == nil {
		s.t.add("compiler.swaps", float64(r.SwapsInserted))
		s.t.add("circuit.compiled_2q_gates", float64(r.Counts.TwoQ))
	}
	return r, err
}

func logFidelity(s scope, r *compiler.Result, a noise.Assignment) float64 {
	return timed(s, "eval.logfidelity", func() float64 { return eval.LogFidelity(r, a) })
}

// yieldConfig mirrors eval's per-run yield configuration.
func yieldConfig(cfg eval.Config, batch int, seed int64) yield.Config {
	yc := cfg.ResolvedScenario().YieldConfig(batch, seed)
	yc.Workers = cfg.Workers
	yc.Precision = cfg.Precision
	yc.MaxTrials = cfg.MaxTrials
	yc.RelPrecision = cfg.RelPrecision
	yc.Sampling = cfg.Sampling
	return yc
}

// population fabricates a monolithic batch through fab.Model.SampleInto
// and collision.Checker.Free and returns the collision-free devices'
// mean sampled two-qubit error (eval's monoPopulation loop).
func population(ctx context.Context, s scope, cfg eval.Config, det *noise.DetuningModel, spec topo.ChipSpec, batch int, seed int64) ([]float64, error) {
	c := s.child("eval.population")
	defer c.done()
	scn := cfg.ResolvedScenario()
	dev := topo.MonolithicDevice(spec)
	checker := collision.NewChecker(dev, scn.Params)
	edges := dev.G.Edges()
	samples, err := runner.MapLocal(ctx, batch, cfg.Workers, runner.NewScratch(dev.N),
		func(l runner.Scratch, i int) float64 {
			r := l.RNG.At(seed, i)
			scn.Fab.SampleInto(r, dev, l.Buf)
			if !checker.Free(l.Buf) {
				return math.NaN()
			}
			var sum float64
			for _, e := range edges {
				sum += det.Sample(r, l.Buf[e.U]-l.Buf[e.V])
			}
			if len(edges) == 0 {
				return 0
			}
			return sum / float64(len(edges))
		})
	if err != nil {
		return nil, err
	}
	var out []float64
	for _, v := range samples {
		if !math.IsNaN(v) {
			out = append(out, v)
		}
	}
	return out, nil
}

// instances scans monolithic devices until want collision-free ones are
// found and returns their error assignments (eval's monoInstances).
func instances(ctx context.Context, s scope, cfg eval.Config, det *noise.DetuningModel, dev *topo.Device, want int, seed int64) ([]noise.Assignment, error) {
	if want <= 0 || cfg.MonoBatch <= 0 {
		return nil, ctx.Err()
	}
	c := s.child("eval.population")
	defer c.done()
	scn := cfg.ResolvedScenario()
	checker := collision.NewChecker(dev, scn.Params)
	chunk := runner.Workers(cfg.Workers, cfg.MonoBatch) * 32
	var out []noise.Assignment
	for lo := 0; lo < cfg.MonoBatch && len(out) < want; lo += chunk {
		hi := min(lo+chunk, cfg.MonoBatch)
		found, err := runner.MapLocal(ctx, hi-lo, cfg.Workers, runner.NewScratch(dev.N),
			func(l runner.Scratch, j int) *noise.Assignment {
				r := l.RNG.At(seed, lo+j)
				scn.Fab.SampleInto(r, dev, l.Buf)
				if !checker.Free(l.Buf) {
					return nil
				}
				a := noise.Assign(r, dev, l.Buf, det, scn.Link)
				return &a
			})
		if err != nil {
			return nil, err
		}
		for _, a := range found {
			if a != nil {
				out = append(out, *a)
				if len(out) == want {
					break
				}
			}
		}
	}
	return out, nil
}

func meanOrNaN(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return stats.Mean(xs)
}

// gridTrials is the experiment catalog's scheduled-trials formula for
// the Fig. 9/10 pipelines.
func gridTrials(cfg eval.Config, grids []mcm.Grid) int {
	total := 0
	for _, g := range grids {
		total += cfg.ChipletBatch*g.Chips() + cfg.MonoBatch
	}
	return total
}

// --- Table II ----------------------------------------------------------------

func replayTable2(ctx context.Context, s scope, cfg eval.Config) (*report.Table, int, error) {
	tb := report.New("Table II: compiled benchmark details",
		"chiplet", "dim", "qubits", "bench", "1q", "2q", "2q_critical")
	for _, cq := range eval.Table2Chiplets {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		spec, err := cfg.ResolvedScenario().SpecForQubits(cq)
		if err != nil {
			return nil, 0, err
		}
		grid := mcm.Grid{Rows: 2, Cols: 2, Spec: spec}
		dev := timed(s, "mcm.build", func() *topo.Device { return mcm.MustBuild(grid) })
		width := qbench.UtilizedQubits(dev.N)
		for _, bs := range qbench.Suite() {
			c := timed(s, "qbench.generate", func() *circuit.Circuit { return bs.Generate(width, cfg.Seed+seedOffTable2Circuits) })
			// Table II compiles serially, so the process-wide allocation
			// counter read around the call is the compiler's own.
			before := heapAllocs()
			r, err := compile(s, c, dev, compiler.Options{})
			s.t.add("compiler.serial_alloc_bytes", float64(heapAllocs()-before))
			if err != nil {
				return nil, 0, fmt.Errorf("table II %dq %s: %w", cq, bs.Short, err)
			}
			tb.Add(cq, "2x2", dev.N, bs.Short, r.Counts.OneQ, r.Counts.TwoQ, r.Counts.TwoQCritical)
		}
	}
	return tb, 0, nil
}

// --- Fig. 10 -----------------------------------------------------------------

func replayFig10(ctx context.Context, s scope, cfg eval.Config) (*report.Table, int, error) {
	grids := mcm.EnumerateGridsFrom(cfg.ResolvedScenario().Catalog, cfg.MaxQubits)
	pts, err := fig10(ctx, s, cfg, grids, cfg.Fig10Samples)
	if err != nil {
		return nil, 0, err
	}
	tb := report.New("Fig. 10: benchmark fidelity ratio MCM/monolithic",
		"chiplet", "dim", "qubits", "bench", "log_ratio", "square", "note")
	for _, p := range pts {
		logS, note := report.F(p.LogRatio, 3), ""
		if p.MonoZero {
			logS, note = "+inf", "mono 0% yield (red X)"
		} else if math.IsNaN(p.LogRatio) {
			logS, note = "nan", "no MCM instances"
		}
		tb.Add(p.Grid.Spec.Qubits(), fmt.Sprintf("%dx%d", p.Grid.Rows, p.Grid.Cols),
			p.Qubits, p.Bench, logS, p.Square, note)
	}
	return tb, gridTrials(cfg, grids), nil
}

func fig10(ctx context.Context, s scope, cfg eval.Config, grids []mcm.Grid, samples int) ([]eval.Fig10Point, error) {
	if samples < 1 {
		samples = 3
	}
	det := detuning(s, cfg)
	outer, inner := runner.Split(cfg.Workers, len(grids))
	icfg := cfg
	icfg.Workers = inner
	perGrid, err := runner.MapErr(ctx, len(grids), outer, func(gi int) ([]eval.Fig10Point, error) {
		u := s.child("unit.fig10_system")
		defer u.done()
		return fig10System(ctx, u, icfg, grids[gi], gi, samples, det)
	})
	if err != nil {
		return nil, err
	}
	var out []eval.Fig10Point
	for _, pts := range perGrid {
		out = append(out, pts...)
	}
	return out, nil
}

func fig10System(ctx context.Context, s scope, cfg eval.Config, g mcm.Grid, gi, samples int, det *noise.DetuningModel) ([]eval.Fig10Point, error) {
	scn := cfg.ResolvedScenario()
	b, err := fabricate(ctx, s, g.Spec, cfg.ChipletBatch*g.Chips(), scn.BatchConfig(cfg.Seed+seedOffFig10Fabricate+int64(gi), det, cfg.Workers))
	if err != nil {
		return nil, err
	}
	acfg := scn.AssembleConfig(cfg.Seed + seedOffFig10Assemble + int64(gi))
	link := scn.Link
	if cfg.LinkMean != nil {
		link = link.WithMean(*cfg.LinkMean)
	}
	acfg.Link = link
	mods, _, err := assemble(ctx, s, b, g, acfg)
	if err != nil {
		return nil, err
	}
	if len(mods) > samples {
		mods = mods[:samples]
	}
	mcmDev := timed(s, "mcm.build", func() *topo.Device { return mcm.MustBuild(g) })
	chip := topo.BuildChip(g.Spec)
	monoDev := topo.MonolithicDevice(g.MonolithicCounterpart())
	monoAssignments, err := instances(ctx, s, cfg, det, monoDev, samples, cfg.Seed+seedOffFig10Mono+int64(gi))
	if err != nil {
		return nil, err
	}
	var mcmOpts compiler.Options
	if cfg.LinkAwareRouting {
		mcmOpts.EdgeCost = compiler.LinkAwareCost(mcmDev, link.Mean()/noise.ChipMeanInfidelity)
	}
	width := qbench.UtilizedQubits(g.Qubits())
	var out []eval.Fig10Point
	for _, bs := range qbench.Suite() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		circ := timed(s, "qbench.generate", func() *circuit.Circuit { return bs.Generate(width, cfg.Seed+seedOffFig10Circuits) })
		mcmRes, err := compile(s, circ, mcmDev, mcmOpts)
		if err != nil {
			return nil, fmt.Errorf("fig10 %v %s (mcm): %w", g, bs.Short, err)
		}
		var mcmLogs []float64
		for _, m := range mods {
			a := timed(s, "assembly.errors", func() noise.Assignment { return m.Errors(mcmDev, chip) })
			mcmLogs = append(mcmLogs, logFidelity(s, mcmRes, a))
		}
		p := eval.Fig10Point{Grid: g, Qubits: g.Qubits(), Bench: bs.Short, TwoQ: mcmRes.Counts.TwoQ, Square: g.Rows == g.Cols}
		if len(monoAssignments) == 0 {
			p.MonoZero = true
			p.LogRatio = math.Inf(1)
		} else {
			monoRes, err := compile(s, circ, monoDev, compiler.Options{})
			if err != nil {
				return nil, fmt.Errorf("fig10 %v %s (mono): %w", g, bs.Short, err)
			}
			var monoLogs []float64
			for _, a := range monoAssignments {
				monoLogs = append(monoLogs, logFidelity(s, monoRes, a))
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

// --- Fig. 9 and the Fig. 10(b) correlation -------------------------------------

func replayFig9(ctx context.Context, s scope, cfg eval.Config) (*report.Table, int, error) {
	res, err := fig9(ctx, s, cfg, eval.Fig9Ratios)
	if err != nil {
		return nil, 0, err
	}
	tb := report.New("Fig. 9: E_avg,MCM / E_avg,Mono heatmaps (square MCMs)",
		"link_quality", "chiplet", "dim", "qubits", "ratio")
	for _, name := range eval.Fig9Ratios {
		for _, c := range res[name] {
			ratio := "n/a (mono 0%)"
			if c.MonoAvailable && !math.IsNaN(c.Ratio) {
				ratio = report.F(c.Ratio, 4)
			}
			tb.Add(name, c.Grid.Spec.Qubits(), fmt.Sprintf("%dx%d", c.Grid.Rows, c.Grid.Cols), c.Qubits, ratio)
		}
	}
	return tb, gridTrials(cfg, mcm.SquareGridsFrom(cfg.ResolvedScenario().Catalog, cfg.MaxQubits)), nil
}

func fig9(ctx context.Context, s scope, cfg eval.Config, ratios []string) (map[string][]eval.Fig9Cell, error) {
	det := detuning(s, cfg)
	scn := cfg.ResolvedScenario()
	grids := mcm.SquareGridsFrom(scn.Catalog, cfg.MaxQubits)
	links := noise.LinkRatioModels(noise.ChipMeanInfidelity)
	links[eval.Fig9Ratios[0]] = scn.Link
	outer, inner := runner.Split(cfg.Workers, len(grids))
	icfg := cfg
	icfg.Workers = inner
	perGrid, err := runner.MapErr(ctx, len(grids), outer, func(gi int) ([]eval.Fig9Cell, error) {
		u := s.child("unit.fig9_system")
		defer u.done()
		return fig9System(ctx, u, icfg, det, grids[gi], gi, ratios, links)
	})
	if err != nil {
		return nil, err
	}
	out := map[string][]eval.Fig9Cell{}
	for _, cells := range perGrid {
		for i, name := range ratios {
			out[name] = append(out[name], cells[i])
		}
	}
	return out, nil
}

func fig9System(ctx context.Context, s scope, cfg eval.Config, det *noise.DetuningModel, g mcm.Grid, gi int, ratios []string, links map[string]noise.LinkModel) ([]eval.Fig9Cell, error) {
	scn := cfg.ResolvedScenario()
	b, err := fabricate(ctx, s, g.Spec, cfg.ChipletBatch*g.Chips(), scn.BatchConfig(cfg.Seed+seedOffFig9Fabricate+int64(gi), det, cfg.Workers))
	if err != nil {
		return nil, err
	}
	mods, _, err := assemble(ctx, s, b, g, scn.AssembleConfig(cfg.Seed+seedOffFig9Assemble+int64(gi)))
	if err != nil {
		return nil, err
	}
	monoEavgs, err := population(ctx, s, cfg, det, g.MonolithicCounterpart(), cfg.MonoBatch, cfg.Seed+seedOffFig9Mono+int64(gi))
	if err != nil {
		return nil, err
	}
	monoMean := meanOrNaN(monoEavgs)
	sel := mods
	if k := len(monoEavgs); k > 0 && k < len(sel) {
		sel = sel[:k]
	}
	cells := make([]eval.Fig9Cell, 0, len(ratios))
	for _, name := range ratios {
		r := runner.Rand(cfg.Seed+seedOffFig9Links, gi)
		eavgs := timed(s, "assembly.resample_links", func() []float64 {
			var eavgs []float64
			for _, m := range sel {
				m.ResampleLinks(r, links[name])
				eavgs = append(eavgs, m.EAvg())
			}
			return eavgs
		})
		cell := eval.Fig9Cell{Grid: g, Qubits: g.Qubits(), EAvgMCM: meanOrNaN(eavgs), EAvgMono: monoMean, MonoAvailable: len(monoEavgs) > 0}
		if cell.MonoAvailable && !math.IsNaN(cell.EAvgMCM) {
			cell.Ratio = cell.EAvgMCM / cell.EAvgMono
		} else {
			cell.Ratio = math.NaN()
		}
		cells = append(cells, cell)
	}
	return cells, nil
}

func replayFig10Corr(ctx context.Context, s scope, cfg eval.Config) (*report.Table, int, error) {
	res, err := fig9(ctx, s, cfg, eval.Fig9Ratios[:1])
	if err != nil {
		return nil, 0, err
	}
	grids := mcm.SquareGridsFrom(cfg.ResolvedScenario().Catalog, cfg.MaxQubits)
	pts, err := fig10(ctx, s, cfg, grids, cfg.Fig10Samples)
	if err != nil {
		return nil, 0, err
	}
	corr := eval.Fig10Correlation(res[eval.Fig9Ratios[0]], pts)
	tb := report.New("Fig. 10(b) correlation: E_avg ratio vs per-gate application advantage (square MCMs)",
		"system", "eavg_ratio", "per_gate_log_ratio")
	for i, sys := range corr.Systems {
		tb.Add(sys, report.F(corr.EAvgRatio[i], 4), fmt.Sprintf("%.3g", corr.LogRatio[i]))
	}
	tb.Add("", "", "")
	tb.Add("spearman", report.F(corr.Spearman, 3), "")
	tb.Add("pearson", report.F(corr.Pearson, 3), "")
	return tb, 2 * gridTrials(cfg, grids), nil
}

// --- Fig. 4 and Fig. 8 ---------------------------------------------------------

func replayFig4(ctx context.Context, s scope, cfg eval.Config) (*report.Table, int, error) {
	maxQubits := cfg.Fig4MaxQubits
	if maxQubits <= 0 {
		maxQubits = 1000
	}
	yc := yieldConfig(cfg, cfg.MonoBatch, cfg.Seed+seedOffFig4Sweep)
	sizes := yield.SizeLadder(maxQubits)
	steps, sigmas := eval.Fig4Steps, eval.Fig4Sigmas
	// yield.Sweep's fan-out: cells, then sizes within a cell.
	outer, inner := runner.Split(yc.Workers, len(steps)*len(sigmas))
	cells, err := runner.Map(ctx, len(steps)*len(sigmas), outer, func(i int) yield.SweepCell {
		c := yc
		c.Workers = inner
		c.Model.Plan.Step = steps[i/len(sigmas)]
		c.Model.Sigma = sigmas[i%len(sigmas)]
		o2, i2 := runner.Split(c.Workers, len(sizes))
		ic := c
		ic.Workers = i2
		points, _ := runner.Map(ctx, len(sizes), o2, func(j int) yield.Point {
			d := topo.MonolithicDevice(topo.MonolithicSpec(sizes[j]))
			res, _ := simulate(ctx, s, d, ic)
			return yield.Point{Qubits: d.N, Yield: res.Fraction(), Trials: res.Batch, CILo: res.CILo, CIHi: res.CIHi}
		})
		return yield.SweepCell{Step: c.Model.Plan.Step, Sigma: c.Model.Sigma, Points: points}
	})
	if err != nil {
		return nil, 0, err
	}
	tb := report.New("Fig. 4: collision-free yield vs qubits",
		"step_GHz", "sigma_GHz", "qubits", "yield", "trials", "ci_lo", "ci_hi")
	trials := 0
	for _, c := range cells {
		for _, p := range c.Points {
			trials += p.Trials
			tb.Add(report.F(c.Step, 3), report.F(c.Sigma, 4), p.Qubits, report.F(p.Yield, 4),
				p.Trials, report.F(p.CILo, 4), report.F(p.CIHi, 4))
		}
	}
	return tb, trials, nil
}

func replayFig8(ctx context.Context, s scope, cfg eval.Config) (*report.Table, int, error) {
	det := detuning(s, cfg)
	scn := cfg.ResolvedScenario()
	catalog := scn.Catalog
	grids := mcm.EnumerateGridsFrom(catalog, cfg.MaxQubits)

	fabOuter, fabInner := runner.Split(cfg.Workers, len(catalog))
	batchList, err := runner.Map(ctx, len(catalog), fabOuter, func(i int) *assembly.Batch {
		b, _ := fabricate(ctx, s, catalog[i].Spec, cfg.ChipletBatch, scn.BatchConfig(cfg.Seed+seedOffFig8Fabricate+int64(i), det, fabInner))
		return b
	})
	if err != nil {
		return nil, 0, err
	}
	batches := map[int]*assembly.Batch{}
	for i, cs := range catalog {
		batches[cs.Qubits] = batchList[i]
	}

	var monoQubits []int
	seen := map[int]bool{}
	for _, g := range grids {
		if q := g.Qubits(); !seen[q] {
			seen[q] = true
			monoQubits = append(monoQubits, q)
		}
	}
	monoOuter, monoInner := runner.Split(cfg.Workers, len(monoQubits))
	monoList, err := runner.Map(ctx, len(monoQubits), monoOuter, func(i int) yield.Result {
		q := monoQubits[i]
		yc := yieldConfig(cfg, cfg.MonoBatch, cfg.Seed+seedOffFig8Mono+int64(q))
		yc.Workers = monoInner
		res, _ := simulate(ctx, s, topo.MonolithicDevice(topo.MonolithicSpec(q)), yc)
		return res
	})
	if err != nil {
		return nil, 0, err
	}
	monoYield := map[int]yield.Result{}
	for i, q := range monoQubits {
		monoYield[q] = monoList[i]
	}

	points, err := runner.Map(ctx, len(grids), cfg.Workers, func(gi int) eval.Fig8Point {
		g := grids[gi]
		b := batches[g.Spec.Qubits()]
		_, st, _ := assemble(ctx, s, b, g, scn.AssembleConfig(cfg.Seed+seedOffFig8Assemble+int64(gi)))
		mono := monoYield[g.Qubits()]
		return eval.Fig8Point{
			Grid: g, Qubits: g.Qubits(), ChipletYield: b.Yield(),
			MCMYield: st.PostAssemblyYield, MCMYield100x: st.AssemblyYield * assembly.BondSurvival(st.LinkedQubits, 100),
			MonoYield: mono.Fraction(), MonoTrials: mono.Batch, MonoCILo: mono.CILo, MonoCIHi: mono.CIHi,
		}
	})
	if err != nil {
		return nil, 0, err
	}
	trials := fig8Trials(points, catalog, cfg.ChipletBatch)
	return fig8Table(points, catalog), trials, nil
}

// fig8Table renders Fig. 8 as eval.Fig8 and the experiment catalog do:
// improvements over the unsorted points, rows in eval's sort order.
func fig8Table(points []eval.Fig8Point, catalog []topo.ChipletSize) *report.Table {
	mcmSums, monoSums, counts := map[int]float64{}, map[int]float64{}, map[int]int{}
	for _, p := range points {
		if p.MonoYield > 0 {
			q := p.Grid.Spec.Qubits()
			mcmSums[q] += p.MCMYield
			monoSums[q] += p.MonoYield
			counts[q]++
		}
	}
	sort.Slice(points, func(i, j int) bool {
		a, b := points[i], points[j]
		if a.Grid.Spec.Qubits() != b.Grid.Spec.Qubits() {
			return a.Grid.Spec.Qubits() < b.Grid.Spec.Qubits()
		}
		return a.Qubits < b.Qubits
	})
	tb := report.New("Fig. 8: yield vs qubits, MCM (nominal and 100x bond failure) vs monolithic",
		"chiplet", "dim", "qubits", "chiplet_yield", "mcm_yield", "mcm_yield_100x", "mono_yield",
		"mono_trials", "mono_ci_lo", "mono_ci_hi")
	for _, p := range points {
		tb.Add(p.Grid.Spec.Qubits(), fmt.Sprintf("%dx%d", p.Grid.Rows, p.Grid.Cols),
			p.Qubits, report.F(p.ChipletYield, 4), report.F(p.MCMYield, 4),
			report.F(p.MCMYield100x, 4), report.F(p.MonoYield, 4),
			p.MonoTrials, report.F(p.MonoCILo, 4), report.F(p.MonoCIHi, 4))
	}
	tb.Add("", "", "", "", "", "", "", "", "", "")
	for _, cs := range catalog {
		q := cs.Qubits
		if counts[q] > 0 && monoSums[q] > 0 {
			tb.Add(q, "avg-improvement", "", "", report.F(mcmSums[q]/monoSums[q], 2)+"x", "", "", "", "", "")
		} else {
			tb.Add(q, "avg-improvement", "", "", "inf (mono 0%)", "", "", "", "", "")
		}
	}
	return tb
}

// fig8Trials is the catalog's Fig. 8 trial count: every chiplet batch
// plus each distinct monolithic size's executed trials.
func fig8Trials(points []eval.Fig8Point, catalog []topo.ChipletSize, chipletBatch int) int {
	trials := chipletBatch * len(catalog)
	seen := map[int]bool{}
	for _, p := range points {
		if !seen[p.Qubits] {
			seen[p.Qubits] = true
			trials += p.MonoTrials
		}
	}
	return trials
}

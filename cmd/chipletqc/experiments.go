package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	analyticpkg "chipletqc/internal/analytic"
	"chipletqc/internal/assembly"
	"chipletqc/internal/cli"
	"chipletqc/internal/eval"
	"chipletqc/internal/experiment"
	"chipletqc/internal/fab"
	"chipletqc/internal/mcm"
	"chipletqc/internal/report"
	"chipletqc/internal/runner"
	"chipletqc/internal/scenario"
	"chipletqc/internal/topo"
	"chipletqc/internal/yield"
)

// scenarioFlag declares -scenario.
func scenarioFlag(fs *flag.FlagSet) *string {
	return fs.String("scenario", scenario.PaperName, "device scenario to run under (see `chipletqc run -scenarios`)")
}

// setIfPositive overrides *dst with v when v > 0: a size flag's 0
// keeps the config's value.
func setIfPositive(dst *int, v int) {
	if v > 0 {
		*dst = v
	}
}

// runFlags declares the run verb: experiments from the registry, by
// default every figure and table of the paper's evaluation section,
// each written as <name>.txt (and <name>.json with -json) into -out, or
// rendered to stdout with -out -.
func runFlags(fs *flag.FlagSet) action {
	var (
		outDir   = fs.String("out", "results", "output directory (- = render to stdout)")
		quick    = fs.Bool("quick", false, "reduced Monte Carlo batches")
		scen     = scenarioFlag(fs)
		scenList = fs.Bool("scenarios", false, "list registered device scenarios and exit")
		trial    = cli.TrialFlags(fs, cli.Seed|cli.Workers|cli.Policy)
		list     = fs.Bool("list", false, "list registered experiments and exit")
		only     = fs.String("only", "", "comma-separated experiment names to run (default: all)")
		jsonOut  = fs.Bool("json", false, "additionally write the Artifact JSON record per experiment")
		progress = fs.Bool("progress", false, "stream per-experiment trial counts to the error stream")
		batch    = fs.Int("batch", 0, "chiplet fabrication batch size (0 = the config's)")
		mono     = fs.Int("mono", 0, "monolithic Monte Carlo batch size (0 = the config's)")
		maxQ     = fs.Int("max", 0, "largest system size (0 = the config's: 500, or 200 with -quick)")
		samples  = fs.Int("samples", 0, "Fig. 10 device instances averaged per architecture (0 = the config's)")
		csv      = fs.Bool("csv", false, "render artifacts as CSV (<name>.csv) instead of text")
	)
	return func(ctx context.Context, _ string, out, errw io.Writer) error {
		if err := cli.AtLeast(fs, 0, "batch", "mono", "max", "samples"); err != nil {
			return err
		}
		if *list {
			fmt.Fprintf(out, "%-12s %s\n", "NAME", "DESCRIPTION")
			for _, e := range experiment.All() {
				fmt.Fprintf(out, "%-12s %s\n", e.Name(), e.Describe())
			}
			return nil
		}
		if *scenList {
			fmt.Fprintf(out, "%-20s %-14s %s\n", "NAME", "FINGERPRINT", "DESCRIPTION")
			for _, s := range scenario.All() {
				fmt.Fprintf(out, "%-20s %-14s %s\n", s.Name, s.Fingerprint(), s.Description)
			}
			return nil
		}

		cfg, err := trial.Config(*scen, *quick)
		if err != nil {
			return err
		}
		if *quick {
			cfg.MaxQubits = 200
		}
		setIfPositive(&cfg.ChipletBatch, *batch)
		setIfPositive(&cfg.MonoBatch, *mono)
		setIfPositive(&cfg.MaxQubits, *maxQ)
		setIfPositive(&cfg.Fig10Samples, *samples)
		if *progress {
			cfg.Progress = progressPrinter(errw)
		}

		exps, err := selectExperiments(*only)
		if err != nil {
			return err
		}
		if *outDir != "-" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				return err
			}
		}
		for _, e := range exps {
			a, err := e.Run(ctx, cfg)
			if err != nil {
				return err
			}
			if err := writeArtifact(a, *outDir, *csv, *jsonOut, out); err != nil {
				return err
			}
		}
		if *outDir != "-" {
			fmt.Fprintln(out, "all artifacts written to", *outDir)
		}
		return nil
	}
}

// selectExperiments resolves the -only list against the registry, or
// returns the full catalog when empty.
func selectExperiments(only string) ([]experiment.Experiment, error) {
	if only == "" {
		return experiment.All(), nil
	}
	var out []experiment.Experiment
	for _, name := range splitNames(only) {
		e, ok := experiment.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q (known: %s)",
				name, strings.Join(experiment.Names(), ", "))
		}
		out = append(out, e)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-only selected no experiments")
	}
	return out, nil
}

// writeArtifact renders a as text (CSV with csv) and, with jsonOut, as
// its JSON record: onto out when dir is "-", otherwise into
// <dir>/<name>.<ext> files, reporting the paths on out.
func writeArtifact(a experiment.Artifact, dir string, csv, jsonOut bool, out io.Writer) error {
	type rendering struct {
		ext   string
		write func(io.Writer) error
	}
	renders := []rendering{{".txt", a.WriteText}}
	if csv {
		renders[0] = rendering{".csv", a.WriteCSV}
	}
	if jsonOut {
		renders = append(renders, rendering{".json", a.WriteJSON})
	}
	var paths []string
	for _, r := range renders {
		if dir == "-" {
			if err := r.write(out); err != nil {
				return err
			}
			continue
		}
		path := filepath.Join(dir, a.Name+r.ext)
		if err := writeFile(path, r.write); err != nil {
			return err
		}
		paths = append(paths, path)
	}
	if dir != "-" {
		fmt.Fprintf(out, "%-10s -> %s (%.1fs, %d trials)\n",
			a.Name, strings.Join(paths, ", "), a.WallSeconds, a.Trials)
	}
	return nil
}

// writeFile creates path and streams render into it.
func writeFile(path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := render(f); err != nil {
		return err
	}
	return f.Close()
}

// progressPrinter serialises concurrent progress events onto one
// stream, throttled per label so checkpoint-dense runs don't flood the
// terminal.
func progressPrinter(w io.Writer) func(runner.Event) {
	var mu sync.Mutex
	last := map[string]time.Time{}
	return func(e runner.Event) {
		mu.Lock()
		defer mu.Unlock()
		now := time.Now()
		if t, ok := last[e.Label]; ok && now.Sub(t) < 200*time.Millisecond && e.Done < e.Total {
			return
		}
		last[e.Label] = now
		fmt.Fprintf(w, "  %s: %d/%d\n", e.Label, e.Done, e.Total)
	}
}

// yieldFlags declares the yield verb: the collision-free yield Monte
// Carlo of paper Section IV-B / Fig. 4 (heavy-hex devices fabricated
// with per-qubit frequency noise, checked against Table I), or with
// -chiplets the catalog chiplet yields of Fig. 8(b).
func yieldFlags(fs *flag.FlagSet) action {
	var (
		scen     = scenarioFlag(fs)
		batch    = fs.Int("batch", 1000, "devices per Monte Carlo batch")
		sigma    = fs.Float64("sigma", 0, "fabrication precision in GHz (0 = sweep the paper's three values)")
		step     = fs.Float64("step", 0, "frequency plan step in GHz (0 = sweep 0.04-0.07)")
		maxQ     = fs.Int("max", 1000, "largest device size in qubits")
		trial    = cli.TrialFlags(fs, cli.Seed|cli.Workers|cli.Policy)
		chiplets = fs.Bool("chiplets", false, "report catalog chiplet yields instead of the size sweep")
		analytic = fs.Bool("analytic", false, "add the closed-form yield estimate next to Monte Carlo")
		csv      = fs.Bool("csv", false, "emit CSV instead of an aligned table")
	)
	return func(ctx context.Context, _ string, out, _ io.Writer) error {
		if err := cli.AtLeast(fs, 0, "batch", "max", "sigma", "step"); err != nil {
			return err
		}
		ecfg, err := trial.Config(*scen, false)
		if err != nil {
			return err
		}
		cfg := ecfg.ResolvedScenario().YieldConfig(*batch, ecfg.Seed)
		cfg.Workers = ecfg.Workers
		cfg.Policy = ecfg.Policy

		if *chiplets {
			if *sigma > 0 {
				cfg.Model.Sigma = *sigma
			}
			if *step > 0 {
				cfg.Model.Plan.Step = *step
			}
			tb := report.New("Collision-free chiplet yields (Fig. 8b)",
				"chiplet", "yield", "trials", "ci_lo", "ci_hi")
			chipRes, err := yield.ChipletYields(ctx, cfg)
			if err != nil {
				return err
			}
			for _, r := range chipRes {
				tb.Add(r.Qubits, report.F(r.Fraction(), 4), r.Batch,
					report.F(r.CILo, 4), report.F(r.CIHi, 4))
			}
			return cli.Emit(tb, out, *csv)
		}

		steps := []float64{0.04, 0.05, 0.06, 0.07}
		if *step > 0 {
			steps = []float64{*step}
		}
		sigmas := []float64{fab.SigmaAsFabricated, fab.SigmaLaserTuned, fab.SigmaScalingGoal}
		if *sigma > 0 {
			sigmas = []float64{*sigma}
		}
		cells, err := yield.Sweep(ctx, steps, sigmas, yield.SizeLadder(*maxQ), cfg)
		if err != nil {
			return err
		}

		headers := []string{"step_GHz", "sigma_GHz", "qubits", "yield", "trials", "ci_lo", "ci_hi"}
		if *analytic {
			headers = append(headers, "analytic")
		}
		tb := report.New(
			fmt.Sprintf("Collision-free yield vs qubits (Fig. 4; batch %d)", *batch),
			headers...)
		for _, c := range cells {
			for _, p := range c.Points {
				row := []interface{}{
					report.F(c.Step, 3), report.F(c.Sigma, 4), p.Qubits, report.F(p.Yield, 4),
					p.Trials, report.F(p.CILo, 4), report.F(p.CIHi, 4),
				}
				if *analytic {
					dev := topo.MonolithicDevice(topo.MonolithicSpec(p.Qubits))
					plan := topo.FreqPlan{Base: 5.0, Step: c.Step}
					row = append(row, report.F(
						analyticpkg.DeviceYield(dev, plan, c.Sigma, cfg.Params), 4))
				}
				tb.Add(row...)
			}
		}
		if err := cli.Emit(tb, out, *csv); err != nil {
			return err
		}

		// Summarise the optimum step at each precision for quick reading.
		best := report.New("Optimal frequency step per precision (100-qubit device)",
			"sigma_GHz", "best_step_GHz", "yield")
		for _, s := range sigmas {
			bestStep, bestY := 0.0, -1.0
			for _, c := range cells {
				if c.Sigma != s {
					continue
				}
				for _, p := range c.Points {
					if p.Qubits >= 95 && p.Qubits <= 110 && p.Yield > bestY {
						bestY, bestStep = p.Yield, c.Step
					}
				}
			}
			if bestY >= 0 {
				best.Add(report.F(s, 4), report.F(bestStep, 3), report.F(bestY, 4))
			}
		}
		fmt.Fprintln(out)
		return cli.Emit(best, out, *csv)
	}
}

// systemFlags declares the flags that pick one MCM system: -chiplet,
// -rows and -cols.
func systemFlags(fs *flag.FlagSet) (chiplet, rows, cols *int) {
	return fs.Int("chiplet", 20, "chiplet size in qubits (catalog: 10..250)"),
		fs.Int("rows", 2, "MCM rows"),
		fs.Int("cols", 2, "MCM cols")
}

// assembleFlags declares the assemble verb: fabricate one chiplet batch
// and assemble it into MCMs of one configuration (paper Section V).
func assembleFlags(fs *flag.FlagSet) action {
	var (
		scen                = scenarioFlag(fs)
		chiplet, rows, cols = systemFlags(fs)
		batch               = fs.Int("batch", 0, "chiplet fabrication batch size (0 = the scenario's policy; paper 10000)")
		trial               = cli.TrialFlags(fs, cli.Seed|cli.Workers)
		csv                 = fs.Bool("csv", false, "emit CSV")
	)
	return func(ctx context.Context, _ string, out, _ io.Writer) error {
		if err := cli.AtLeast(fs, 1, "rows", "cols"); err != nil {
			return err
		}
		if err := cli.AtLeast(fs, 0, "batch"); err != nil {
			return err
		}
		cfg, err := trial.Config(*scen, false)
		if err != nil {
			return err
		}
		setIfPositive(&cfg.ChipletBatch, *batch)
		scn := cfg.ResolvedScenario()
		spec, err := scn.SpecForQubits(*chiplet)
		if err != nil {
			return err
		}
		grid := mcm.Grid{Rows: *rows, Cols: *cols, Spec: spec}
		b, err := assembly.Fabricate(ctx, spec, cfg.ChipletBatch, scn.BatchConfig(cfg.Seed, nil, cfg.Workers))
		if err != nil {
			return err
		}
		mods, st, err := assembly.Assemble(ctx, b, grid, scn.AssembleConfig(cfg.Seed))
		if err != nil {
			return err
		}

		tb := report.New(fmt.Sprintf("MCM assembly: %s (scenario %s)", grid, scn.Name), "metric", "value")
		tb.Add("chiplets fabricated", st.BatchSize)
		tb.Add("collision-free chiplets", st.FreeChiplets)
		tb.Add("chiplet yield", report.F(st.ChipletYield, 4))
		tb.Add("complete MCMs", st.MCMs)
		tb.Add("chips used", st.ChipsUsed)
		tb.Add("leftover chiplets", st.Leftover)
		tb.Add("linked qubits per MCM", st.LinkedQubits)
		tb.Add("assembly yield", report.F(st.AssemblyYield, 4))
		tb.Add("post-assembly yield", report.F(st.PostAssemblyYield, 4))
		if len(mods) > 0 {
			var sum float64
			for _, m := range mods {
				sum += m.EAvg()
			}
			tb.Add("mean E_avg across MCMs", report.F(sum/float64(len(mods)), 5))
			tb.Add("best MCM E_avg", report.F(mods[0].EAvg(), 5))
			tb.Add("worst MCM E_avg", report.F(mods[len(mods)-1].EAvg(), 5))
		}
		return cli.Emit(tb, out, *csv)
	}
}

// compileFlags declares the compile verb: compile the paper's benchmark
// suite onto one MCM system (or, with -square, every square system up
// to -max) and its monolithic counterpart, and report the Fig. 10
// fidelity ratios.
func compileFlags(fs *flag.FlagSet) action {
	var (
		scen                = scenarioFlag(fs)
		square              = fs.Bool("square", false, "evaluate every square system up to -max (Fig. 10b) instead of one")
		chiplet, rows, cols = systemFlags(fs)
		maxQ                = fs.Int("max", 500, "largest system size for -square")
		batch               = fs.Int("batch", 2000, "chiplet batch size (0 = the scenario's policy)")
		mono                = fs.Int("mono", 2000, "monolithic batch size (0 = the scenario's policy)")
		samples             = fs.Int("samples", 3, "device instances averaged per architecture")
		trial               = cli.TrialFlags(fs, cli.Seed|cli.Workers)
		cpuProf             = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf             = fs.String("memprofile", "", "write a heap profile to this file at exit")
		csv                 = fs.Bool("csv", false, "emit CSV")
	)
	return func(ctx context.Context, _ string, out, errw io.Writer) error {
		if err := cli.AtLeast(fs, 1, "rows", "cols", "samples"); err != nil {
			return err
		}
		if err := cli.AtLeast(fs, 0, "batch", "mono", "max"); err != nil {
			return err
		}
		// Profiling hooks: attributing a regression needs the same pprof
		// view the micro-benchmarks get, on the real binary.
		if *cpuProf != "" {
			f, err := os.Create(*cpuProf)
			if err != nil {
				return fmt.Errorf("cpuprofile: %w", err)
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				f.Close()
				return fmt.Errorf("cpuprofile: %w", err)
			}
			defer func() {
				pprof.StopCPUProfile()
				f.Close()
			}()
		}
		if *memProf != "" {
			defer func() {
				f, err := os.Create(*memProf)
				if err != nil {
					fmt.Fprintln(errw, "chipletqc compile: memprofile:", err)
					return
				}
				defer f.Close()
				runtime.GC() // settle allocations so the heap profile reflects live state
				if err := pprof.WriteHeapProfile(f); err != nil {
					fmt.Fprintln(errw, "chipletqc compile: memprofile:", err)
				}
			}()
		}

		cfg, err := trial.Config(*scen, false)
		if err != nil {
			return err
		}
		scn := cfg.ResolvedScenario()
		setIfPositive(&cfg.ChipletBatch, *batch)
		setIfPositive(&cfg.MonoBatch, *mono)
		cfg.MaxQubits = *maxQ
		cfg.Fig10Samples = *samples

		var grids []mcm.Grid
		if *square {
			grids = mcm.SquareGridsFrom(scn.Catalog, *maxQ)
		} else {
			spec, err := scn.SpecForQubits(*chiplet)
			if err != nil {
				return err
			}
			grids = []mcm.Grid{{Rows: *rows, Cols: *cols, Spec: spec}}
		}
		pts, err := eval.Fig10(ctx, cfg, grids, *samples)
		if err != nil {
			return err
		}
		tb := report.New("Fig. 10: benchmark fidelity ratio (MCM / monolithic)",
			"chiplet", "dim", "qubits", "bench", "log_ratio", "ratio", "note")
		for _, p := range pts {
			note := ""
			logS, ratioS := report.F(p.LogRatio, 3), ""
			switch {
			case p.MonoZero:
				note = "mono 0% yield (paper red X)"
				logS, ratioS = "+inf", "inf"
			case math.IsNaN(p.LogRatio):
				note = "no MCM instances"
				logS, ratioS = "nan", "nan"
			default:
				ratioS = fmt.Sprintf("%.3g", p.Ratio())
			}
			tb.Add(p.Grid.Spec.Qubits(),
				fmt.Sprintf("%dx%d", p.Grid.Rows, p.Grid.Cols),
				p.Qubits, p.Bench, logS, ratioS, note)
		}
		return cli.Emit(tb, out, *csv)
	}
}

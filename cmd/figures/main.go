// Command figures runs experiments from the registry — by default every
// figure and table of the paper's evaluation section — and writes one
// artifact per experiment into an output directory (default ./results):
// a stable text rendering (<name>.txt) and, with -json, the full
// machine-readable Artifact record (<name>.json).
//
// Usage:
//
//	figures -list                    # enumerate registered experiments
//	figures -scenarios               # enumerate registered device scenarios
//	figures                          # paper-scale run of everything (minutes)
//	figures -quick                   # reduced batches (seconds, for smoke testing)
//	figures -scenario future-fab -only fig4,fig8  # run under a non-paper device world
//	figures -only fig8,table2 -json  # a subset, with Artifact JSON records
//	figures -out DIR                 # choose the output directory
//	figures -workers 8               # pin the worker-pool size
//	figures -progress                # stream per-experiment trial counts to stderr
//
// Interrupting the process (SIGINT/SIGTERM) cancels the in-flight
// experiment promptly via its context.
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"chipletqc/internal/cli"
	"chipletqc/internal/eval"
	"chipletqc/internal/experiment"
	"chipletqc/internal/runner"
	"chipletqc/internal/scenario"
)

func main() { cli.Main("figures", run) }

// run executes the tool against args, writing progress to out. It is the
// testable core of the binary.
func run(ctx context.Context, args []string, out, errw io.Writer) error {
	fs := cli.NewFlagSet("figures", errw)
	var (
		outDir   = fs.String("out", "results", "output directory")
		quick    = fs.Bool("quick", false, "reduced Monte Carlo batches")
		scen     = fs.String("scenario", scenario.PaperName, "device scenario to run under (see -scenarios)")
		scenList = fs.Bool("scenarios", false, "list registered device scenarios and exit")
		trial    = cli.TrialFlags(fs)
		list     = fs.Bool("list", false, "list registered experiments and exit")
		only     = fs.String("only", "", "comma-separated experiment names to run (default: all)")
		jsonOut  = fs.Bool("json", false, "additionally write the Artifact JSON record per experiment")
		progress = fs.Bool("progress", false, "stream per-experiment trial counts to the error stream")
	)
	if ok, err := cli.Parse(fs, args); !ok {
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
	if *progress {
		cfg.Progress = progressPrinter(errw)
	}

	exps, err := selectExperiments(*only)
	if err != nil {
		return err
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	for _, e := range exps {
		if err := runOne(ctx, e, cfg, *outDir, *jsonOut, out); err != nil {
			return err
		}
	}
	fmt.Fprintln(out, "all artifacts written to", *outDir)
	return nil
}

// selectExperiments resolves the -only list against the registry, or
// returns the full catalog when empty.
func selectExperiments(only string) ([]experiment.Experiment, error) {
	if only == "" {
		return experiment.All(), nil
	}
	var out []experiment.Experiment
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
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

// runOne executes one experiment and writes its artifact files.
func runOne(ctx context.Context, e experiment.Experiment, cfg eval.Config, dir string, jsonOut bool, progress io.Writer) error {
	a, err := e.Run(ctx, cfg)
	if err != nil {
		return err
	}
	txtPath := filepath.Join(dir, a.Name+".txt")
	if err := writeFile(txtPath, a.WriteText); err != nil {
		return err
	}
	paths := txtPath
	if jsonOut {
		jsonPath := filepath.Join(dir, a.Name+".json")
		if err := writeFile(jsonPath, a.WriteJSON); err != nil {
			return err
		}
		paths += ", " + jsonPath
	}
	fmt.Fprintf(progress, "%-10s -> %s (%.1fs, %d trials)\n",
		a.Name, paths, a.WallSeconds, a.Trials)
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
// stream, throttled per label so checkpoint-dense campaigns don't flood
// the terminal.
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

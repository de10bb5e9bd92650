// Package cli is the surface cmd/chipletqc's verbs share: one process
// entry point, one usage-error convention, the trial flags every Monte
// Carlo verb declares, and one table emitter.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"chipletqc/internal/eval"
	"chipletqc/internal/report"
	"chipletqc/internal/scenario"
	"chipletqc/internal/yield"
)

// ErrUsage marks argument errors already reported to the flag set's
// output; Main exits 2 without repeating them.
var ErrUsage = errors.New("usage error")

// Main runs a binary's core under a context cancelled by SIGINT or
// SIGTERM. It exits 2 on ErrUsage and 1 on any other error, printed
// once as "name: err" (a leading "name: " the engine already added is
// not doubled).
func Main(name string, run func(ctx context.Context, args []string, out, errw io.Writer) error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	switch {
	case err == nil:
		return
	case errors.Is(err, ErrUsage):
		os.Exit(2)
	}
	fmt.Fprintln(os.Stderr, name+":", strings.TrimPrefix(err.Error(), name+": "))
	os.Exit(1)
}

// NewFlagSet returns a flag set that reports to errw and returns parse
// errors instead of exiting.
func NewFlagSet(name string, errw io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(errw)
	return fs
}

// Parse parses args into fs and reports whether the binary should go
// on. After -h it returns false and a nil error (the usage is already
// printed); after any other parse error, false and ErrUsage.
func Parse(fs *flag.FlagSet, args []string) (bool, error) {
	switch err := fs.Parse(args); {
	case err == nil:
		return true, nil
	case errors.Is(err, flag.ErrHelp):
		return false, nil
	}
	return false, ErrUsage
}

// Usagef reports an argument error on fs's output and returns ErrUsage.
func Usagef(fs *flag.FlagSet, format string, args ...any) error {
	fmt.Fprintf(fs.Output(), "%s: %s\n", fs.Name(), fmt.Sprintf(format, args...))
	return ErrUsage
}

// AtLeast rejects, as a usage error, any of the named int, int64 or
// float64 flags whose value is below min, and any float flag that is
// not finite.
func AtLeast(fs *flag.FlagSet, min float64, names ...string) error {
	for _, name := range names {
		v := fs.Lookup(name).Value.(flag.Getter).Get()
		var x float64
		switch v := v.(type) {
		case int:
			x = float64(v)
		case int64:
			x = float64(v)
		case float64:
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return Usagef(fs, "-%s %v must be a finite number", name, v)
			}
			x = v
		}
		if x < min {
			return Usagef(fs, "-%s %v must be at least %v", name, v, min)
		}
	}
	return nil
}

// Trial holds the flags that seed and size a Monte Carlo run: -seed and
// -workers, plus the stopping policy as a yield.PolicyOverride.
type Trial struct {
	Seed    int64
	Workers int
	Policy  yield.PolicyOverride
}

// TrialSet selects which of the trial flags a verb declares.
type TrialSet uint8

const (
	Seed    TrialSet = 1 << iota // -seed
	Workers                      // -workers
	Policy                       // -precision -maxtrials -relprecision -sampling
)

// TrialFlags declares the selected trial flags on fs: -seed, -workers
// and the four policy flags with the yield.PolicyOverride sentinels.
func TrialFlags(fs *flag.FlagSet, which TrialSet) *Trial {
	t := &Trial{Seed: 1}
	if which&Seed != 0 {
		fs.Int64Var(&t.Seed, "seed", 1, "base RNG seed")
	}
	if which&Workers != 0 {
		fs.IntVar(&t.Workers, "workers", 0, "total parallel workers (0 = all CPU cores; results identical either way)")
	}
	if which&Policy != 0 {
		fs.Float64Var(&t.Policy.Precision, "precision", 0, "adaptive mode: stop each yield simulation once its 95% CI half-width reaches this (0 = the scenario's policy; negative forces fixed batch)")
		fs.IntVar(&t.Policy.MaxTrials, "maxtrials", 0, "adaptive mode trial budget per simulation (0 = the scenario's policy, then batch size; negative resets)")
		fs.Float64Var(&t.Policy.RelPrecision, "relprecision", 0, "adaptive mode relative target: stop once the CI half-width reaches this fraction of the yield (0 = the scenario's policy; negative disables)")
		fs.StringVar(&t.Policy.Sampling, "sampling", "", "yield estimator: plain, stratified, or importance (\"\" = the scenario's policy; none = plain counting, unlabelled)")
	}
	return t
}

// Config resolves the named scenario and returns its experiment config
// (quick scale when quick) with the seed, workers and policy override
// applied.
func (t *Trial) Config(scenarioName string, quick bool) (eval.Config, error) {
	scn, err := scenario.Lookup(scenarioName)
	if err != nil {
		return eval.Config{}, err
	}
	if err := t.Policy.Validate(); err != nil {
		return eval.Config{}, err
	}
	cfg := eval.ConfigFor(scn, t.Seed)
	if quick {
		cfg = eval.QuickConfigFor(scn, t.Seed)
	}
	cfg.Workers = t.Workers
	cfg.Policy = cfg.Policy.With(t.Policy)
	return cfg, nil
}

// Emit writes tb to out as CSV or as an aligned text table.
func Emit(tb *report.Table, out io.Writer, csv bool) error {
	if csv {
		return tb.WriteCSV(out)
	}
	return tb.WriteText(out)
}

package cli_test

import (
	"errors"
	"io"
	"strings"
	"testing"

	"chipletqc/internal/cli"
	"chipletqc/internal/sampling"
	"chipletqc/internal/scenario"
)

// TestTrialConfig: the trial flags layer over the scenario's policy
// with the yield.PolicyOverride sentinels, and a non-finite or unknown
// value fails before any config is returned.
func TestTrialConfig(t *testing.T) {
	parse := func(args ...string) *cli.Trial {
		t.Helper()
		fs := cli.NewFlagSet("test", io.Discard)
		trial := cli.TrialFlags(fs, cli.Seed|cli.Workers|cli.Policy)
		if ok, err := cli.Parse(fs, args); !ok {
			t.Fatalf("Parse(%q): %v", args, err)
		}
		return trial
	}
	cfg, err := parse("-seed", "7", "-workers", "3", "-sampling", "none", "-maxtrials", "900").
		Config(scenario.TightThresholdsName, true)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 7 || cfg.Workers != 3 || cfg.MaxTrials != 900 || cfg.RelPrecision != 0.2 || !cfg.Sampling.IsZero() {
		t.Errorf("tight-thresholds with -sampling none -maxtrials 900: %+v", cfg)
	}
	if cfg.MonoBatch != 500 {
		t.Errorf("quick config MonoBatch = %d, want 500", cfg.MonoBatch)
	}
	cfg, err = parse("-relprecision", "-1", "-sampling", sampling.Stratified).Config(scenario.TightThresholdsName, false)
	if err != nil || cfg.RelPrecision != 0 || cfg.Sampling.Method != sampling.Stratified {
		t.Errorf("-relprecision -1 -sampling stratified: %+v, %v", cfg.Policy, err)
	}
	for _, args := range [][]string{{"-precision", "NaN"}, {"-relprecision", "+Inf"}, {"-sampling", "bogus"}} {
		if _, err := parse(args...).Config(scenario.PaperName, false); err == nil {
			t.Errorf("%q: Config accepted it", args)
		}
	}
	if _, err := parse().Config("warp-core", false); err == nil {
		t.Error("unknown scenario: Config accepted it")
	}
}

// TestParseAndAtLeast pins the usage convention: -h stops with a nil
// error, a bad flag or an out-of-range value stops with ErrUsage and a
// message on the flag set's output.
func TestParseAndAtLeast(t *testing.T) {
	var errw strings.Builder
	fs := cli.NewFlagSet("tool", &errw)
	fs.Int("rows", 2, "rows")
	if ok, err := cli.Parse(fs, []string{"-h"}); ok || err != nil {
		t.Errorf("-h: (%v, %v), want (false, nil)", ok, err)
	}
	if ok, err := cli.Parse(cli.NewFlagSet("tool", io.Discard), []string{"-nope"}); ok || !errors.Is(err, cli.ErrUsage) {
		t.Errorf("-nope: (%v, %v), want (false, ErrUsage)", ok, err)
	}
	errw.Reset()
	if ok, err := cli.Parse(fs, []string{"-rows", "0"}); !ok || err != nil {
		t.Fatalf("-rows 0: (%v, %v)", ok, err)
	}
	if err := cli.AtLeast(fs, 0, "rows"); err != nil {
		t.Errorf("AtLeast(0) on 0: %v", err)
	}
	if err := cli.AtLeast(fs, 1, "rows"); !errors.Is(err, cli.ErrUsage) || errw.String() != "tool: -rows 0 must be at least 1\n" {
		t.Errorf("AtLeast(1) on 0: %v, output %q", err, errw.String())
	}
}

// TestAtLeastFloatAndInt64: float64 and int64 flags are range-checked
// like ints (AtLeast used to panic on them), and a float that is not
// finite is rejected whatever the bound: NaN compares false against
// everything, so without the check it passed every gate.
func TestAtLeastFloatAndInt64(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // "" = accepted
	}{
		{[]string{"-tol", "0.1", "-cap", "5"}, ""},
		{[]string{"-tol", "0"}, ""},
		{[]string{"-tol", "-0.05"}, "tool: -tol -0.05 must be at least 0\n"},
		{[]string{"-tol", "NaN"}, "tool: -tol NaN must be a finite number\n"},
		{[]string{"-tol", "+Inf"}, "tool: -tol +Inf must be a finite number\n"},
		{[]string{"-cap", "-1"}, "tool: -cap -1 must be at least 0\n"},
	} {
		var errw strings.Builder
		fs := cli.NewFlagSet("tool", &errw)
		fs.Float64("tol", 0, "tolerance")
		fs.Int64("cap", 0, "cap")
		if ok, err := cli.Parse(fs, tc.args); !ok {
			t.Fatalf("Parse(%q): %v", tc.args, err)
		}
		err := cli.AtLeast(fs, 0, "tol", "cap")
		if tc.want == "" && err != nil {
			t.Errorf("%q: %v", tc.args, err)
		}
		if tc.want != "" && (!errors.Is(err, cli.ErrUsage) || errw.String() != tc.want) {
			t.Errorf("%q: %v, output %q, want %q", tc.args, err, errw.String(), tc.want)
		}
	}
}

package main

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"chipletqc/internal/cli"
)

// TestVerbTable pins the dispatcher: no verb or an unknown one is a
// usage error that lists the verbs on the error stream; help lists
// every verb on the output stream and is not an error.
func TestVerbTable(t *testing.T) {
	for _, args := range [][]string{nil, {"bogus"}, {"-quick"}} {
		out, errs, err := runArgs(t, context.Background(), args...)
		if !errors.Is(err, cli.ErrUsage) || out != "" || !strings.Contains(errs, "verbs:") {
			t.Errorf("%q: err %v, stdout %q, stderr %q; want a usage error listing the verbs", args, err, out, errs)
		}
	}
	for _, help := range []string{"help", "-h"} {
		out, _, err := runArgs(t, context.Background(), help)
		if err != nil {
			t.Fatalf("%s: %v", help, err)
		}
		for _, v := range verbs {
			if !strings.Contains(out, "\n  "+v.name+" ") {
				t.Errorf("%s does not list verb %q:\n%s", help, v.name, out)
			}
		}
	}
}

// TestEveryVerbParsesHelpAndRejectsUnknownFlags: -h prints the verb's
// usage to the error stream and is not an error; an unknown flag is a
// usage error named on the error stream, with nothing on the report
// stream.
func TestEveryVerbParsesHelpAndRejectsUnknownFlags(t *testing.T) {
	for _, v := range verbs {
		t.Run(v.name, func(t *testing.T) {
			t.Run("help", func(t *testing.T) {
				_, errs, err := runArgs(t, context.Background(), v.name, "-h")
				if err != nil || !strings.Contains(errs, "usage: chipletqc "+v.name) {
					t.Errorf("%s -h: err %v, usage %q", v.name, err, errs)
				}
				if v.name == "yield" || v.name == "compile" {
					if !strings.Contains(errs, "-workers") {
						t.Errorf("%s usage should document -workers:\n%s", v.name, errs)
					}
				}
			})
			t.Run("unknown_flag", func(t *testing.T) {
				out, errs, err := runArgs(t, context.Background(), v.name, "-definitely-not-a-flag")
				if !errors.Is(err, cli.ErrUsage) || out != "" || !strings.Contains(errs, "definitely-not-a-flag") {
					t.Errorf("%s -definitely-not-a-flag: err %v, stdout %q, stderr %q", v.name, err, out, errs)
				}
			})
		})
	}
}

// TestAdminVerbValidation pins the admin UX guards: one admin verb per
// invocation, and every admin verb needs a store.
func TestAdminVerbValidation(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	for _, tc := range []struct {
		args []string
		want string // substring the usage error must contain
	}{
		{[]string{"verify", "-store", dir, "-prune"}, "-prune"},
		{[]string{"verify", "-store", ""}, "need -store"},
	} {
		out, errs, err := runArgs(t, context.Background(), tc.args...)
		if !errors.Is(err, cli.ErrUsage) || !strings.Contains(errs, tc.want) || out != "" {
			t.Errorf("%q: err %v, stdout %q, stderr %q; want a usage error naming %q", tc.args, err, out, errs, tc.want)
		}
	}
}

// TestModeFlagConflicts pins the CLI's refusal to silently drop flags:
// every row asks a verb for a flag that has no meaning in it, or an
// operand it does not take, and must exit 2 naming the offender.
func TestModeFlagConflicts(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	cases := []struct {
		name string
		args []string
		want string // substring the usage error must contain
	}{
		{"gc-keep without gc", []string{"campaign", "-store", dir, "-gc-keep", "5"}, "-gc-keep"},
		{"gc-max-bytes without gc", []string{"verify", "-store", dir, "-gc-max-bytes", "1024"}, "-gc-max-bytes"},
		{"shard with verify", []string{"verify", "-store", dir, "-shard", "0/2"}, "-shard"},
		{"resume with prune", []string{"prune", "-store", dir, "-resume=false"}, "-resume"},
		{"shard with gc", []string{"gc", "-store", dir, "-gc-keep", "5", "-shard", "0/2"}, "-shard"},
		{"progress with serve", []string{"serve", "-progress"}, "-progress"},
		{"shard with submit", []string{"submit", "-shard", "0/2"}, "-shard"},
		{"plan flags with status", []string{"status", "-experiments", "fig2"}, "-experiments"},
		{"addr with plain campaign", []string{"campaign", "-addr", ":9", "-quick", "-experiments", "fig2", "-store", ""}, "-addr"},
		{"client verb with admin verb", []string{"submit", "-verify", "-store", dir}, "-verify"},
		{"serve with client verb", []string{"serve", "-submit"}, "-submit"},
		{"two client verbs", []string{"submit", "-job", "job-000001"}, "-job"},
		{"unknown flag", []string{"campaign", "-definitely-not-a-flag"}, "definitely-not-a-flag"},
		{"grid-and-axis-flags", []string{"explore", "-generate", "topos=hex-1x2-q6", "-sigmas", "0.004"}, "-sigmas"},
		{"verb without its operand", []string{"pin", "-store", dir}, "missing LABEL"},
		{"stray operand", []string{"run", "fig8"}, `unexpected argument "fig8"`},
		{"two operands", []string{"backup", "-store", dir, "a", "b"}, `unexpected argument "b"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, errs, err := runArgs(t, context.Background(), tc.args...)
			if !errors.Is(err, cli.ErrUsage) {
				t.Fatalf("err = %v, want cli.ErrUsage", err)
			}
			if !strings.Contains(errs, tc.want) {
				t.Errorf("usage error does not name the conflict %q:\n%s", tc.want, errs)
			}
			if out != "" {
				t.Errorf("flag diagnostics leaked into the report stream:\n%s", out)
			}
		})
	}
}

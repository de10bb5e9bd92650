package main

import (
	"context"
	"errors"
	"strings"
	"testing"

	"chipletqc/internal/cli"
)

// TestRunSingleSmoke exercises the single-system assembly mode at tiny
// scale.
func TestRunSingleSmoke(t *testing.T) {
	var out, errs strings.Builder
	err := run(context.Background(), []string{
		"-chiplet", "20", "-rows", "2", "-cols", "2",
		"-batch", "200", "-workers", "2",
	}, &out, &errs)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	for _, want := range []string{"MCM assembly", "chiplet yield", "post-assembly yield"} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in output:\n%s", want, got)
		}
	}
}

// TestRunFig8ThroughRegistry: the -fig8 mode renders the registered
// experiment's artifact, including its self-describing header.
func TestRunFig8ThroughRegistry(t *testing.T) {
	var out, errs strings.Builder
	err := run(context.Background(), []string{
		"-fig8", "-batch", "150", "-mono", "150", "-max", "60", "-workers", "2",
	}, &out, &errs)
	if err != nil {
		t.Fatalf("run -fig8: %v", err)
	}
	got := out.String()
	for _, want := range []string{"# experiment: fig8", "Fig. 8", "avg-improvement"} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in artifact output:\n%s", want, got)
		}
	}
}

// TestRunCancelled pins ctx propagation through the registry path.
func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errs strings.Builder
	err := run(ctx, []string{"-fig9", "-batch", "100", "-mono", "100", "-max", "60"}, &out, &errs)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestRunRejectsBadChiplet(t *testing.T) {
	var out, errs strings.Builder
	if err := run(context.Background(), []string{"-chiplet", "33", "-batch", "10"}, &out, &errs); err == nil {
		t.Error("non-catalog chiplet size should return an error")
	}
}

// TestRunRejectsOutOfRangeFlags: sizes and batches that cannot be run
// are usage errors at parse time, named on the error stream, and a
// non-finite trial policy fails before any trial runs.
func TestRunRejectsOutOfRangeFlags(t *testing.T) {
	for _, args := range [][]string{{"-rows", "0"}, {"-cols", "-1"}, {"-batch", "-3"}, {"-mono", "-1"}, {"-max", "-1"}} {
		var out, errs strings.Builder
		err := run(context.Background(), args, &out, &errs)
		if !errors.Is(err, cli.ErrUsage) || !strings.Contains(errs.String(), args[0]) {
			t.Errorf("run(%q) = %v (stderr %q), want a usage error naming %s", args, err, errs.String(), args[0])
		}
		if out.Len() != 0 {
			t.Errorf("run(%q) wrote a report:\n%s", args, out.String())
		}
	}
	var out, errs strings.Builder
	if err := run(context.Background(), []string{"-batch", "10", "-precision", "NaN"}, &out, &errs); err == nil || out.Len() != 0 {
		t.Errorf("-precision NaN: err %v, report %q; want an error and no report", err, out.String())
	}
}

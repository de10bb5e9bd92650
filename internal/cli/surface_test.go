package cli_test

import (
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// flagSurface pins every binary's flags as "name=default" pairs, read
// from its -h usage ("" where the default is the zero value, which the
// usage does not print). A flag added, removed, renamed or given a new
// default fails the test; help wording is free to change.
var flagSurface = map[string][]string{
	"benchrun": {
		"all=", "batch=2000", "chiplet=20", "cols=2", "cpuprofile=", "csv=", "max=500",
		"maxtrials=", "memprofile=", "mono=2000", "perf=", "perfcheck=",
		`perfout="BENCH_yield.json"`, "perftol=0.1", "precision=", "relprecision=", "rows=2",
		"samples=3", "sampling=", `scenario="paper"`, "seed=1", "square=", "table2=", "workers=",
	},
	"campaign": {
		`addr=":8080"`, "backup=", "experiments=", "fetch=", "gc=", "gc-keep=", "gc-max-bytes=",
		"generate=", "job=", "json=", "list=", "maxtrials=", "pin=", "precision=", "progress=",
		"prune=", "quick=", "relprecision=", "restore=", "resume=true", "sampling=", "scenarios=",
		"seed=1", "serve=", "shard=", "shutdown=", "slots=", "status=", `store="campaign-store"`,
		"submit=", "unpin=", "verify=", "watch=", "workers=",
	},
	"explore": {
		"addr=", `base="paper"`, "grid=", "json=", "links=", "list=", "progress=", "quick=",
		"resume=true", "seed=1", "shard=", "sigmas=", `store="explore-store"`, "thresholds=",
		"topos=", "workers=",
	},
	"figures": {
		"json=", "list=", "maxtrials=", "only=", `out="results"`, "precision=", "progress=",
		"quick=", "relprecision=", "sampling=", `scenario="paper"`, "scenarios=", "seed=1",
		"workers=",
	},
	"mcmsim": {
		"batch=", "chiplet=20", "cols=2", "csv=", "fig8=", "fig9=", "max=500", "maxtrials=",
		"mono=", "precision=", "relprecision=", "rows=2", "sampling=", `scenario="paper"`,
		"seed=1", "workers=",
	},
	"yieldsim": {
		"analytic=", "batch=1000", "chiplets=", "csv=", "max=1000", "maxtrials=", "precision=",
		"relprecision=", "sampling=", `scenario="paper"`, "seed=1", "sigma=", "step=", "workers=",
	},
}

var (
	flagLine    = regexp.MustCompile(`^  -(\S+)`)
	defaultText = regexp.MustCompile(`\(default (.*)\)$`)
)

// TestFlagSurface builds the six binaries and runs each with -h, which
// must exit 0 and list exactly the pinned flags and defaults.
func TestFlagSurface(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	dir := t.TempDir()
	if out, err := exec.Command(gobin, "build", "-o", dir, "chipletqc/cmd/...").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for name, want := range flagSurface {
		usage, err := exec.Command(filepath.Join(dir, name), "-h").CombinedOutput()
		if err != nil {
			t.Errorf("%s -h: %v\n%s", name, err, usage)
			continue
		}
		var got []string
		for _, line := range strings.Split(string(usage), "\n") {
			if m := flagLine.FindStringSubmatch(line); m != nil {
				got = append(got, m[1]+"=")
				continue
			}
			if m := defaultText.FindStringSubmatch(line); m != nil && len(got) > 0 {
				got[len(got)-1] += m[1]
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s flags\n got %q\nwant %q", name, got, want)
		}
	}
}

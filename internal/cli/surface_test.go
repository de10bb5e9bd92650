package cli_test

import (
	"errors"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// flagSurface pins every chipletqc verb's flags as "name=default"
// pairs, read from its -h usage ("" where the default is the zero
// value, which the usage does not print). A flag added, removed,
// renamed or given a new default fails the test; help wording is free
// to change.
var flagSurface = map[string][]string{
	"run": {
		"batch=", "csv=", "json=", "list=", "max=", "maxtrials=", "mono=", "only=", `out="results"`,
		"precision=", "progress=", "quick=", "relprecision=", "samples=", "sampling=",
		`scenario="paper"`, "scenarios=", "seed=1", "workers=",
	},
	"yield": {
		"analytic=", "batch=1000", "chiplets=", "csv=", "max=1000", "maxtrials=", "precision=",
		"relprecision=", "sampling=", `scenario="paper"`, "seed=1", "sigma=", "step=", "workers=",
	},
	"assemble": {"batch=", "chiplet=20", "cols=2", "csv=", "rows=2", `scenario="paper"`, "seed=1", "workers="},
	"compile": {
		"batch=2000", "chiplet=20", "cols=2", "cpuprofile=", "csv=", "max=500", "memprofile=",
		"mono=2000", "rows=2", "samples=3", `scenario="paper"`, "seed=1", "square=", "workers=",
	},
	"perf":      {"batch=2000", `perfout="BENCH_yield.json"`, `scenario="paper"`, "seed=1", "workers="},
	"perfcheck": {"batch=2000", "perftol=0.1", `scenario="paper"`, "seed=1", "workers="},
	"campaign": {
		"experiments=", "generate=", "json=", "list=", "maxtrials=", "precision=", "progress=",
		"quick=", "relprecision=", "resume=true", "sampling=", "scenarios=", "seed=1", "shard=",
		`store="campaign-store"`, "workers=",
	},
	"explore": {
		"addr=", "generate=", "json=", "list=", "progress=", "quick=", "resume=true", "seed=1",
		"shard=", `store="explore-store"`, "workers=",
	},
	"serve": {`addr=":8080"`, "generate=", "slots=", `store="campaign-store"`, "workers="},
	"submit": {
		`addr=":8080"`, "experiments=", "generate=", "json=", "maxtrials=", "precision=", "quick=",
		"relprecision=", "resume=true", "sampling=", "scenarios=", "seed=1", "watch=",
	},
	"job":      {`addr=":8080"`, "json=", "watch="},
	"fetch":    {`addr=":8080"`, "json="},
	"status":   {`addr=":8080"`, "json="},
	"shutdown": {`addr=":8080"`},
	"verify":   {`store="campaign-store"`},
	"backup":   {`store="campaign-store"`},
	"restore":  {`store="campaign-store"`},
	"prune":    {`store="campaign-store"`},
	"gc":       {"gc-keep=", "gc-max-bytes=", `store="campaign-store"`},
	"pin": {
		"experiments=", "generate=", "maxtrials=", "precision=", "quick=", "relprecision=",
		"sampling=", "scenarios=", "seed=1", "shard=", `store="campaign-store"`,
	},
	"unpin": {`store="campaign-store"`},
}

var (
	flagLine    = regexp.MustCompile(`^  -(\S+)`)
	defaultText = regexp.MustCompile(`\(default (.*)\)$`)
)

// TestFlagSurface builds cmd/chipletqc and runs each verb with -h,
// which must exit 0 and list exactly the pinned flags and defaults. It
// also pins the dispatcher's exit codes: help exits 0 and lists every
// verb; no verb, or an unknown one, exits 2.
func TestFlagSurface(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "chipletqc")
	if out, err := exec.Command(gobin, "build", "-o", bin, "chipletqc/cmd/chipletqc").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	help, err := exec.Command(bin, "help").Output()
	if err != nil {
		t.Fatalf("chipletqc help: %v", err)
	}
	var listed []string
	for _, line := range strings.Split(string(help), "\n") {
		if f := strings.Fields(line); len(f) > 1 && strings.HasPrefix(line, "  ") {
			listed = append(listed, f[0])
		}
	}
	if len(listed) != len(flagSurface) {
		t.Errorf("help lists %d verbs %q, the surface pins %d", len(listed), listed, len(flagSurface))
	}
	for _, args := range [][]string{nil, {"bogus"}} {
		var exit *exec.ExitError
		if err := exec.Command(bin, args...).Run(); !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("chipletqc %q: %v, want exit status 2", args, err)
		}
	}
	for _, verb := range listed {
		want, ok := flagSurface[verb]
		if !ok {
			t.Errorf("verb %q has no pinned flag surface", verb)
			continue
		}
		usage, err := exec.Command(bin, verb, "-h").CombinedOutput()
		if err != nil {
			t.Errorf("%s -h: %v\n%s", verb, err, usage)
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
			t.Errorf("%s flags\n got %q\nwant %q", verb, got, want)
		}
	}
}

// Command chipletqc is the command-line front end of the chiplet
// reproduction: one binary, one verb per mode, each verb with its own
// flag set, so a flag that means nothing in a mode is a parse error.
//
// Usage:
//
//	chipletqc help                                   # list the verbs
//	chipletqc <verb> -h                              # one verb's flags
//
//	chipletqc run -quick                             # every figure and table, smoke scale, into ./results
//	chipletqc run -only fig8,table2 -json            # a subset, with Artifact JSON records
//	chipletqc run -only fig8 -out - -batch 2000      # render one artifact to stdout
//	chipletqc run -list | -scenarios                 # enumerate experiments / device scenarios
//	chipletqc yield -sigma 0.014 -step 0.06          # Fig. 4 yield sweep
//	chipletqc assemble -chiplet 20 -rows 3 -cols 3   # one MCM configuration
//	chipletqc compile -chiplet 40 -rows 2 -cols 2    # Fig. 10 for one system (-square: square systems)
//	chipletqc perf | perfcheck BENCH_yield.json      # yield hot-path perf record / gate
//
//	chipletqc campaign -experiments fig4,fig8 -scenarios paper,future-fab -store artifacts
//	chipletqc explore -generate "topos=hex-3x3-q16;sigmas=0.002,0.004" -store artifacts
//	chipletqc serve -store artifacts -addr :8080     # campaign daemon
//	chipletqc submit -watch -quick -addr :8080       # and its clients: job, fetch, status, shutdown
//	chipletqc verify -store artifacts                # and the other store admin verbs
//
// Interrupting the process (SIGINT/SIGTERM) cancels in-flight work
// promptly; a daemon drains on the same signals.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"

	"chipletqc/internal/cli"
)

// action runs a verb after its flags are parsed; arg is the verb's
// operand, "" for verbs that take none.
type action func(ctx context.Context, arg string, out, errw io.Writer) error

// verb is one row of the command table: flags declares the verb's flag
// set and returns the action that reads it.
type verb struct {
	name, arg, summary string
	flags              func(fs *flag.FlagSet) action
}

var verbs = []verb{
	{"run", "", "run registry experiments (default: every paper figure and table) and write their artifacts", runFlags},
	{"yield", "", "collision-free yield sweep (Fig. 4) or catalog chiplet yields (Fig. 8b)", yieldFlags},
	{"assemble", "", "fabricate one chiplet batch and assemble one MCM configuration", assembleFlags},
	{"compile", "", "benchmark fidelity ratios (Fig. 10) for one system or every square system", compileFlags},
	{"perf", "", "measure the yield hot path and write a perf record", perfFlags},
	{"perfcheck", "BASELINE", "measure the yield hot path and fail on a regression against BASELINE", perfCheckFlags},
	{"campaign", "", "run an experiment x scenario grid against the artifact store", campaignFlags},
	{"explore", "", "run a generated design-space grid and report its Pareto frontier", exploreFlags},
	{"serve", "", "run a campaign daemon over the artifact store", serveFlags},
	{"submit", "", "submit a campaign plan to a daemon", submitFlags},
	{"job", "ID", "print (or -watch) one daemon job's status", jobFlags},
	{"fetch", "KEY", "fetch one stored artifact (experiment/fingerprint) from a daemon", fetchFlags},
	{"status", "", "print a daemon's queue and store status", statusFlags},
	{"shutdown", "", "ask a daemon to drain and exit", shutdownFlags},
	{"verify", "", "audit every store record; fail naming bad files", verifyFlags},
	{"backup", "DIR", "snapshot every store record into DIR", backupFlags},
	{"restore", "DIR", "copy a backup's records from DIR into the store, healing bad records", restoreFlags},
	{"prune", "", "delete broken records, stray files and stale temp files from the store", pruneFlags},
	{"gc", "", "evict least-recently-read unpinned records over the caps", gcFlags},
	{"pin", "LABEL", "pin a plan's stored cells under LABEL, protecting them from gc", pinFlags},
	{"unpin", "LABEL", "remove every pin carrying LABEL from the store", unpinFlags},
}

func main() { cli.Main("chipletqc", run) }

// run dispatches args[0] to its verb. It is the testable core of the
// binary: usage errors return cli.ErrUsage (exit 2), -h and help
// return nil.
func run(ctx context.Context, args []string, out, errw io.Writer) error {
	if len(args) == 0 {
		usage(errw)
		return cli.ErrUsage
	}
	switch args[0] {
	case "help", "-h", "-help", "--help":
		usage(out)
		return nil
	}
	for _, v := range verbs {
		if v.name == args[0] {
			return v.exec(ctx, args[1:], out, errw)
		}
	}
	fmt.Fprintf(errw, "chipletqc: unknown verb %q\n\n", args[0])
	usage(errw)
	return cli.ErrUsage
}

// exec parses the verb's flags, then its operand (flags may follow
// it), and runs its action.
func (v verb) exec(ctx context.Context, args []string, out, errw io.Writer) error {
	fs := cli.NewFlagSet("chipletqc "+v.name, errw)
	fs.Usage = func() {
		operand := ""
		if v.arg != "" {
			operand = " " + v.arg
		}
		fmt.Fprintf(errw, "usage: chipletqc %s [flags]%s\n\n%s\n\nflags:\n", v.name, operand, v.summary)
		fs.PrintDefaults()
	}
	act := v.flags(fs)
	if ok, err := cli.Parse(fs, args); !ok {
		return err
	}
	arg := ""
	if v.arg != "" {
		if fs.NArg() == 0 {
			return cli.Usagef(fs, "missing %s operand", v.arg)
		}
		arg = fs.Arg(0)
		if ok, err := cli.Parse(fs, fs.Args()[1:]); !ok {
			return err
		}
	}
	if fs.NArg() > 0 {
		return cli.Usagef(fs, "unexpected argument %q", fs.Arg(0))
	}
	return act(ctx, arg, out, errw)
}

// usage lists the verbs.
func usage(w io.Writer) {
	fmt.Fprintf(w, "usage: chipletqc <verb> [flags]\n\nverbs:\n")
	for _, v := range verbs {
		fmt.Fprintf(w, "  %-10s %s\n", v.name, v.summary)
	}
	fmt.Fprintf(w, "\nRun 'chipletqc <verb> -h' for a verb's flags.\n")
}

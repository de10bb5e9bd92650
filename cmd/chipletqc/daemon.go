package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"strings"

	"chipletqc/internal/campaign"
	"chipletqc/internal/cli"
	"chipletqc/internal/daemon"
	"chipletqc/internal/store"
)

// addrFlag declares a client verb's -addr.
func addrFlag(fs *flag.FlagSet) *string {
	return fs.String("addr", ":8080", "daemon `address` to talk to")
}

// jsonFlag declares a client verb's -json.
func jsonFlag(fs *flag.FlagSet) *bool {
	return fs.Bool("json", false, "print the daemon's answer as JSON")
}

// serveFlags declares the serve verb: one store behind an HTTP API, so
// many clients share its cache and its worker budget (-slots jobs run
// concurrently; further submissions queue FIFO). It runs until a signal
// or a shutdown request drains it: running jobs cancel cleanly, their
// completed cells stay persisted, and queued jobs report interrupted.
func serveFlags(fs *flag.FlagSet) action {
	var (
		storeDir = fs.String("store", "campaign-store", "artifact store directory; empty keeps artifacts in memory")
		addr     = fs.String("addr", ":8080", "bind `address`")
		slots    = fs.Int("slots", 0, "jobs running concurrently, sharing -workers; queued beyond that (0 = 2)")
		trial    = cli.TrialFlags(fs, cli.Workers)
		genSpec  = generateFlag(fs)
	)
	return func(ctx context.Context, _ string, _, errw io.Writer) error {
		if *genSpec != "" {
			// Submitted plans name the grid's scenarios; register them.
			if _, _, err := registerGenerated(*genSpec); err != nil {
				return err
			}
		}
		var st store.Store
		if *storeDir == "" {
			// An addressable daemon is useful without a directory: repeat
			// submissions still hit the cache for the process lifetime.
			fmt.Fprintln(errw, "chipletqc serve: without -store artifacts stay in memory; they vanish when the daemon exits")
			st = store.OpenMem()
		} else {
			fsStore, err := store.Open(*storeDir)
			if err != nil {
				return err
			}
			defer fsStore.Close()
			st = fsStore
		}
		srv := daemon.New(daemon.Options{
			Store:   st,
			Workers: trial.Workers,
			Slots:   *slots,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(errw, format+"\n", args...)
			},
		})
		return srv.ListenAndServe(ctx, *addr)
	}
}

// submitFlags declares the submit verb: queue a plan on the daemon and
// print the job handle, or with -watch stream its events and print its
// final status.
func submitFlags(fs *flag.FlagSet) action {
	var (
		spec    = planFlags(fs, cli.Seed)
		resume  = fs.Bool("resume", true, "let the daemon serve cells already in its store; -resume=false forces re-execution")
		watch   = fs.Bool("watch", false, "stream the job's events and wait for its final status")
		addr    = addrFlag(fs)
		jsonOut = jsonFlag(fs)
	)
	return func(ctx context.Context, _ string, out, errw io.Writer) error {
		plan, err := spec.plan()
		if err != nil {
			return err
		}
		cl := daemon.NewClient(*addr)
		if !*watch {
			st, err := cl.Submit(ctx, plan, !*resume)
			if err != nil {
				return err
			}
			return printJob(out, st, *jsonOut)
		}
		final, err := submitAndWatch(ctx, cl, plan, !*resume, errw)
		if err != nil {
			return err
		}
		return finishJob(out, final, *jsonOut)
	}
}

// jobFlags declares the job verb: one job's status, or with -watch its
// event stream and final status.
func jobFlags(fs *flag.FlagSet) action {
	var (
		watch   = fs.Bool("watch", false, "stream the job's events and wait for its final status")
		addr    = addrFlag(fs)
		jsonOut = jsonFlag(fs)
	)
	return func(ctx context.Context, id string, out, errw io.Writer) error {
		cl := daemon.NewClient(*addr)
		if *watch {
			final, err := watchJob(ctx, cl, id, errw)
			if err != nil {
				return err
			}
			return finishJob(out, final, *jsonOut)
		}
		st, err := cl.Job(ctx, id)
		if err != nil {
			return err
		}
		return printJob(out, st, *jsonOut)
	}
}

// fetchFlags declares the fetch verb: one stored artifact by its
// experiment/fingerprint key.
func fetchFlags(fs *flag.FlagSet) action {
	var (
		addr    = addrFlag(fs)
		jsonOut = jsonFlag(fs)
	)
	return func(ctx context.Context, key string, out, _ io.Writer) error {
		name, fingerprint, ok := strings.Cut(key, "/")
		if !ok || name == "" || fingerprint == "" {
			return cli.Usagef(fs, "fetch wants experiment/fingerprint, e.g. fetch fig8/0a1b2c3d4e5f")
		}
		cl := daemon.NewClient(*addr)
		a, found, err := cl.Artifact(ctx, name, fingerprint)
		if err != nil {
			return err
		}
		if !found {
			return fmt.Errorf("daemon at %s holds no artifact for (%s, %s)", cl.BaseURL(), name, fingerprint)
		}
		if *jsonOut {
			return a.WriteJSON(out)
		}
		return a.WriteText(out)
	}
}

// statusFlags declares the status verb: the daemon's queue and store.
func statusFlags(fs *flag.FlagSet) action {
	var (
		addr    = addrFlag(fs)
		jsonOut = jsonFlag(fs)
	)
	return func(ctx context.Context, _ string, out, _ io.Writer) error {
		cl := daemon.NewClient(*addr)
		st, err := cl.Status(ctx)
		if err != nil {
			return err
		}
		if *jsonOut {
			return writeJSON(out, st)
		}
		fmt.Fprintf(out, "daemon %s: %s, up %.0fs, %d of %d slots busy (%d workers per job)\n",
			cl.BaseURL(), st.State, st.UptimeSeconds, st.Running, st.Slots, st.JobWorkers)
		fmt.Fprintf(out, "jobs: %d queued, %d running, %d done, %d failed, %d interrupted\n",
			st.Queued, st.Running, st.Done, st.Failed, st.Interrupted)
		if st.StoreRecords >= 0 {
			where := "in memory"
			if st.StoreDir != "" {
				where = st.StoreDir
			}
			fmt.Fprintf(out, "store: %d records (%s)\n", st.StoreRecords, where)
		}
		return nil
	}
}

// shutdownFlags declares the shutdown verb: ask the daemon to drain
// and exit (SIGTERM to the daemon does the same).
func shutdownFlags(fs *flag.FlagSet) action {
	addr := addrFlag(fs)
	return func(ctx context.Context, _ string, out, _ io.Writer) error {
		cl := daemon.NewClient(*addr)
		if err := cl.Shutdown(ctx); err != nil {
			return err
		}
		fmt.Fprintf(out, "daemon %s: draining\n", cl.BaseURL())
		return nil
	}
}

// submitAndWatch queues plan on the daemon and waits for the job's
// final status, streaming its events to errw (nil: silently).
func submitAndWatch(ctx context.Context, cl *daemon.Client, plan campaign.Plan, force bool, errw io.Writer) (daemon.JobStatus, error) {
	st, err := cl.Submit(ctx, plan, force)
	if err != nil {
		return st, err
	}
	if errw != nil {
		fmt.Fprintf(errw, "submitted %s (%d cells); watching\n", st.ID, st.GridSize)
	}
	return watchJob(ctx, cl, st.ID, errw)
}

// watchJob waits for job id's final status, streaming its events to
// errw (nil: silently).
func watchJob(ctx context.Context, cl *daemon.Client, id string, errw io.Writer) (daemon.JobStatus, error) {
	var onEvent func(daemon.EventJSON)
	if errw != nil {
		printer := eventPrinter(errw)
		onEvent = func(e daemon.EventJSON) {
			ev := campaign.Event{Cell: e.Cell, Phase: e.Phase}
			if e.Error != "" {
				ev.Err = errors.New(e.Error)
			}
			printer(ev)
		}
	}
	return cl.Watch(ctx, id, onEvent)
}

// finishJob renders a watched job's terminal status; a job that did not
// finish done fails the invocation so scripts can gate on the exit
// code.
func finishJob(out io.Writer, final daemon.JobStatus, jsonOut bool) error {
	if err := printJob(out, final, jsonOut); err != nil {
		return err
	}
	if final.State != daemon.StateDone {
		return fmt.Errorf("job %s finished %s: %s", final.ID, final.State, final.Error)
	}
	return nil
}

// printJob renders one job status line (or the full JSON snapshot).
func printJob(out io.Writer, st daemon.JobStatus, jsonOut bool) error {
	if jsonOut {
		return writeJSON(out, st)
	}
	line := fmt.Sprintf("%s: %s, %d cells, %d executed, %d cached", st.ID, st.State, st.GridSize, st.Executed, st.Cached)
	if st.Error != "" {
		line += " — " + st.Error
	}
	fmt.Fprintln(out, line)
	return nil
}

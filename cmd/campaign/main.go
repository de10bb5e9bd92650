// Command campaign drives scenario×experiment sweeps as one job
// against a fingerprint-keyed artifact store: the cross product of
// -experiments and -scenarios expands to a deterministic cell grid,
// cells already present in the store are served without re-simulating,
// and everything executed is persisted — so an interrupted campaign
// resumes where it stopped, a repeated campaign costs nothing, and
// -shard splits one campaign across independent processes.
//
// Usage:
//
//	campaign -experiments fig4,fig8 -scenarios paper,future-fab -store artifacts
//	campaign -quick -store artifacts            # every experiment, paper scenario, smoke scale
//	campaign -experiments genyield -generate "topos=hex-3x3-q16;sigmas=0.002,0.004" -store artifacts
//	                                            # generated-scenario grid (see internal/generate, cmd/explore)
//	campaign ... -list                          # dry run: print the cell grid + hit/miss status
//	campaign ... -shard 0/2 & campaign ... -shard 1/2   # split one campaign
//	campaign ... -resume=false                  # force re-execution, overwriting stored cells
//	campaign ... -json                          # machine-readable report on stdout
//
// Store administration (each runs instead of a campaign; exactly one
// admin verb per invocation):
//
//	campaign -store artifacts -verify           # audit every record; exit 1 naming bad files
//	campaign -store artifacts -backup dir       # snapshot every record into dir
//	campaign -store artifacts -restore dir      # copy a snapshot's records back, healing bad ones
//	campaign -store artifacts -prune            # delete broken records, strays, stale temps
//	campaign -store artifacts -gc -gc-keep 100  # evict least-recently-read records over the cap
//	campaign -store artifacts -pin nightly      # protect this grid's records from -gc
//	campaign -store artifacts -unpin nightly    # release that protection
//
// Daemon mode keeps one store open behind an HTTP API, so many
// clients share its cache and its worker budget (-slots jobs run
// concurrently; further submissions queue FIFO):
//
//	campaign -serve -store artifacts -addr :8080        # run the daemon
//	campaign -serve -generate "topos=..." -addr :8080   # daemon that resolves a generated grid (cmd/explore -addr)
//	campaign -submit -quick -addr :8080                 # queue a plan, print the job handle
//	campaign -submit -watch -json -addr :8080           # queue, stream events, print final status
//	campaign -job job-000001 -addr :8080                # one job's status (+ -watch to stream)
//	campaign -fetch fig8/0a1b2c3d4e5f -addr :8080       # one stored artifact by key
//	campaign -status -addr :8080                        # daemon + queue + store status
//	campaign -shutdown -addr :8080                      # graceful drain (SIGTERM works too)
//
// Interrupting the process (SIGINT/SIGTERM) cancels the in-flight
// cells promptly; completed cells stay in the store and are skipped on
// the next invocation. A daemon drains on the same signals: running
// jobs cancel cleanly, their completed cells stay persisted, and
// queued jobs report interrupted.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"chipletqc/internal/campaign"
	"chipletqc/internal/cli"
	"chipletqc/internal/daemon"
	"chipletqc/internal/generate"
	"chipletqc/internal/scenario"
	"chipletqc/internal/store"
	"chipletqc/internal/yield"
)

func main() { cli.Main("campaign", run) }

// run executes the tool against args, writing the report to out. It is
// the testable core of the binary.
func run(ctx context.Context, args []string, out, errw io.Writer) error {
	fs := cli.NewFlagSet("campaign", errw)
	var (
		experiments = fs.String("experiments", "", "comma-separated experiment names (default: every registered experiment)")
		scenarios   = fs.String("scenarios", "", "comma-separated device scenario names (default: paper)")
		genSpec     = fs.String("generate", "", "register a generated scenario grid `topos=...;sigmas=...;thresholds=...;links=...;base=...` and add its scenarios to the plan (with -serve: make the grid's names resolvable to submitted plans)")
		storeDir    = fs.String("store", "campaign-store", "artifact store directory; empty disables persistence")
		resume      = fs.Bool("resume", true, "serve cells already in the store instead of re-simulating; -resume=false forces re-execution")
		shardSpec   = fs.String("shard", "", "run only shard i of n of the cell grid, e.g. 0/2 (default: everything)")
		quick       = fs.Bool("quick", false, "reduced Monte Carlo batches (smoke scale)")
		trial       = cli.TrialFlags(fs)
		list        = fs.Bool("list", false, "print the expanded cell grid with store hit/miss status and exit")
		jsonOut     = fs.Bool("json", false, "write the campaign report as JSON to stdout instead of text")
		progress    = fs.Bool("progress", false, "stream per-cell events to the error stream")

		// Store admin verbs: each runs instead of a campaign.
		verify     = fs.Bool("verify", false, "admin: audit every store record (decode + identity cross-check); exit 1 naming bad files")
		backupDir  = fs.String("backup", "", "admin: snapshot every store record into this `directory`")
		restoreDir = fs.String("restore", "", "admin: copy records from this backup `directory` into the store, healing bad records")
		prune      = fs.Bool("prune", false, "admin: delete broken records, stray files, and stale temp files from the store")
		gcRun      = fs.Bool("gc", false, "admin: evict least-recently-read unpinned records until -gc-keep/-gc-max-bytes hold")
		gcKeep     = fs.Int("gc-keep", 0, "-gc record-count cap (0 = no count cap)")
		gcMaxBytes = fs.Int64("gc-max-bytes", 0, "-gc total-size cap in bytes (0 = no size cap)")
		pin        = fs.String("pin", "", "admin: pin this plan's stored cells under `label`, protecting them from -gc")
		unpin      = fs.String("unpin", "", "admin: remove every pin carrying `label` from the store")

		// Daemon mode and its client verbs.
		serve    = fs.Bool("serve", false, "run a campaign daemon on -addr over the store (empty -store keeps artifacts in memory)")
		addr     = fs.String("addr", ":8080", "daemon `address`: bind address with -serve, target for client verbs")
		slots    = fs.Int("slots", 0, "daemon: jobs running concurrently, sharing -workers; queued beyond that (0 = 2)")
		submit   = fs.Bool("submit", false, "client: submit this plan to the daemon at -addr and print the job handle")
		watch    = fs.Bool("watch", false, "client: with -submit or -job, stream the job's events and wait for its final status")
		jobID    = fs.String("job", "", "client: print the status of job `id` from the daemon at -addr")
		fetchKey = fs.String("fetch", "", "client: fetch the stored artifact for `experiment/fingerprint` from the daemon")
		dstatus  = fs.Bool("status", false, "client: print the daemon's queue and store status")
		shutdown = fs.Bool("shutdown", false, "client: ask the daemon to drain and exit")
	)
	if ok, err := cli.Parse(fs, args); !ok {
		return err
	}
	shard, err := campaign.ParseShard(*shardSpec)
	if err != nil {
		return err
	}
	scenarioNames := splitNames(*scenarios)
	if *genSpec != "" {
		genNames, err := registerGenerated(*genSpec)
		if err != nil {
			return err
		}
		scenarioNames = append(scenarioNames, genNames...)
	}
	plan := campaign.Plan{
		Experiments: splitNames(*experiments),
		Scenarios:   scenarioNames,
		Seed:        trial.Seed,
		Quick:       *quick,
	}
	if trial.Policy != (yield.PolicyOverride{}) {
		plan.Overrides = []campaign.Override{{PolicyOverride: trial.Policy}}
	}

	admin := adminRequest{
		verify:  *verify,
		backup:  *backupDir,
		restore: *restoreDir,
		prune:   *prune,
		gc:      *gcRun,
		policy:  store.GCPolicy{MaxRecords: *gcKeep, MaxBytes: *gcMaxBytes},
		pin:     *pin,
		unpin:   *unpin,
	}
	clientVerb, clientCount := "", 0
	for _, v := range []struct {
		name string
		on   bool
	}{
		{"-submit", *submit},
		{"-job", *jobID != ""},
		{"-fetch", *fetchKey != ""},
		{"-status", *dstatus},
		{"-shutdown", *shutdown},
	} {
		if v.on {
			clientVerb = v.name
			clientCount++
		}
	}
	if err := checkModeFlags(fs, *serve, clientVerb, clientCount, admin, *gcRun); err != nil {
		return err
	}

	if *serve {
		return runServe(ctx, *storeDir, *addr, trial.Workers, *slots, errw)
	}
	if clientCount == 1 {
		return runClient(ctx, clientArgs{
			verb:    clientVerb,
			addr:    *addr,
			plan:    plan,
			force:   !*resume,
			watch:   *watch,
			jobID:   *jobID,
			fetch:   *fetchKey,
			jsonOut: *jsonOut,
		}, out, errw)
	}

	if admin.verbs() > 0 {
		if *storeDir == "" {
			return cli.Usagef(fs, "store admin verbs need -store")
		}
		return runAdmin(*storeDir, admin, plan, shard, out)
	}

	var st store.Store
	if *storeDir != "" {
		fsStore, err := store.Open(*storeDir)
		if err != nil {
			return err
		}
		defer fsStore.Close()
		st = fsStore
	}

	if *list {
		return listCells(plan, shard, st, out)
	}

	opts := campaign.Options{
		Store:   st,
		Force:   !*resume,
		Workers: trial.Workers,
		Shard:   shard,
	}
	if *progress {
		opts.Progress = eventPrinter(errw)
	}
	rep, err := campaign.Run(ctx, plan, opts)
	if err != nil {
		return err
	}

	if *jsonOut {
		return writeJSON(out, rep)
	}
	for _, r := range rep.Cells {
		if r.Cached {
			fmt.Fprintf(out, "%-10s %s (store hit)\n", "cached", r.Cell.ID())
		} else {
			fmt.Fprintf(out, "%-10s %s (%.1fs, %d trials)\n",
				"ran", r.Cell.ID(), r.Artifact.WallSeconds, r.Artifact.Trials)
		}
	}
	where := "no store"
	if st != nil {
		where = "store " + *storeDir
	}
	shardNote := ""
	if s := rep.Shard; s != "" {
		shardNote = fmt.Sprintf(", shard %s of a %d-cell grid", s, rep.GridSize)
	}
	fmt.Fprintf(out, "campaign: %d cells, %d executed, %d cached (%s%s)\n",
		rep.Total, rep.Executed, rep.Cached, where, shardNote)
	return nil
}

// registerGenerated expands a -generate grid spec (internal/generate's
// compact axes syntax) and registers its scenarios in this process's
// registry, returning their names in grid order. Registration is
// idempotent, so a daemon restarted with the same grid, or a sharded
// rerun, resolves the same names to the same fingerprints.
func registerGenerated(spec string) ([]string, error) {
	baseName, axes, err := generate.ParseAxesSpec(spec)
	if err != nil {
		return nil, err
	}
	base, err := scenario.Lookup(baseName)
	if err != nil {
		return nil, err
	}
	gens, err := generate.Scenarios(base, axes)
	if err != nil {
		return nil, err
	}
	return generate.Ensure(gens)
}

// splitNames parses a comma-separated name list, dropping empties.
func splitNames(s string) []string {
	var out []string
	for _, name := range strings.Split(s, ",") {
		if name = strings.TrimSpace(name); name != "" {
			out = append(out, name)
		}
	}
	return out
}

// listCells renders the dry-run grid view: every cell of this shard
// with its store key and hit/miss status.
func listCells(plan campaign.Plan, shard campaign.Shard, st store.Store, out io.Writer) error {
	grid, err := campaign.Expand(plan)
	if err != nil {
		return err
	}
	if err := shard.Validate(); err != nil {
		return err
	}
	cells := shard.Filter(grid)
	fmt.Fprintf(out, "%-5s %-30s %-30s %s\n", "IDX", "CELL", "KEY", "STATUS")
	hits := 0
	for _, c := range cells {
		status := "miss"
		if st != nil && st.Has(c.Experiment, c.Fingerprint) {
			status = "hit"
			hits++
		}
		fmt.Fprintf(out, "%-5d %-30s %-30s %s\n", c.Index, c.ID(), c.Key(), status)
	}
	fmt.Fprintf(out, "%d cells (grid %d), %d store hits\n", len(cells), len(grid), hits)
	return nil
}

// writeJSON renders v as indented JSON — the CLI's machine face;
// scripts grep the two-space-indented keys.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// checkModeFlags enforces that every explicitly-set flag is meaningful
// in the selected mode. The failure this prevents is silent: a
// -gc-keep without -gc, or a -shard next to -verify, parses fine and
// then does nothing, so the user believes a cap or a restriction was
// applied when it was not. Each rejection names the conflict.
func checkModeFlags(fs *flag.FlagSet, serve bool, clientVerb string, clientCount int, admin adminRequest, gcRun bool) error {
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if (explicit["gc-keep"] || explicit["gc-max-bytes"]) && !gcRun {
		return cli.Usagef(fs, "-gc-keep and -gc-max-bytes configure -gc, which was not requested; add -gc or drop them")
	}
	adminCount := admin.verbs()
	switch {
	case adminCount > 1:
		return cli.Usagef(fs, "pick exactly one admin verb (-verify, -backup, -restore, -prune, -gc, -pin, -unpin)")
	case clientCount > 1:
		return cli.Usagef(fs, "pick exactly one client verb (-submit, -job, -fetch, -status, -shutdown)")
	case serve && (clientCount > 0 || adminCount > 0):
		return cli.Usagef(fs, "-serve runs the daemon; it cannot be combined with client or admin verbs")
	case clientCount > 0 && adminCount > 0:
		return cli.Usagef(fs, "%s talks to a daemon and %s operates on a local store; run them separately", clientVerb, admin.verbName())
	}

	planFlags := []string{"experiments", "scenarios", "generate", "quick", "seed", "precision", "maxtrials", "relprecision", "sampling"}
	allowed := map[string]bool{}
	add := func(names ...string) {
		for _, n := range names {
			allowed[n] = true
		}
	}
	var mode string
	switch {
	case serve:
		mode = "-serve"
		add("serve", "addr", "slots", "store", "workers", "generate")
	case clientCount == 1:
		mode = clientVerb
		add(strings.TrimPrefix(clientVerb, "-"), "addr", "json")
		switch clientVerb {
		case "-submit":
			add(planFlags...)
			add("resume", "watch")
		case "-job":
			add("watch")
		}
	case adminCount == 1:
		mode = admin.verbName()
		add(strings.TrimPrefix(mode, "-"), "store")
		switch mode {
		case "-gc":
			add("gc-keep", "gc-max-bytes")
		case "-pin":
			// -pin addresses this plan's (optionally sharded) grid.
			add(planFlags...)
			add("shard")
		}
	default:
		mode = "a campaign run"
		add(planFlags...)
		add("store", "resume", "shard", "workers", "list", "json", "progress")
	}
	var stray []string
	for name := range explicit {
		if !allowed[name] {
			stray = append(stray, "-"+name)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		return cli.Usagef(fs, "%s %s no effect with %s; drop %s or change the mode",
			strings.Join(stray, ", "), plural(len(stray), "has", "have"), mode, plural(len(stray), "it", "them"))
	}
	return nil
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

// runServe opens (or fabricates) the store and runs the daemon until a
// signal or a /v1/shutdown drains it.
func runServe(ctx context.Context, storeDir, addr string, workers, slots int, errw io.Writer) error {
	var st store.Store
	if storeDir == "" {
		// An addressable daemon is useful without a directory: repeat
		// submissions still hit the cache for the process lifetime.
		fmt.Fprintln(errw, "campaign: -serve without -store keeps artifacts in memory; they vanish when the daemon exits")
		st = store.OpenMem()
	} else {
		fsStore, err := store.Open(storeDir)
		if err != nil {
			return err
		}
		defer fsStore.Close()
		st = fsStore
	}
	srv := daemon.New(daemon.Options{
		Store:   st,
		Workers: workers,
		Slots:   slots,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(errw, format+"\n", args...)
		},
	})
	return srv.ListenAndServe(ctx, addr)
}

// clientArgs carries one client-verb invocation.
type clientArgs struct {
	verb    string
	addr    string
	plan    campaign.Plan
	force   bool
	watch   bool
	jobID   string
	fetch   string
	jsonOut bool
}

// runClient dispatches one client verb against the daemon at -addr.
func runClient(ctx context.Context, c clientArgs, out, errw io.Writer) error {
	cl := daemon.NewClient(c.addr)
	switch c.verb {
	case "-submit":
		st, err := cl.Submit(ctx, c.plan, c.force)
		if err != nil {
			return err
		}
		if !c.watch {
			return printJob(out, st, c.jsonOut)
		}
		fmt.Fprintf(errw, "submitted %s (%d cells); watching\n", st.ID, st.GridSize)
		return watchJob(ctx, cl, st.ID, c.jsonOut, out, errw)
	case "-job":
		if c.watch {
			return watchJob(ctx, cl, c.jobID, c.jsonOut, out, errw)
		}
		st, err := cl.Job(ctx, c.jobID)
		if err != nil {
			return err
		}
		return printJob(out, st, c.jsonOut)
	case "-fetch":
		name, fingerprint, ok := strings.Cut(c.fetch, "/")
		if !ok || name == "" || fingerprint == "" {
			fmt.Fprintln(errw, "campaign: -fetch wants experiment/fingerprint, e.g. -fetch fig8/0a1b2c3d4e5f")
			return cli.ErrUsage
		}
		a, found, err := cl.Artifact(ctx, name, fingerprint)
		if err != nil {
			return err
		}
		if !found {
			return fmt.Errorf("daemon at %s holds no artifact for (%s, %s)", cl.BaseURL(), name, fingerprint)
		}
		if c.jsonOut {
			return a.WriteJSON(out)
		}
		return a.WriteText(out)
	case "-status":
		st, err := cl.Status(ctx)
		if err != nil {
			return err
		}
		if c.jsonOut {
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
	case "-shutdown":
		if err := cl.Shutdown(ctx); err != nil {
			return err
		}
		fmt.Fprintf(out, "daemon %s: draining\n", cl.BaseURL())
		return nil
	}
	return nil
}

// watchJob streams one job's events to the error stream and renders
// its terminal status; a job that did not finish done fails the
// invocation so scripts can gate on the exit code.
func watchJob(ctx context.Context, cl *daemon.Client, id string, jsonOut bool, out, errw io.Writer) error {
	printer := eventPrinter(errw)
	final, err := cl.Watch(ctx, id, func(e daemon.EventJSON) {
		ev := campaign.Event{Cell: e.Cell, Phase: e.Phase}
		if e.Error != "" {
			ev.Err = errors.New(e.Error)
		}
		printer(ev)
	})
	if err != nil {
		return err
	}
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

// adminRequest collects the store admin flags; at most one verb may be
// set per invocation, because each verb is a complete program.
type adminRequest struct {
	verify  bool
	backup  string
	restore string
	prune   bool
	gc      bool
	policy  store.GCPolicy
	pin     string
	unpin   string
}

// verbs counts how many admin verbs the invocation selected.
func (a adminRequest) verbs() int {
	n := 0
	for _, on := range []bool{a.verify, a.backup != "", a.restore != "", a.prune, a.gc, a.pin != "", a.unpin != ""} {
		if on {
			n++
		}
	}
	return n
}

// verbName names the selected admin verb for error messages.
func (a adminRequest) verbName() string {
	switch {
	case a.verify:
		return "-verify"
	case a.backup != "":
		return "-backup"
	case a.restore != "":
		return "-restore"
	case a.prune:
		return "-prune"
	case a.gc:
		return "-gc"
	case a.pin != "":
		return "-pin"
	case a.unpin != "":
		return "-unpin"
	}
	return ""
}

// runAdmin opens the store and dispatches the one selected admin verb.
func runAdmin(dir string, a adminRequest, plan campaign.Plan, shard campaign.Shard, out io.Writer) error {
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	switch {
	case a.verify:
		return verifyStore(st, out)
	case a.backup != "":
		n, err := st.Backup(a.backup)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "store %s: backed up %d records to %s\n", dir, n, a.backup)
		return nil
	case a.restore != "":
		n, err := st.Restore(a.restore)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "store %s: restored %d records from %s\n", dir, n, a.restore)
		return nil
	case a.prune:
		rep, err := st.Prune()
		if err != nil {
			return err
		}
		for _, key := range rep.RemovedRecords {
			fmt.Fprintf(out, "pruned record %s\n", key)
		}
		for _, name := range rep.RemovedStrays {
			fmt.Fprintf(out, "pruned stray  %s\n", name)
		}
		fmt.Fprintf(out, "store %s: %d records checked, %d broken records, %d strays, %d stale temps removed\n",
			dir, rep.Checked, len(rep.RemovedRecords), len(rep.RemovedStrays), rep.RemovedTemps)
		return nil
	case a.gc:
		rep, err := st.GC(a.policy)
		if err != nil {
			return err
		}
		for _, key := range rep.EvictedKeys {
			fmt.Fprintf(out, "evicted %s\n", key)
		}
		fmt.Fprintf(out, "store %s: evicted %d of %d records (%d pinned), freed %d bytes, kept %d (%d bytes)\n",
			dir, rep.Evicted, rep.Examined, rep.Pinned, rep.FreedBytes, rep.Kept, rep.KeptBytes)
		return nil
	case a.pin != "":
		return pinCells(st, plan, shard, a.pin, out)
	case a.unpin != "":
		n, err := st.Unpin(a.unpin)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "store %s: released %d pins labelled %q\n", dir, n, a.unpin)
		return nil
	}
	return nil
}

// verifyStore audits every record and renders the findings; any issue
// fails the invocation so scripts can gate on the exit status.
func verifyStore(st *store.FS, out io.Writer) error {
	rep, err := store.Verify(st)
	if err != nil {
		return err
	}
	for _, issue := range rep.Issues {
		fmt.Fprintf(out, "BAD %-30s %s: %s\n", issue.Key, issue.Location, issue.Detail)
	}
	if !rep.OK() {
		return fmt.Errorf("store: verify found %d issues across %d records (restore from a backup, or -prune / delete the files above)",
			len(rep.Issues), rep.Checked)
	}
	fmt.Fprintf(out, "store %s: %d records verified, 0 issues\n", st.Dir(), rep.Checked)
	return nil
}

// pinCells pins every stored cell of this invocation's plan grid under
// the label, so a later -gc keeps the campaign warm.
func pinCells(st *store.FS, plan campaign.Plan, shard campaign.Shard, label string, out io.Writer) error {
	grid, err := campaign.Expand(plan)
	if err != nil {
		return err
	}
	if err := shard.Validate(); err != nil {
		return err
	}
	cells := shard.Filter(grid)
	pinned := 0
	for _, c := range cells {
		if !st.Has(c.Experiment, c.Fingerprint) {
			continue
		}
		if err := st.Pin(label, c.Experiment, c.Fingerprint); err != nil {
			return err
		}
		pinned++
	}
	fmt.Fprintf(out, "store %s: pinned %d of %d cells under %q\n", st.Dir(), pinned, len(cells), label)
	return nil
}

// eventPrinter serialises concurrent campaign events onto one stream.
func eventPrinter(w io.Writer) func(campaign.Event) {
	var mu sync.Mutex
	return func(e campaign.Event) {
		mu.Lock()
		defer mu.Unlock()
		if e.Err != nil {
			fmt.Fprintf(w, "  %s %s: %v\n", e.Phase, e.Cell.ID(), e.Err)
			return
		}
		fmt.Fprintf(w, "  %s %s\n", e.Phase, e.Cell.ID())
	}
}

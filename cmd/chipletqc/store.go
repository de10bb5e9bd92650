package main

import (
	"context"
	"flag"
	"fmt"
	"io"

	"chipletqc/internal/campaign"
	"chipletqc/internal/cli"
	"chipletqc/internal/store"
)

// adminVerb declares -store and returns an action that opens the store
// and runs act on it with the verb's operand.
func adminVerb(fs *flag.FlagSet, act func(st *store.FS, arg string, out io.Writer) error) action {
	dir := fs.String("store", "campaign-store", "artifact store directory")
	return func(_ context.Context, arg string, out, _ io.Writer) error {
		if *dir == "" {
			return cli.Usagef(fs, "store admin verbs need -store")
		}
		st, err := store.Open(*dir)
		if err != nil {
			return err
		}
		defer st.Close()
		return act(st, arg, out)
	}
}

// verifyFlags declares the verify verb: audit every record (decode +
// identity cross-check); any issue fails the invocation so scripts can
// gate on the exit status.
func verifyFlags(fs *flag.FlagSet) action {
	return adminVerb(fs, func(st *store.FS, _ string, out io.Writer) error {
		rep, err := store.Verify(st)
		if err != nil {
			return err
		}
		for _, issue := range rep.Issues {
			fmt.Fprintf(out, "BAD %-30s %s: %s\n", issue.Key, issue.Location, issue.Detail)
		}
		if !rep.OK() {
			return fmt.Errorf("store: verify found %d issues across %d records (restore from a backup, or prune / delete the files above)",
				len(rep.Issues), rep.Checked)
		}
		fmt.Fprintf(out, "store %s: %d records verified, 0 issues\n", st.Dir(), rep.Checked)
		return nil
	})
}

// backupFlags declares the backup verb.
func backupFlags(fs *flag.FlagSet) action {
	return adminVerb(fs, func(st *store.FS, dir string, out io.Writer) error {
		n, err := st.Backup(dir)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "store %s: backed up %d records to %s\n", st.Dir(), n, dir)
		return nil
	})
}

// restoreFlags declares the restore verb.
func restoreFlags(fs *flag.FlagSet) action {
	return adminVerb(fs, func(st *store.FS, dir string, out io.Writer) error {
		n, err := st.Restore(dir)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "store %s: restored %d records from %s\n", st.Dir(), n, dir)
		return nil
	})
}

// pruneFlags declares the prune verb.
func pruneFlags(fs *flag.FlagSet) action {
	return adminVerb(fs, func(st *store.FS, _ string, out io.Writer) error {
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
			st.Dir(), rep.Checked, len(rep.RemovedRecords), len(rep.RemovedStrays), rep.RemovedTemps)
		return nil
	})
}

// gcFlags declares the gc verb: evict least-recently-read unpinned
// records until the caps hold.
func gcFlags(fs *flag.FlagSet) action {
	var policy store.GCPolicy
	fs.IntVar(&policy.MaxRecords, "gc-keep", 0, "record-count cap (0 = no count cap)")
	fs.Int64Var(&policy.MaxBytes, "gc-max-bytes", 0, "total-size cap in bytes (0 = no size cap)")
	gc := adminVerb(fs, func(st *store.FS, _ string, out io.Writer) error {
		rep, err := st.GC(policy)
		if err != nil {
			return err
		}
		for _, key := range rep.EvictedKeys {
			fmt.Fprintf(out, "evicted %s\n", key)
		}
		fmt.Fprintf(out, "store %s: evicted %d of %d records (%d pinned), freed %d bytes, kept %d (%d bytes)\n",
			st.Dir(), rep.Evicted, rep.Examined, rep.Pinned, rep.FreedBytes, rep.Kept, rep.KeptBytes)
		return nil
	})
	return func(ctx context.Context, arg string, out, errw io.Writer) error {
		if err := cli.AtLeast(fs, 0, "gc-keep", "gc-max-bytes"); err != nil {
			return err
		}
		return gc(ctx, arg, out, errw)
	}
}

// pinFlags declares the pin verb: pin every stored cell of the plan's
// (optionally sharded) grid under the label, so a later gc keeps the
// campaign warm.
func pinFlags(fs *flag.FlagSet) action {
	spec := planFlags(fs, cli.Seed)
	shardSpec := fs.String("shard", "", "pin only shard i of n of the cell grid, e.g. 0/2 (default: everything)")
	return adminVerb(fs, func(st *store.FS, label string, out io.Writer) error {
		plan, err := spec.plan()
		if err != nil {
			return err
		}
		shard, err := campaign.ParseShard(*shardSpec)
		if err != nil {
			return err
		}
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
	})
}

// unpinFlags declares the unpin verb.
func unpinFlags(fs *flag.FlagSet) action {
	return adminVerb(fs, func(st *store.FS, label string, out io.Writer) error {
		n, err := st.Unpin(label)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "store %s: released %d pins labelled %q\n", st.Dir(), n, label)
		return nil
	})
}

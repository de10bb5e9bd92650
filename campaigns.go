package chipletqc

import (
	"context"
	"errors"

	"chipletqc/internal/campaign"
	"chipletqc/internal/store"
)

// Campaign re-exports: a campaign is a scenario×experiment sweep run
// as one job against a fingerprint-keyed artifact store. A
// CampaignPlan names sets of experiments, scenarios, and config
// overrides; RunCampaign expands it into a deterministic cell grid,
// executes the cells concurrently, and persists every Artifact into
// the store — so an identical cell is a cache hit that skips the
// simulation entirely, an interrupted campaign resumes by running only
// the missing cells, and independent processes split one campaign with
// disjoint, exhaustive shards:
//
//	st, _ := chipletqc.OpenStore("artifacts")
//	defer st.Close()
//	report, _ := chipletqc.RunCampaign(ctx, chipletqc.CampaignPlan{
//		Experiments: []string{"fig4", "fig8"},
//		Scenarios:   []string{"paper", "future-fab"},
//		Seed:        1,
//	}, chipletqc.CampaignOptions{Store: st})
//	fmt.Println(report.Executed, "simulated,", report.Cached, "from the store")
//
// ArtifactStore is an interface: OpenStore returns the filesystem
// backend (manifest-indexed, GC-able, snapshot-able), OpenMemStore an
// in-memory backend for tests and ephemeral sweeps, and any custom
// backend passing the internal/store/storetest conformance suite slots
// in the same way. `chipletqc campaign` wraps exactly this API
// (-experiments, -scenarios, -store, -resume, -shard i/n, -json), and
// the store admin verbs (verify, backup, restore, prune, gc) sit
// beside it.
type (
	// CampaignPlan is the cross product a campaign runs: experiment
	// names × scenario names × config overrides.
	CampaignPlan = campaign.Plan
	// CampaignOverride is one named set of per-run config adjustments.
	CampaignOverride = campaign.Override
	// CampaignCell is one expanded unit of a campaign grid.
	CampaignCell = campaign.Cell
	// CampaignShard selects a deterministic grid partition (i of n).
	CampaignShard = campaign.Shard
	// CampaignOptions configures a campaign run (store, shard, force,
	// worker budget, progress).
	CampaignOptions = campaign.Options
	// CampaignEvent is one campaign progress observation.
	CampaignEvent = campaign.Event
	// CampaignPhase labels a campaign event (run/cached/done/error).
	CampaignPhase = campaign.Phase
	// CampaignCellResult is one cell's outcome: artifact + provenance.
	CampaignCellResult = campaign.CellResult
	// CampaignReport summarises a completed campaign run.
	CampaignReport = campaign.Report
	// ArtifactStore is the pluggable artifact persistence contract:
	// a store keyed by (experiment name, config fingerprint) with
	// atomic-visibility Put and self-identifying records.
	ArtifactStore = store.Store
	// StoreVerifyReport summarises a store audit (VerifyStore).
	StoreVerifyReport = store.VerifyReport
	// StoreVerifyIssue is one record the audit could not vouch for.
	StoreVerifyIssue = store.VerifyIssue
	// StoreGCPolicy bounds a filesystem store for GCStore.
	StoreGCPolicy = store.GCPolicy
	// StoreGCReport summarises one GCStore pass.
	StoreGCReport = store.GCReport
	// StorePruneReport summarises one PruneStore pass.
	StorePruneReport = store.PruneReport
)

// Campaign event phases.
const (
	CampaignPhaseRun    = campaign.PhaseRun
	CampaignPhaseCached = campaign.PhaseCached
	CampaignPhaseDone   = campaign.PhaseDone
	CampaignPhaseError  = campaign.PhaseError
)

// OpenStore opens (creating if needed) a filesystem artifact store
// rooted at dir. Records are one transparent JSON file per
// (experiment, config fingerprint) key, written atomically, safe to
// share between concurrent campaign shards; a manifest index makes
// existence checks and listings O(1) instead of per-key filesystem
// stats. Close the store when done to flush the index.
func OpenStore(dir string) (ArtifactStore, error) {
	s, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// OpenMemStore returns an empty in-memory artifact store: the same
// cache contract with no filesystem behind it, for tests and
// ephemeral sweeps whose artifacts should vanish with the process.
func OpenMemStore() ArtifactStore { return store.OpenMem() }

// VerifyStore audits every record of any store backend: keys must
// parse, records must decode, and each record must identify as exactly
// its key. The report names every offending record (with its file path
// on the filesystem backend) so bad records can be deleted, pruned, or
// restored from a backup.
func VerifyStore(s ArtifactStore) (StoreVerifyReport, error) { return store.Verify(s) }

// BackupStore copies every record of s into dstDir (byte-for-byte on
// the filesystem backend) and returns the record count. The backup
// directory is itself a complete store: open it directly, or feed it
// to RestoreStore.
func BackupStore(s ArtifactStore, dstDir string) (int, error) { return store.Backup(s, dstDir) }

// RestoreStore copies every record found in srcDir (a BackupStore
// directory) into s, overwriting same-key records — healing corrupted
// ones — and returns the record count.
func RestoreStore(s ArtifactStore, srcDir string) (int, error) { return store.Restore(s, srcDir) }

// PruneStore deletes everything in a filesystem store that cannot
// serve a cache hit: records that fail to decode or identify as their
// key, stray files, and stale temp files from interrupted writes.
func PruneStore(s ArtifactStore) (StorePruneReport, error) {
	fs, err := fsStore(s)
	if err != nil {
		return StorePruneReport{}, err
	}
	return fs.Prune()
}

// GCStore evicts least-recently-read unpinned records from a
// filesystem store until it fits the policy's record/byte caps.
func GCStore(s ArtifactStore, p StoreGCPolicy) (StoreGCReport, error) {
	fs, err := fsStore(s)
	if err != nil {
		return StoreGCReport{}, err
	}
	return fs.GC(p)
}

// fsStore unwraps the filesystem backend behind the interface for the
// admin operations that are inherently filesystem-bound.
func fsStore(s ArtifactStore) (*store.FS, error) {
	if fs, ok := s.(*store.FS); ok {
		return fs, nil
	}
	return nil, errNotFSStore
}

// errNotFSStore rejects filesystem-only admin verbs on other backends.
var errNotFSStore = errors.New("store: this operation requires a filesystem store (OpenStore)")

// RunCampaign expands the plan against the experiment and scenario
// registries and executes it: cached cells are served from the store,
// missing cells are simulated and persisted. Cancelling the context
// stops the campaign within one in-flight cell trial per worker;
// everything persisted before the interruption is reused on the next
// run.
func RunCampaign(ctx context.Context, p CampaignPlan, opts CampaignOptions) (CampaignReport, error) {
	return campaign.Run(ctx, p, opts)
}

// ExpandCampaign returns the plan's full ordered cell grid without
// running it — the dry-run view `chipletqc campaign -list` renders.
func ExpandCampaign(p CampaignPlan) ([]CampaignCell, error) { return campaign.Expand(p) }

// ParseCampaignShard parses the CLI shard form "i/n" ("" = unsharded).
func ParseCampaignShard(s string) (CampaignShard, error) { return campaign.ParseShard(s) }

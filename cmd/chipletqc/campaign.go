package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"strings"
	"sync"

	"chipletqc/internal/campaign"
	"chipletqc/internal/cli"
	"chipletqc/internal/daemon"
	"chipletqc/internal/experiment"
	"chipletqc/internal/generate"
	"chipletqc/internal/report"
	"chipletqc/internal/scenario"
	"chipletqc/internal/store"
	"chipletqc/internal/yield"
)

// planSpec holds the flags that describe a campaign plan: the
// experiment x scenario grid, an optional generated scenario grid, the
// scale, the seed and a trial-policy override.
type planSpec struct {
	experiments, scenarios, generate *string
	quick                            *bool
	trial                            *cli.Trial
}

// generateFlag declares -generate.
func generateFlag(fs *flag.FlagSet) *string {
	return fs.String("generate", "", "generated scenario grid `topos=...;sigmas=...;thresholds=...;links=...;base=...` (internal/generate's axes syntax)")
}

// planFlags declares a plan's flags plus the selected trial flags
// (-seed, and -workers for verbs that run cells locally).
func planFlags(fs *flag.FlagSet, which cli.TrialSet) *planSpec {
	return &planSpec{
		experiments: fs.String("experiments", "", "comma-separated experiment names (default: every registered experiment)"),
		scenarios:   fs.String("scenarios", "", "comma-separated device scenario names (default: paper)"),
		generate:    generateFlag(fs),
		quick:       fs.Bool("quick", false, "reduced Monte Carlo batches (smoke scale)"),
		trial:       cli.TrialFlags(fs, which|cli.Policy),
	}
}

// plan registers the -generate grid, whose scenarios join -scenarios,
// and returns the plan.
func (p *planSpec) plan() (campaign.Plan, error) {
	names := splitNames(*p.scenarios)
	if *p.generate != "" {
		_, gen, err := registerGenerated(*p.generate)
		if err != nil {
			return campaign.Plan{}, err
		}
		names = append(names, gen...)
	}
	plan := campaign.Plan{
		Experiments: splitNames(*p.experiments),
		Scenarios:   names,
		Seed:        p.trial.Seed,
		Quick:       *p.quick,
	}
	if p.trial.Policy != (yield.PolicyOverride{}) {
		plan.Overrides = []campaign.Override{{PolicyOverride: p.trial.Policy}}
	}
	return plan, nil
}

// registerGenerated expands a -generate grid spec and registers its
// scenarios in this process's registry, returning them and their names
// in grid order. Registration is idempotent, so a daemon restarted with
// the same grid, or a sharded rerun, resolves the same names to the
// same fingerprints.
func registerGenerated(spec string) ([]generate.Gen, []string, error) {
	baseName, axes, err := generate.ParseAxesSpec(spec)
	if err != nil {
		return nil, nil, err
	}
	base, err := scenario.Lookup(baseName)
	if err != nil {
		return nil, nil, err
	}
	gens, err := generate.Scenarios(base, axes)
	if err != nil {
		return nil, nil, err
	}
	names, err := generate.Ensure(gens)
	return gens, names, err
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

// localRun holds the flags of a run that executes cells in this
// process against a store: campaign and explore.
type localRun struct {
	store, shard          *string
	resume, list, jsonOut *bool
	progress              *bool
	workers               *int
}

// localRunFlags declares a local run's flags; storeDir is -store's
// default.
func localRunFlags(fs *flag.FlagSet, storeDir string) *localRun {
	return &localRun{
		store:    fs.String("store", storeDir, "artifact store directory; empty disables persistence"),
		resume:   fs.Bool("resume", true, "serve cells already in the store instead of re-simulating; -resume=false forces re-execution"),
		shard:    fs.String("shard", "", "run only shard i of n of the cell grid, e.g. 0/2 (default: everything)"),
		list:     fs.Bool("list", false, "print the expanded cell grid with store hit/miss status and exit"),
		jsonOut:  fs.Bool("json", false, "write the result as JSON to stdout"),
		progress: fs.Bool("progress", false, "stream per-cell events to the error stream"),
		workers:  &cli.TrialFlags(fs, cli.Workers).Workers,
	}
}

// execute opens the store and either lists plan's cells (-list) or runs
// them and hands the report and store to finish.
func (r *localRun) execute(ctx context.Context, plan campaign.Plan, out, errw io.Writer,
	finish func(rep campaign.Report, st store.Store, where string) error) error {
	shard, err := campaign.ParseShard(*r.shard)
	if err != nil {
		return err
	}
	var st store.Store
	where := "no store"
	if *r.store != "" {
		fsStore, err := store.Open(*r.store)
		if err != nil {
			return err
		}
		defer fsStore.Close()
		st, where = fsStore, "store "+*r.store
	}
	if *r.list {
		return listCells(plan, shard, st, out)
	}
	opts := campaign.Options{Store: st, Force: !*r.resume, Workers: *r.workers, Shard: shard}
	if *r.progress {
		opts.Progress = eventPrinter(errw)
	}
	rep, err := campaign.Run(ctx, plan, opts)
	if err != nil {
		return err
	}
	return finish(rep, st, where)
}

// campaignFlags declares the campaign verb: the cross product of
// -experiments and -scenarios expands to a deterministic cell grid;
// cells already in the store are served without re-simulating and
// everything executed is persisted, so an interrupted campaign resumes
// where it stopped and -shard splits one campaign across processes.
func campaignFlags(fs *flag.FlagSet) action {
	spec := planFlags(fs, cli.Seed)
	local := localRunFlags(fs, "campaign-store")
	return func(ctx context.Context, _ string, out, errw io.Writer) error {
		plan, err := spec.plan()
		if err != nil {
			return err
		}
		return local.execute(ctx, plan, out, errw, func(rep campaign.Report, _ store.Store, where string) error {
			if *local.jsonOut {
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
			shardNote := ""
			if s := rep.Shard; s != "" {
				shardNote = fmt.Sprintf(", shard %s of a %d-cell grid", s, rep.GridSize)
			}
			fmt.Fprintf(out, "campaign: %d cells, %d executed, %d cached (%s%s)\n",
				rep.Total, rep.Executed, rep.Cached, where, shardNote)
			return nil
		})
	}
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
	width := 30
	for _, c := range cells {
		width = max(width, len(c.ID()))
	}
	fmt.Fprintf(out, "%-5s %-*s %-30s %s\n", "IDX", width, "CELL", "KEY", "STATUS")
	hits := 0
	for _, c := range cells {
		status := "miss"
		if st != nil && st.Has(c.Experiment, c.Fingerprint) {
			status = "hit"
			hits++
		}
		fmt.Fprintf(out, "%-5d %-*s %-30s %s\n", c.Index, width, c.ID(), c.Key(), status)
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

// exploreFlags declares the explore verb: a generated design-space
// grid (topology families crossed with fabrication-precision,
// collision-threshold and link-error axes) runs as a genyield campaign,
// locally or on a daemon started with the same -generate grid, and the
// Pareto frontier of yield versus fabrication spread versus device size
// goes to stdout. The frontier holds only deterministic fields, so its
// JSON is byte-identical across reruns and shardings; the run summary
// goes to the error stream.
func exploreFlags(fs *flag.FlagSet) action {
	var (
		genSpec = generateFlag(fs)
		quick   = fs.Bool("quick", false, "reduced Monte Carlo batches (smoke scale)")
		trial   = cli.TrialFlags(fs, cli.Seed)
		local   = localRunFlags(fs, "explore-store")
		addr    = fs.String("addr", "", "daemon `address`: run cells on a campaign daemon instead of locally (it must serve the same -generate grid)")
	)
	return func(ctx context.Context, _ string, out, errw io.Writer) error {
		if *genSpec == "" {
			return cli.Usagef(fs, "no grid; set -generate (e.g. -generate topos=hex-3x3-q16)")
		}
		gens, names, err := registerGenerated(*genSpec)
		if err != nil {
			return err
		}
		byName := make(map[string]generate.Gen, len(gens))
		for _, g := range gens {
			byName[g.Scenario.Name] = g
		}
		plan := campaign.Plan{
			Experiments: []string{experiment.GenYieldName},
			Scenarios:   names,
			Seed:        trial.Seed,
			Quick:       *quick,
		}
		cells, err := campaign.Expand(plan)
		if err != nil {
			return err
		}
		// frontier reads every grid cell back, including cells another
		// shard ran, so a complete store always yields the full,
		// shard-independent frontier; cells nobody has run yet are
		// counted as missing.
		frontier := func(get func(c campaign.Cell) (experiment.Artifact, bool, error)) ([]generate.Point, int, int, error) {
			var points []generate.Point
			missing := 0
			for _, c := range cells {
				a, ok, err := get(c)
				if err != nil {
					return nil, 0, 0, err
				}
				if !ok {
					missing++
					continue
				}
				p, err := generate.PointFromArtifact(byName[c.Scenario], a)
				if err != nil {
					return nil, 0, 0, err
				}
				points = append(points, p)
			}
			return points, generate.MarkPareto(points), missing, nil
		}

		if *addr != "" {
			cl := daemon.NewClient(*addr)
			final, err := submitAndWatch(ctx, cl, plan, !*local.resume, nil)
			if err != nil {
				return err
			}
			if final.Error != "" {
				return fmt.Errorf("daemon job %s failed: %s (a daemon serving generated grids needs chipletqc serve -generate)", final.ID, final.Error)
			}
			points, pareto, missing, err := frontier(func(c campaign.Cell) (experiment.Artifact, bool, error) {
				return cl.Artifact(ctx, c.Experiment, c.Fingerprint)
			})
			if err != nil {
				return err
			}
			if missing > 0 {
				return fmt.Errorf("daemon finished job %s but holds no artifact for %d cells", final.ID, missing)
			}
			fmt.Fprintf(errw, "explore: %d-cell grid, %d executed, %d cached, %d frontier points (daemon %s, job %s)\n",
				final.GridSize, final.Executed, final.Cached, pareto, *addr, final.ID)
			return writeFrontier(out, plan, points, pareto, *local.jsonOut)
		}

		return local.execute(ctx, plan, out, errw, func(rep campaign.Report, st store.Store, where string) error {
			fromRun := make(map[string]experiment.Artifact, len(rep.Cells))
			for _, r := range rep.Cells {
				fromRun[r.Cell.Fingerprint] = r.Artifact
			}
			points, pareto, missing, err := frontier(func(c campaign.Cell) (experiment.Artifact, bool, error) {
				if a, ok := fromRun[c.Fingerprint]; ok || st == nil {
					return a, ok, nil
				}
				return st.Get(c.Experiment, c.Fingerprint)
			})
			if err != nil {
				return err
			}
			shardNote := ""
			if s := rep.Shard; s != "" {
				shardNote = fmt.Sprintf(", shard %s", s)
			}
			if missing > 0 {
				shardNote += fmt.Sprintf(", %d cells awaiting other shards", missing)
			}
			fmt.Fprintf(errw, "explore: %d-cell grid, %d executed, %d cached, %d frontier points (%s%s)\n",
				rep.GridSize, rep.Executed, rep.Cached, pareto, where, shardNote)
			return writeFrontier(out, plan, points, pareto, *local.jsonOut)
		})
	}
}

// frontier is the machine face of explore: grid identity plus every
// evaluated point. All fields are deterministic for a given grid, seed,
// and scale, so the JSON is byte-stable across reruns and shardings.
type frontier struct {
	Experiment   string           `json:"experiment"`
	Seed         int64            `json:"seed"`
	Quick        bool             `json:"quick"`
	GridSize     int              `json:"grid_size"`
	ParetoPoints int              `json:"pareto_points"`
	Points       []generate.Point `json:"points"`
}

// writeFrontier renders the evaluated points: indented JSON with
// -json, an aligned table otherwise. Points stay in grid order.
func writeFrontier(out io.Writer, plan campaign.Plan, points []generate.Point, pareto int, asJSON bool) error {
	if asJSON {
		return writeJSON(out, frontier{
			Experiment:   experiment.GenYieldName,
			Seed:         plan.Seed,
			Quick:        plan.Quick,
			GridSize:     len(plan.Scenarios),
			ParetoPoints: pareto,
			Points:       points,
		})
	}
	tb := report.New("Design-space frontier: yield vs fab sigma vs device size",
		"SCENARIO", "FAMILY", "QUBITS", "CHIPS", "LINKS", "SIGMA", "YIELD", "CI95", "TRIALS", "ESTIMATOR", "PARETO")
	for _, p := range points {
		mark := ""
		if p.Pareto {
			mark = "*"
		}
		tb.Add(p.Scenario, p.Spec.Family, p.Qubits, p.Chips, p.Links,
			fmt.Sprintf("%g", p.Sigma), report.F(p.Yield, 6),
			fmt.Sprintf("[%s, %s]", report.F(p.CILo, 6), report.F(p.CIHi, 6)),
			p.Trials, p.Estimator, mark)
	}
	return tb.WriteText(out)
}

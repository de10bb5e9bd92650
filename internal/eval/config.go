package eval

import (
	"context"
	"math"
	"math/rand"
	"sync/atomic"

	"chipletqc/internal/assembly"
	"chipletqc/internal/mcm"
	"chipletqc/internal/noise"
	"chipletqc/internal/runner"
	"chipletqc/internal/scenario"
	"chipletqc/internal/stats"
	"chipletqc/internal/topo"
	"chipletqc/internal/yield"
)

// Event is the progress observation type delivered to Config.Progress
// (an alias of runner.Event: label, units done, unit budget).
type Event = runner.Event

// Config scales the experiment harness. The device world — topology
// catalog, fabrication model, collision thresholds, link and detuning
// error models, assembly policy — comes from the Scenario; the
// remaining fields are per-run knobs (seed, batch sizes, workers,
// progress). Full-paper settings under the "paper" scenario are the
// defaults; tests and benchmarks shrink the batches.
type Config struct {
	// Scenario is the simulated device world. nil resolves to the
	// registered "paper" scenario, whose results are bit-identical to
	// the pre-scenario releases at equal seeds and scale.
	Scenario *scenario.Scenario

	Seed int64
	// MonoBatch is the monolithic Monte Carlo batch size (paper: 10^4
	// for Fig. 8, 10^3 for Fig. 4).
	MonoBatch int
	// ChipletBatch is the chiplet fabrication batch size (paper: 10^4).
	ChipletBatch int
	// MaxQubits bounds the evaluated system sizes (paper: 500).
	MaxQubits int
	// Det overrides the scenario's on-chip error model; nil builds the
	// scenario model from Seed.
	Det *noise.DetuningModel
	// LinkAwareRouting compiles benchmarks onto MCMs with the
	// link-penalised router (the paper's Section VIII future-work
	// compiler); off by default to match the paper's baseline.
	LinkAwareRouting bool
	// LinkMean overrides the scenario's mean inter-chip link infidelity
	// for application evaluation (Fig. 10 under the Fig. 9 improved-link
	// projections). nil keeps the scenario link model; an explicit
	// pointer — including Ptr(0.0), perfect links — replaces its mean.
	// Prefer a dedicated scenario (e.g. "improved-links") for anything
	// beyond a one-off sweep.
	LinkMean *float64
	// Workers fans the Monte Carlo and sweep loops out across
	// goroutines; <= 0 means GOMAXPROCS. Every trial derives its RNG
	// stream from (seed, trial index), so results are identical at any
	// worker count.
	Workers int
	// Policy is every yield simulation's stopping rule and estimator,
	// seeded from the scenario's trial policy. Its MaxTrials falls back
	// to the relevant fixed batch (MonoBatch / ChipletBatch).
	yield.Policy

	// Progress, when non-nil, receives streaming progress events from
	// the experiment pipelines: per-device trial counts at every
	// checkpoint of the yield Monte Carlo loops, and per-unit counts
	// for the coarser fan-out stages (fabrication batches, assembled
	// grids). Events may arrive concurrently from worker goroutines;
	// the callback must be safe for concurrent use. Progress never
	// affects results.
	Progress func(Event)

	// Registry knobs: per-experiment parameters. Entry points that take
	// these values as explicit arguments (Fig4, Fig6, Fig10) ignore the
	// Config fields; the Experiment registry wrappers read them. Zero
	// values fall back to the paper-scale defaults inside each
	// experiment.
	Fig4MaxQubits int // Fig. 4 size-ladder bound (paper: ~10^3)
	Fig6Batch     int // Fig. 6 chiplet batch (paper: 10^5)
	Fig6MaxDim    int // Fig. 6 largest square dimension (default 7)
	Fig10Samples  int // Fig. 10 device instances per architecture (default 3)
}

// ConfigFor returns full-paper-scale settings under the given scenario:
// batch sizes and the adaptive trial policy seed from the scenario's
// trial policy, everything else from the paper-scale registry defaults.
func ConfigFor(s scenario.Scenario, seed int64) Config {
	sc := s // escape a caller-owned copy
	return Config{
		Scenario:      &sc,
		Seed:          seed,
		MonoBatch:     s.Trials.MonoBatch,
		ChipletBatch:  s.Trials.ChipletBatch,
		Policy:        s.Trials.Policy,
		MaxQubits:     500,
		Fig4MaxQubits: 1000,
		Fig6Batch:     100000,
		Fig6MaxDim:    7,
		Fig10Samples:  5,
	}
}

// DefaultConfig returns full-paper-scale settings under the paper
// scenario.
func DefaultConfig(seed int64) Config {
	return ConfigFor(scenario.Paper(), seed)
}

// QuickConfigFor returns reduced settings for tests and smoke runs
// under the given scenario.
func QuickConfigFor(s scenario.Scenario, seed int64) Config {
	c := ConfigFor(s, seed)
	c.MonoBatch = 500
	c.ChipletBatch = 500
	c.Fig4MaxQubits = 200
	c.Fig6Batch = 2000
	c.Fig10Samples = 2
	return c
}

// QuickConfig returns reduced settings for tests and smoke runs under
// the paper scenario.
func QuickConfig(seed int64) Config {
	return QuickConfigFor(scenario.Paper(), seed)
}

// scn resolves the configured scenario, defaulting to the paper
// baseline so zero-valued configs still work.
func (c *Config) scn() scenario.Scenario {
	if c.Scenario == nil {
		return scenario.Paper()
	}
	return *c.Scenario
}

// ResolvedScenario returns the device scenario the config runs under
// (the registered "paper" scenario when none is set) — the value the
// experiment registry records on every Artifact.
func (c *Config) ResolvedScenario() scenario.Scenario { return c.scn() }

// catalog returns the scenario's chiplet family.
func (c *Config) catalog() []topo.ChipletSize { return c.scn().Catalog }

// det returns the configured detuning model, building the scenario
// default lazily so that zero-valued configs still work.
func (c *Config) det() *noise.DetuningModel {
	if c.Det == nil {
		c.Det = c.scn().DetuningModel(c.Seed + seedOffDetuningModel)
	}
	return c.Det
}

// linkModel resolves the application-evaluation link model: the
// scenario's, unless LinkMean explicitly overrides its mean (Ptr(0.0)
// yields the degenerate perfect-link model).
func (c *Config) linkModel() noise.LinkModel {
	link := c.scn().Link
	if c.LinkMean != nil {
		link = link.WithMean(*c.LinkMean)
	}
	return link
}

// progress emits a unit-level event when a Progress hook is installed.
func (c *Config) progress(label string, done, total int) {
	if c.Progress != nil {
		c.Progress(Event{Label: label, Done: done, Total: total})
	}
}

// fanOut runs fn over n independent, independently seeded units — the
// systems of Figs. 9 and 10, the chiplet sizes of Figs. 1 and 8 and
// Table II, Fig. 8's monolithic sizes and grids. It resolves the shared
// detuning model once, then splits the worker budget between the unit
// fan-out and each unit's nested work, whose share arrives as fn's
// config, so total concurrency stays near cfg.Workers. A failing unit
// cancels the remaining work and the lowest-indexed error is returned;
// each success reports progress under label.
func fanOut[T any](ctx context.Context, cfg Config, label string, n int,
	fn func(icfg Config, i int) (T, error)) ([]T, error) {
	cfg.det()
	outer, inner := runner.Split(cfg.Workers, n)
	icfg := cfg
	icfg.Workers = inner
	var done atomic.Int64
	return runner.MapErr(ctx, n, outer, func(i int) (T, error) {
		v, err := fn(icfg, i)
		if err == nil {
			cfg.progress(label, int(done.Add(1)), n)
		}
		return v, err
	})
}

// batchConfig assembles the chiplet fabrication configuration from the
// scenario, sharing the resolved detuning model across the fan-out.
func (c *Config) batchConfig(seedOffset int64) assembly.BatchConfig {
	return c.scn().BatchConfig(c.Seed+seedOffset, c.det(), c.Workers)
}

// assembleConfig assembles the MCM stitching configuration from the
// scenario's assembly policy and link model.
func (c *Config) assembleConfig(seedOffset int64) assembly.AssembleConfig {
	return c.scn().AssembleConfig(c.Seed + seedOffset)
}

// yieldConfig assembles a collision-free yield simulation configuration
// from the scenario, layered with the per-run policy and progress
// knobs. The Progress hook is forwarded so long Monte Carlo campaigns
// report per-device checkpoint counts.
func (c *Config) yieldConfig(batch int, seed int64) yield.Config {
	ycfg := c.scn().YieldConfig(batch, seed)
	ycfg.Workers = c.Workers
	ycfg.Policy = c.Policy
	ycfg.Progress = c.Progress
	return ycfg
}

// waferScaledMCMs fabricates grid g's chiplets from a batch scaled to
// the monolithic batch's wafer area — a qm-qubit monolithic die's area
// hosts qm/qc chiplets, so ChipletBatch monolithic dies correspond to
// ChipletBatch*chips chiplet dies — and assembles them under the given
// link model. Modules come best-first, since the bin is sorted. want
// stops assembly after that many modules (0: all of them); the first
// want modules are the same either way.
func (c *Config) waferScaledMCMs(ctx context.Context, g mcm.Grid, fabOffset, assembleOffset int64, link noise.LinkModel, want int) ([]*assembly.AssembledMCM, error) {
	b, err := assembly.Fabricate(ctx, g.Spec, c.ChipletBatch*g.Chips(), c.batchConfig(fabOffset))
	if err != nil {
		return nil, err
	}
	acfg := c.assembleConfig(assembleOffset)
	acfg.Link = link
	acfg.Want = want
	mods, _, err := assembly.Assemble(ctx, b, g, acfg)
	return mods, err
}

// eavg returns an assembly.Survivors keep function that draws one error
// per coupling of dev and returns the die's E_avg, the mean two-qubit
// infidelity, summed in edge order.
func eavg(dev *topo.Device, det *noise.DetuningModel) func(int, *rand.Rand, []float64) float64 {
	edges := dev.G.Edges()
	return func(_ int, r *rand.Rand, f []float64) float64 {
		var sum float64
		for _, e := range edges {
			sum += det.Sample(r, f[e.U]-f[e.V])
		}
		if len(edges) == 0 {
			return 0
		}
		return sum / float64(len(edges))
	}
}

// assign returns an assembly.Survivors keep function that draws dev's
// full per-coupling error assignment (noise.Assign).
func assign(dev *topo.Device, det *noise.DetuningModel, link noise.LinkModel) func(int, *rand.Rand, []float64) noise.Assignment {
	return func(_ int, r *rand.Rand, f []float64) noise.Assignment {
		return noise.Assign(r, dev, f, det, link)
	}
}

// meanOrNaN returns the mean of xs or NaN when empty.
func meanOrNaN(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return stats.Mean(xs)
}

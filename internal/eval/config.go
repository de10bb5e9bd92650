package eval

import (
	"context"
	"math"

	"chipletqc/internal/assembly"
	"chipletqc/internal/collision"
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

// monoPopulation fabricates a monolithic batch and returns the
// collision-free devices' per-device mean two-qubit infidelity (E_avg)
// samples, plus the collision-free yield. Trials run concurrently, each
// on its own (seed, index)-derived RNG stream, and samples are collected
// in trial order, so the population is identical at any worker count.
func (c *Config) monoPopulation(ctx context.Context, spec topo.ChipSpec, batch int, seedOffset int64) (eavgs []float64, yld float64, err error) {
	scn := c.scn()
	dev := topo.MonolithicDevice(spec)
	checker := collision.NewChecker(dev, scn.Params)
	det := c.det()
	edges := dev.G.Edges()
	campaign := c.Seed + seedOffset
	samples, err := runner.MapLocal(ctx, batch, c.Workers,
		runner.NewScratch(dev.N),
		func(l runner.Scratch, i int) float64 {
			r := l.RNG.At(campaign, i)
			f := l.Buf
			scn.Fab.SampleInto(r, dev, f)
			if !checker.Free(f) {
				return math.NaN() // collision: discarded by KGD testing
			}
			// E_avg for this device: mean sampled error over all couplings.
			var sum float64
			for _, e := range edges {
				sum += det.Sample(r, f[e.U]-f[e.V])
			}
			if len(edges) == 0 {
				return 0
			}
			return sum / float64(len(edges))
		})
	if err != nil {
		return nil, 0, err
	}
	for _, s := range samples {
		if !math.IsNaN(s) {
			eavgs = append(eavgs, s)
		}
	}
	if batch > 0 {
		yld = float64(len(eavgs)) / float64(batch)
	}
	return eavgs, yld, nil
}

// meanOrNaN returns the mean of xs or NaN when empty.
func meanOrNaN(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return stats.Mean(xs)
}

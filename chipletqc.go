// Package chipletqc reproduces "Scaling Superconducting Quantum
// Computers with Chiplet Architectures" (Smith, Ravi, Baker, Chong —
// MICRO 2022): a simulation framework for fixed-frequency transmon
// devices that models frequency-collision yield, quantum chiplet
// multi-chip modules (MCMs), gate-error assignment from empirical
// calibration data, and application-level fidelity.
//
// The package is a curated, context-first facade over the internal
// simulation engine: every Monte Carlo entry point takes a
// context.Context that cancels mid-campaign (within one in-flight trial
// per worker), option structs validate themselves, and long runs report
// streaming progress. The typical flow mirrors the paper:
//
//	ctx := context.Background()
//
//	// 1. Build architectures.
//	mono := chipletqc.Monolithic(180)
//	mcmDev, _ := chipletqc.MCM(3, 3, 20) // 3x3 MCM of 20-qubit chiplets
//
//	// 2. Estimate collision-free yield (Fig. 4).
//	res, _ := chipletqc.SimulateYield(ctx, mono, chipletqc.YieldOptions{Batch: 1000, Seed: 1})
//
//	// 3. Fabricate chiplets and assemble MCMs (Figs. 8-9).
//	batch, _ := chipletqc.FabricateBatch(ctx, 20, 10000, chipletqc.BatchOptions{Seed: 1})
//	mods, stats, _ := chipletqc.AssembleMCMs(ctx, batch, 3, 3, chipletqc.AssembleOptions{Seed: 1})
//
//	// 4. Compile a benchmark and estimate its success (Fig. 10).
//	circ := chipletqc.Benchmarks()[0].Generate(chipletqc.UtilizedQubits(mcmDev.N), 1)
//	compiled, _ := chipletqc.Compile(circ, mcmDev)
//
// Every figure and table of the paper's evaluation is a named, runnable
// unit of the Experiment registry (see experiments.go and
// `chipletqc run -list`, `chipletqc run -only fig8 -json`),
// every device world is a registrable Scenario (scenarios.go), and
// their cross product runs as one cached, resumable, shardable job
// through the campaign engine (campaigns.go and `chipletqc
// campaign`). ARCHITECTURE.md maps the full layer stack and the
// extension points.
package chipletqc

import (
	"context"
	"fmt"

	"chipletqc/internal/assembly"
	"chipletqc/internal/collision"
	"chipletqc/internal/compiler"
	"chipletqc/internal/fab"
	"chipletqc/internal/mcm"
	"chipletqc/internal/noise"
	"chipletqc/internal/qbench"
	"chipletqc/internal/runner"
	"chipletqc/internal/scenario"
	"chipletqc/internal/topo"
	"chipletqc/internal/yield"
)

// Re-exported core types. Aliases keep the internal packages as the
// single source of truth while giving users one import path.
type (
	// Device is an assembled quantum computer: coupling graph, frequency
	// classes, chip membership, and inter-chip links.
	Device = topo.Device
	// ChipSpec parameterises the heavy-hex chip family (r dense rows of
	// width w; N = 5rw/4 qubits).
	ChipSpec = topo.ChipSpec
	// Chip is a generated heavy-hex chiplet.
	Chip = topo.Chip
	// FreqPlan maps frequency classes to GHz targets.
	FreqPlan = topo.FreqPlan
	// Class is an ideal frequency class (F0 < F1 < F2).
	Class = topo.Class
	// Grid describes a k x m MCM of identical chiplets.
	Grid = mcm.Grid
	// FabModel is a fabrication process: frequency plan + precision.
	FabModel = fab.Model
	// CollisionParams holds the Table I thresholds.
	CollisionParams = collision.Params
	// Violation is one triggered collision criterion.
	Violation = collision.Violation
	// Chiplet is a fabricated, characterised, collision-free die.
	Chiplet = assembly.Chiplet
	// Batch is a chiplet fabrication run with its collision-free bin.
	Batch = assembly.Batch
	// AssembledMCM is a complete, collision-free multi-chip module.
	AssembledMCM = assembly.AssembledMCM
	// AssemblyStats summarises an assembly run.
	AssemblyStats = assembly.Stats
	// DetuningModel is the empirical on-chip gate error model.
	DetuningModel = noise.DetuningModel
	// LinkModel is the inter-chip link error distribution.
	LinkModel = noise.LinkModel
	// CompileResult is a compiled circuit with its layout bookkeeping.
	CompileResult = compiler.Result
	// BenchmarkSpec names one of the paper's seven benchmarks.
	BenchmarkSpec = qbench.Spec
	// YieldResult is the outcome of a Monte Carlo yield simulation.
	YieldResult = yield.Result
	// ProgressEvent is one streaming progress observation of a running
	// simulation: a label (device or pipeline stage), trials/units done,
	// and the budget. Progress callbacks may fire concurrently from
	// worker goroutines and must be safe for concurrent use.
	ProgressEvent = runner.Event
)

// Frequency classes.
const (
	F0 = topo.F0
	F1 = topo.F1
	F2 = topo.F2
)

// Published fabrication precision values (GHz).
const (
	SigmaAsFabricated = fab.SigmaAsFabricated // 0.1323, raw JJ spread
	SigmaLaserTuned   = fab.SigmaLaserTuned   // 0.014, post laser annealing
	SigmaScalingGoal  = fab.SigmaScalingGoal  // 0.006, >10^3-qubit threshold
)

// Ptr boxes a value for the facade's optional pointer fields, which
// distinguish "use the default" (nil) from an explicit value — including
// explicit zero: AssembleOptions{LinkMean: chipletqc.Ptr(0.0)} requests
// perfect links, while a nil LinkMean keeps the state-of-art 7.5%.
func Ptr[T any](v T) *T { return &v }

// ChipletSizes returns the catalog of paper chiplet sizes (10..250),
// the "paper" scenario's chip family.
func ChipletSizes() []int {
	catalog := scenario.Paper().Catalog
	out := make([]int, len(catalog))
	for i, c := range catalog {
		out[i] = c.Qubits
	}
	return out
}

// ChipletSpec returns the heavy-hex spec of the catalog chiplet with
// exactly q qubits.
func ChipletSpec(q int) (ChipSpec, error) { return topo.SpecForQubits(q) }

// BuildChiplet generates the heavy-hex chip for a spec, exposing its
// coordinates, frequency classes, and intra-chip coupling graph.
func BuildChiplet(s ChipSpec) *Chip { return topo.BuildChip(s) }

// Monolithic builds a single-chip device with approximately n qubits
// (exact for any n in the 5rw/4 family, which includes every MCM size).
func Monolithic(n int) *Device {
	return topo.MonolithicDevice(topo.MonolithicSpec(n))
}

// MCM builds a rows x cols multi-chip module of catalog chiplets with
// chipletQubits qubits each.
func MCM(rows, cols, chipletQubits int) (*Device, error) {
	spec, err := topo.SpecForQubits(chipletQubits)
	if err != nil {
		return nil, err
	}
	return mcm.Build(mcm.Grid{Rows: rows, Cols: cols, Spec: spec})
}

// DefaultFabModel is the paper's forward-looking baseline: laser-tuned
// precision on the optimal 0.06 GHz frequency step (the "paper"
// scenario's fabrication process).
func DefaultFabModel() FabModel { return scenario.Paper().Fab }

// DefaultCollisionParams returns the Table I thresholds (the "paper"
// scenario's collision screening).
func DefaultCollisionParams() CollisionParams { return scenario.Paper().Params }

// SampleFrequencies realises one fabrication outcome for a device.
// Draws come from the runner's O(1)-seeded SplitMix64 stream for seed
// (the same streams every Monte Carlo trial uses) — a one-time draw
// change from the stdlib rand.NewSource of the v0 API, statistically
// equivalent and ~17us cheaper per call.
func SampleFrequencies(seed int64, m FabModel, d *Device) []float64 {
	return m.Sample(runner.Rand(seed, 0), d)
}

// CollisionFree evaluates the Table I criteria on a device with realised
// frequencies f.
func CollisionFree(d *Device, f []float64) bool {
	return collision.NewChecker(d, scenario.Paper().Params).Free(f)
}

// Collisions lists every triggered Table I criterion.
func Collisions(d *Device, f []float64) []Violation {
	return collision.NewChecker(d, scenario.Paper().Params).Violations(f)
}

// YieldOptions parameterises SimulateYield. Pointer fields distinguish
// "default" (nil) from an explicit value, so explicit zeros are
// expressible: Sigma: Ptr(0.0) simulates noise-free fabrication.
type YieldOptions struct {
	// Scenario names the registered device scenario supplying the
	// fabrication model and collision thresholds ("" = "paper"). Sigma
	// and Step override the scenario's values when set.
	Scenario string
	Batch    int      // devices simulated (default 1000)
	Sigma    *float64 // fabrication precision in GHz (nil = the scenario's; 0 = noise-free)
	Step     *float64 // frequency plan step in GHz (nil = the scenario's)
	Seed     int64
	// Workers sets the parallel worker count; <= 0 means all CPU cores.
	// Results are identical at any worker count.
	Workers int
	// Precision switches the simulation into adaptive mode: trials
	// stream until the yield's 95% CI half-width reaches this target
	// (e.g. Ptr(0.01) for +-1%). nil inherits the scenario's trial
	// policy; Ptr(0.0) forces the historical fixed-batch mode even
	// under a scenario whose policy is adaptive.
	Precision *float64
	// MaxTrials caps the adaptive budget; nil inherits the scenario's
	// policy, Ptr(0) resets to the Batch fallback.
	MaxTrials *int
	// RelPrecision is the adaptive mode's relative target: stop once
	// the 95% CI half-width falls to RelPrecision x the point estimate
	// — the right stopping rule for deep-low-yield scenarios. nil
	// inherits the scenario's trial policy; Ptr(0.0) disables the
	// relative target.
	RelPrecision *float64
	// Sampling selects the yield estimator by method name: "plain",
	// "stratified", or "importance" (rare-event estimators with
	// likelihood-ratio reweighting; see the README's rare-event sampling
	// section). "" inherits the scenario's trial policy; "none" forces
	// plain counting with the result left unlabelled.
	Sampling string
	// Progress, when non-nil, receives per-checkpoint trial counts.
	Progress func(ProgressEvent)
}

// Validate reports the first invalid option value.
func (o YieldOptions) Validate() error {
	if o.Batch < 0 {
		return fmt.Errorf("chipletqc: YieldOptions.Batch %d is negative", o.Batch)
	}
	if o.Sigma != nil && *o.Sigma < 0 {
		return fmt.Errorf("chipletqc: YieldOptions.Sigma %g is negative", *o.Sigma)
	}
	if o.Step != nil && *o.Step < 0 {
		return fmt.Errorf("chipletqc: YieldOptions.Step %g is negative", *o.Step)
	}
	if err := o.policy(yield.Policy{}).Validate(); err != nil {
		return fmt.Errorf("chipletqc: YieldOptions: %w", err)
	}
	return nil
}

// policy layers the options' stopping policy over a scenario's: a set
// pointer replaces the value (Ptr(0.0) forces the historical
// fixed-batch mode under an adaptive scenario), nil inherits it, and
// Sampling follows yield.PolicyOverride.
func (o YieldOptions) policy(p yield.Policy) yield.Policy {
	if o.Precision != nil {
		p.Precision = *o.Precision
	}
	if o.MaxTrials != nil {
		p.MaxTrials = *o.MaxTrials
	}
	if o.RelPrecision != nil {
		p.RelPrecision = *o.RelPrecision
	}
	return p.With(yield.PolicyOverride{Sampling: o.Sampling})
}

// SimulateYield estimates the collision-free yield of a device via Monte
// Carlo simulation (paper Section IV-B). The result carries the trials
// executed (Batch) and 95% Wilson confidence bounds (CILo/CIHi).
// Cancelling ctx aborts the campaign within one in-flight trial per
// worker and returns ctx.Err().
func SimulateYield(ctx context.Context, d *Device, opts YieldOptions) (YieldResult, error) {
	cfg, err := yieldConfigFromOptions(opts)
	if err != nil {
		return YieldResult{}, err
	}
	return yield.Simulate(ctx, d, cfg)
}

// yieldConfigFromOptions validates facade options, resolves the named
// scenario, and translates both into the internal simulation
// configuration.
func yieldConfigFromOptions(opts YieldOptions) (yield.Config, error) {
	if err := opts.Validate(); err != nil {
		return yield.Config{}, err
	}
	scn, err := optionScenario(opts.Scenario)
	if err != nil {
		return yield.Config{}, err
	}
	batch := opts.Batch
	if batch == 0 {
		batch = 1000 // the Fig. 4 default
	}
	cfg := scn.YieldConfig(batch, opts.Seed)
	if opts.Sigma != nil {
		cfg.Model.Sigma = *opts.Sigma
	}
	if opts.Step != nil {
		cfg.Model.Plan.Step = *opts.Step
	}
	cfg.Workers = opts.Workers
	cfg.Policy = opts.policy(cfg.Policy)
	cfg.Progress = opts.Progress
	return cfg, nil
}

// optionScenario resolves an option struct's scenario name, defaulting
// to the paper baseline.
func optionScenario(name string) (Scenario, error) {
	if name == "" {
		return scenario.Paper(), nil
	}
	return scenario.Lookup(name)
}

// BatchOptions parameterises chiplet fabrication.
type BatchOptions struct {
	// Scenario names the registered device scenario supplying the
	// fabrication model, collision thresholds, and detuning model
	// ("" = "paper"). Sigma and Det override the scenario's values.
	Scenario string
	Seed     int64
	Sigma    *float64 // fabrication precision (nil = the scenario's; 0 = noise-free)
	Det      *DetuningModel
	// Workers sets the parallel worker count; <= 0 means all CPU cores.
	// Results are identical at any worker count.
	Workers int
}

// Validate reports the first invalid option value.
func (o BatchOptions) Validate() error {
	if o.Sigma != nil && *o.Sigma < 0 {
		return fmt.Errorf("chipletqc: BatchOptions.Sigma %g is negative", *o.Sigma)
	}
	return nil
}

// FabricateBatch fabricates and characterises a batch of catalog
// chiplets, returning the sorted collision-free bin (Section VII-B).
func FabricateBatch(ctx context.Context, chipletQubits, size int, opts BatchOptions) (*Batch, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	scn, err := optionScenario(opts.Scenario)
	if err != nil {
		return nil, err
	}
	spec, err := scn.SpecForQubits(chipletQubits)
	if err != nil {
		return nil, err
	}
	cfg := scn.BatchConfig(opts.Seed, opts.Det, opts.Workers)
	if opts.Sigma != nil {
		cfg.Fab.Sigma = *opts.Sigma
	}
	return assembly.Fabricate(ctx, spec, size, cfg)
}

// AssembleOptions parameterises MCM assembly. Pointer fields distinguish
// "default" (nil) from an explicit value, so explicit zeros are
// expressible: BondFailureScale: Ptr(0.0) models perfect bump bonding,
// LinkMean: Ptr(0.0) perfect inter-chip links, and
// MaxReshuffles: Ptr(0) disables collision-driven reshuffling.
type AssembleOptions struct {
	// Scenario names the registered device scenario supplying the
	// assembly policy, link model, and collision thresholds
	// ("" = "paper"). The pointer fields override the scenario's values.
	Scenario         string
	Seed             int64
	MaxReshuffles    *int     // placement shuffle budget (nil = the scenario's; paper 100)
	BondFailureScale *float64 // per-bump failure scale (nil = the scenario's; 0 = perfect bonds)
	LinkMean         *float64 // mean link infidelity (nil = the scenario's; 0 = perfect links)
}

// Validate reports the first invalid option value.
func (o AssembleOptions) Validate() error {
	if o.MaxReshuffles != nil && *o.MaxReshuffles < 0 {
		return fmt.Errorf("chipletqc: AssembleOptions.MaxReshuffles %d is negative", *o.MaxReshuffles)
	}
	if o.BondFailureScale != nil && *o.BondFailureScale < 0 {
		return fmt.Errorf("chipletqc: AssembleOptions.BondFailureScale %g is negative", *o.BondFailureScale)
	}
	if o.LinkMean != nil && *o.LinkMean < 0 {
		return fmt.Errorf("chipletqc: AssembleOptions.LinkMean %g is negative", *o.LinkMean)
	}
	return nil
}

// AssembleMCMs stitches as many rows x cols MCMs as possible from the
// batch, best chiplets first, with collision-driven reshuffles and
// bump-bond yield accounting. The context is checked between candidate
// subsets.
func AssembleMCMs(ctx context.Context, b *Batch, rows, cols int, opts AssembleOptions) ([]*AssembledMCM, AssemblyStats, error) {
	if err := opts.Validate(); err != nil {
		return nil, AssemblyStats{}, err
	}
	scn, err := optionScenario(opts.Scenario)
	if err != nil {
		return nil, AssemblyStats{}, err
	}
	cfg := scn.AssembleConfig(opts.Seed)
	if opts.MaxReshuffles != nil {
		cfg.MaxReshuffles = *opts.MaxReshuffles
	}
	if opts.BondFailureScale != nil {
		cfg.BondFailureScale = *opts.BondFailureScale
	}
	if opts.LinkMean != nil {
		cfg.Link = cfg.Link.WithMean(*opts.LinkMean)
	}
	return assembly.Assemble(ctx, b, mcm.Grid{Rows: rows, Cols: cols, Spec: b.Spec}, cfg)
}

// NewDetuningModel builds the empirical on-chip error model from the
// synthetic Washington calibration dataset (Section VI-A) — the
// "paper" scenario's detuning spec. The calibration draws come from the
// runner's SplitMix64 streams since the v1 API revision — a one-time,
// statistically equivalent change of the synthetic dataset.
func NewDetuningModel(seed int64) *DetuningModel {
	return scenario.Paper().DetuningModel(seed)
}

// DefaultLinkModel is the state-of-art inter-chip link error
// distribution (mean 7.5%, median 5.6%; Section VI-B) — the "paper"
// scenario's link model.
func DefaultLinkModel() LinkModel { return scenario.Paper().Link }

// AssignErrors realises per-coupling two-qubit gate errors for a device
// with realised frequencies f: intra-chip couplings sample the empirical
// detuning model, inter-chip links the state-of-art link model. Like
// SampleFrequencies, draws come from the runner's SplitMix64 stream for
// seed (one-time draw change from v0, statistically equivalent).
func AssignErrors(seed int64, d *Device, f []float64, det *DetuningModel) ErrorAssignment {
	return noise.Assign(runner.Rand(seed, 0), d, f, det, scenario.Paper().Link)
}

// Benchmarks returns the paper's seven-benchmark suite in Table II
// order, lowered to the native {1q, CX} basis.
func Benchmarks() []BenchmarkSpec { return qbench.Suite() }

// UtilizedQubits returns the benchmark width for a device of n qubits
// (80% utilisation, Section VII-A).
func UtilizedQubits(deviceQubits int) int { return qbench.UtilizedQubits(deviceQubits) }

// Compile maps a logical circuit onto a device (layout + SWAP routing).
func Compile(c *Circuit, d *Device) (*CompileResult, error) {
	return compiler.Compile(c, d)
}

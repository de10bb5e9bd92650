package chipletqc

import (
	"chipletqc/internal/eval"
	"chipletqc/internal/scenario"
	"chipletqc/internal/yield"
)

// Scenario re-exports: a Scenario is a pluggable, registrable device
// world — chiplet topology catalog, fabrication model, Table I
// collision thresholds, link and detuning error models, assembly
// policy, and default trial policy — that every experiment pipeline
// can run under. The paper's device model is the registered "paper"
// scenario; presets projecting beyond it ship alongside, and callers
// register their own:
//
//	custom := chipletqc.PaperScenario()
//	custom.Name = "my-fab"
//	custom.Description = "our process corner"
//	custom.Fab.Sigma = 0.010
//	chipletqc.RegisterScenario(custom)
//
//	cfg, _ := chipletqc.ExperimentConfigFor("my-fab", 1)
//	exp, _ := chipletqc.LookupExperiment("fig8")
//	artifact, _ := exp.Run(ctx, cfg) // records scenario name + fingerprint
//
// Every chipletqc verb that runs experiments addresses registered
// scenarios by name (-scenario), and `chipletqc run -scenarios` lists
// them.
type (
	// Scenario bundles everything that defines a simulated device world.
	Scenario = scenario.Scenario
	// DetuningSpec describes how a scenario builds its on-chip error
	// model (synthetic calibration run + detuning binning).
	DetuningSpec = scenario.DetuningSpec
	// AssemblyPolicy is a scenario's MCM stitching policy.
	AssemblyPolicy = scenario.AssemblyPolicy
	// TrialPolicy is a scenario's default Monte Carlo budget: batch
	// sizes plus an embedded YieldPolicy.
	TrialPolicy = scenario.TrialPolicy
	// YieldPolicy is the Monte Carlo stopping policy (precision
	// targets, trial cap, estimator) that TrialPolicy and
	// ExperimentConfig embed.
	YieldPolicy = yield.Policy
	// YieldPolicyOverride is a per-run policy adjustment in sentinel
	// form, embedded in CampaignOverride.
	YieldPolicyOverride = yield.PolicyOverride
)

// Preset scenario names (registered at init, paper-first).
const (
	ScenarioPaper             = scenario.PaperName
	ScenarioFutureFab         = scenario.FutureFabName
	ScenarioImprovedLinks     = scenario.ImprovedLinksName
	ScenarioRelaxedThresholds = scenario.RelaxedThresholdsName
)

// Scenarios returns every registered scenario in registration order
// (the presets register paper-first, then caller registrations).
func Scenarios() []Scenario { return scenario.All() }

// ScenarioNames returns the registered scenario names in order.
func ScenarioNames() []string { return scenario.Names() }

// LookupScenario returns the scenario registered under name; an unknown
// name errors with the list of known scenarios.
func LookupScenario(name string) (Scenario, error) { return scenario.Lookup(name) }

// RegisterScenario adds a caller-defined scenario to the registry,
// making it addressable by name from the cmd tools, option structs, and
// ExperimentConfigFor. It panics on an invalid or duplicate scenario.
func RegisterScenario(s Scenario) { scenario.Register(s) }

// PaperScenario returns the paper-baseline device world — the scenario
// every zero-valued config resolves to, bit-identical to the
// pre-scenario releases. Copy and rename it to derive custom scenarios.
func PaperScenario() Scenario { return scenario.Paper() }

// ExperimentConfigFor returns full-paper-scale experiment settings
// under the named registered scenario.
func ExperimentConfigFor(scenarioName string, seed int64) (ExperimentConfig, error) {
	s, err := scenario.Lookup(scenarioName)
	if err != nil {
		return ExperimentConfig{}, err
	}
	return eval.ConfigFor(s, seed), nil
}

package chipletqc

import (
	"chipletqc/internal/generate"
	"chipletqc/internal/topo"
)

// Generated-scenario re-exports: internal/generate programmatically
// mints whole families of scenarios from a TopoSpec — grid dimensions,
// qubits per chiplet, and a coupler topology (square, hex, heavy-hex,
// or stacked 3D layers) — crossed with fabrication-sigma,
// collision-threshold, and link-error axes. Each generated scenario
// carries a canonical name ("gen/hex-3x3-q16/sigma0.004") and a
// deterministic fingerprint, so campaign caching and shard equivalence
// work exactly as they do for the hand-written presets:
//
//	spec, _ := chipletqc.ParseTopoSpec("hex-3x3-q16")
//	gens, _ := chipletqc.GenerateScenarios(chipletqc.PaperScenario(), chipletqc.ScenarioAxes{
//		Topos:  []chipletqc.TopoSpec{spec},
//		Sigmas: []float64{0.002, 0.004},
//	})
//	names, _ := chipletqc.RegisterGeneratedScenarios(gens)
//	report, _ := chipletqc.RunCampaign(ctx, chipletqc.CampaignPlan{
//		Experiments: []string{"genyield"}, Scenarios: names,
//	}, chipletqc.CampaignOptions{})
//
// `chipletqc explore` wraps this flow end to end and reports the
// Pareto frontier of yield versus fabrication spread versus device
// size; the generatortest subpackage is the conformance suite every
// topology family must pass.
type (
	// TopoSpec parameterizes one generated multi-chip topology.
	TopoSpec = generate.TopoSpec
	// TopoSpecError is the typed validation error naming the invalid
	// TopoSpec field.
	TopoSpecError = generate.SpecError
	// ScenarioAxes is a generator grid: topologies crossed with the
	// physical design-space axes.
	ScenarioAxes = generate.Axes
	// GeneratedScenario is one generated scenario plus the axis values
	// that minted it.
	GeneratedScenario = generate.Gen
	// FrontierPoint is one evaluated cell of an explorer grid, with
	// its Pareto mark.
	FrontierPoint = generate.Point
)

// Generated topology family names.
const (
	TopoFamilySquare   = topo.FamilySquare
	TopoFamilyHex      = topo.FamilyHex
	TopoFamilyHeavyHex = topo.FamilyHeavyHex
	TopoFamilyStack3D  = topo.FamilyStack3D
)

// TopologyFamilies lists every generated topology family in canonical
// order.
func TopologyFamilies() []string { return topo.LatticeFamilies() }

// ParseTopoSpec parses a canonical topology token such as
// "hex-3x3-q16" or "stack3d-2x2x3-q9" and validates it.
func ParseTopoSpec(s string) (TopoSpec, error) { return generate.ParseTopoSpec(s) }

// GenerateScenarios expands base × axes into the full generator grid
// in deterministic order; see generate.Scenarios.
func GenerateScenarios(base Scenario, axes ScenarioAxes) ([]GeneratedScenario, error) {
	return generate.Scenarios(base, axes)
}

// RegisterGeneratedScenarios idempotently registers every generated
// scenario and returns their names in grid order; re-registering an
// identical grid is a no-op, a conflicting redefinition an error.
func RegisterGeneratedScenarios(gens []GeneratedScenario) ([]string, error) {
	return generate.Ensure(gens)
}

// MarkParetoFrontier marks the Pareto-optimal points (maximize yield,
// device size, and tolerated fabrication spread) in place and returns
// how many it marked.
func MarkParetoFrontier(points []FrontierPoint) int { return generate.MarkPareto(points) }

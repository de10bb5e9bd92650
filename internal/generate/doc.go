// Package generate mints whole families of device scenarios
// programmatically: a TopoSpec (chiplet grid dims, qubits per chiplet,
// coupler topology — square / hex / heavy-hex / 3D-stack) crossed with
// fabrication-sigma, collision-threshold, and link-error axes. Each
// generated scenario carries a canonical name (e.g.
// "gen/hex-3x3-q16/sigma0.004") and the ordinary deterministic scenario
// fingerprint, so campaign caching, store keys, and shard equivalence
// work for generated worlds exactly as they do for the hand-written
// presets.
//
// The package is the data layer of `chipletqc explore`: Scenarios expands a
// base preset and an Axes grid into scenario values, Ensure registers
// them idempotently (re-registration with an identical fingerprint is a
// no-op; a conflicting redefinition is an error), and MarkPareto
// computes the yield / fabrication-precision / device-size Pareto
// frontier over points read back from stored experiment Artifacts.
//
// Generated topologies must pass the generatortest conformance suite
// (see generate/generatortest); the device builders themselves live in
// internal/topo (LatticeSpec).
package generate

// Package assembly implements the paper's MCM manufacturing pipeline
// (Sections V-C, V-D, VII-B): chiplet batch fabrication with
// known-good-die characterisation, error-sorted chiplet stitching with
// collision-driven reshuffles, and the C4 bump-bond assembly yield
// model.
//
// The pipeline has two stages. Fabricate simulates a wafer batch of
// one chiplet design under a fab.Model, applies KGD testing (Table I
// collision screening via internal/collision), and characterises each
// surviving die's frequencies and gate errors — yielding a Batch whose
// collision-free bin feeds assembly. Its die loop is Survivors, the
// one KGD scan, which the evaluation also runs on monolithic devices.
// Assemble then stitches batches into k×m multi-chip modules: chiplets
// are error-sorted so the best dies land first, candidate placements
// that create cross-chip collisions are reshuffled up to the assembly
// policy's budget, and every inter-chip link draws its infidelity from
// the scenario's link model after a bump-bond survival roll. A
// reshuffle moves whole dies between identical slots, so each attempt
// re-checks only the seam criteria (collision.NewSeamChecker); a die's
// own criteria are checked once per candidate subset.
// AssembleConfig.Want stops the run at the modules a caller keeps.
//
// Both stages are ctx-first and fan out on internal/runner's
// deterministic worker pool: a trial's draws depend only on (seed,
// trial index), so batches and assembled modules are bit-identical at
// any worker count. AssembledMCM.ResampleLinks and EAvg re-draw and
// summarise link errors without disturbing that contract.
package assembly

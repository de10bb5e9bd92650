package assembly

import (
	"cmp"
	"context"
	"math"
	"math/rand"
	"slices"

	"chipletqc/internal/collision"
	"chipletqc/internal/fab"
	"chipletqc/internal/graph"
	"chipletqc/internal/noise"
	"chipletqc/internal/runner"
	"chipletqc/internal/topo"
)

// Chiplet is one fabricated, characterised, collision-free die from a
// batch. Edge errors are aligned with the chip topology's G.Edges()
// order; AvgErr is the KGD figure used to rank chiplets for stitching.
type Chiplet struct {
	ID      int
	Freq    []float64
	EdgeErr []float64
	AvgErr  float64
}

// Batch is a fabrication run of identical chiplets: only the collision-
// free dies are retained (KGD testing discards the rest), sorted best
// first by average two-qubit error.
type Batch struct {
	Spec topo.ChipSpec
	Chip *topo.Chip
	Size int        // dies fabricated
	Free []*Chiplet // collision-free bin, ascending AvgErr, ties by ID
}

// Yield returns the collision-free chiplet yield of the batch.
func (b *Batch) Yield() float64 {
	if b.Size == 0 {
		return 0
	}
	return float64(len(b.Free)) / float64(b.Size)
}

// BatchConfig parameterises chiplet fabrication and characterisation.
type BatchConfig struct {
	Fab    fab.Model
	Params collision.Params
	Det    *noise.DetuningModel
	Seed   int64
	// Workers fans die fabrication out across goroutines; <= 0 means
	// GOMAXPROCS. Each die derives its RNG stream from (Seed, die index),
	// so the batch is identical at any worker count.
	Workers int
}

// Fabricate runs a batch of `size` chiplets of the given spec: sample
// frequencies, discard collision-free failures, characterise survivors
// (per-coupling error sampled from the empirical detuning model), and
// sort the bin best-first. This is the KGD pipeline of Section V-B/VII-B.
// Cancelling ctx aborts fabrication within one in-flight die per worker
// and returns ctx.Err().
func Fabricate(ctx context.Context, spec topo.ChipSpec, size int, cfg BatchConfig) (*Batch, error) {
	chip := topo.BuildChip(spec)
	edges := chip.G.Edges()
	free, err := Survivors(ctx, topo.MonolithicDevice(spec), size, size, cfg,
		func(i int, r *rand.Rand, f []float64) *Chiplet {
			c := &Chiplet{ID: i, Freq: append([]float64(nil), f...), EdgeErr: make([]float64, len(edges))}
			var sum float64
			for j, e := range edges {
				c.EdgeErr[j] = cfg.Det.Sample(r, f[e.U]-f[e.V])
				sum += c.EdgeErr[j]
			}
			if len(edges) > 0 {
				c.AvgErr = sum / float64(len(edges))
			}
			return c
		})
	if err != nil {
		return nil, err
	}
	sortBin(free)
	return &Batch{Spec: spec, Chip: chip, Size: size, Free: free}, nil
}

// sortBin orders a KGD bin best first: ascending AvgErr, ties by die ID.
// Die IDs are unique, so the order is total and needs no stable sort.
func sortBin(bin []*Chiplet) {
	slices.SortFunc(bin, func(a, b *Chiplet) int {
		return cmp.Or(cmp.Compare(a.AvgErr, b.AvgErr), cmp.Compare(a.ID, b.ID))
	})
}

// Survivors is the one KGD die scan: it fabricates up to n dies of dev
// under cfg.Fab, die i on its own (cfg.Seed, i) RNG stream, screens each
// against the Table I criteria while drawing it (fab.Model.SampleFreeInto
// stops a die's draws at its first collision), and returns keep(i, r, f)
// for the first want collision-free dies in die order. keep sees the
// die's stream just past the frequency draws and the worker's frequency
// buffer, both exactly as fab.Model.SampleInto leaves them; it must
// copy the buffer to retain it. When want < n the scan runs in
// worker-sized chunks and stops after the chunk that completes the
// population. Workers reuse one RNG and buffer, so a discarded die
// costs zero allocations, and the result is identical at any worker
// count. Cancelling ctx returns ctx.Err().
func Survivors[T any](ctx context.Context, dev *topo.Device, n, want int, cfg BatchConfig,
	keep func(i int, r *rand.Rand, f []float64) T) ([]T, error) {
	if n <= 0 || want <= 0 {
		return nil, ctx.Err()
	}
	checker := collision.NewChecker(dev, cfg.Params)
	chunk := n
	if want < n {
		chunk = runner.Workers(cfg.Workers, n) * 32
	}
	type die struct {
		v  T
		ok bool
	}
	var out []T
	for lo := 0; lo < n && len(out) < want; lo += chunk {
		dies, err := runner.MapLocal(ctx, min(chunk, n-lo), cfg.Workers, runner.NewScratch(dev.N),
			func(l runner.Scratch, j int) die {
				r := l.RNG.At(cfg.Seed, lo+j)
				if !cfg.Fab.SampleFreeInto(r, dev, checker, l.Buf) {
					return die{}
				}
				return die{keep(lo+j, r, l.Buf), true}
			})
		if err != nil {
			return nil, err
		}
		for _, d := range dies {
			if d.ok && len(out) < want {
				out = append(out, d.v)
			}
		}
	}
	return out, nil
}

// Bump-bond assembly constants (Section VII-B): the per-bump success
// probability derived from silicon interposer defect rates, and the
// number of C4 bumps each inter-chip linked qubit requires.
const (
	BumpSuccess       = 0.99999960642
	BumpsPerLinkQubit = 25
)

// LinkQubitSurvival returns the probability that one linked qubit's 25
// bump bonds all succeed, with the bump failure probability scaled by
// failureScale (1 = nominal; 100 = the paper's sensitivity analysis).
func LinkQubitSurvival(failureScale float64) float64 {
	fail := (1 - BumpSuccess) * failureScale
	if fail < 0 {
		fail = 0
	}
	if fail > 1 {
		fail = 1
	}
	return math.Pow(1-fail, BumpsPerLinkQubit)
}

// BondSurvival returns the probability that an assembly with L linked
// qubits suffers no bonding fault: (s_l^25)^L with scaled failure.
func BondSurvival(linkedQubits int, failureScale float64) float64 {
	return math.Pow(LinkQubitSurvival(failureScale), float64(linkedQubits))
}

// Combinatorics helpers for Fig. 6.

// Log10Configurations returns log10 of the number of ordered ways to
// populate an MCM of `chips` positions from `free` distinct chiplets:
// log10(free! / (free-chips)!). It returns -Inf when free < chips.
func Log10Configurations(free, chips int) float64 {
	if free < chips {
		return math.Inf(-1)
	}
	var sum float64
	for i := 0; i < chips; i++ {
		sum += math.Log10(float64(free - i))
	}
	return sum
}

// MaxAssemblies returns the largest number of disjoint MCMs of `chips`
// positions buildable from `free` chiplets.
func MaxAssemblies(free, chips int) int {
	if chips <= 0 {
		return 0
	}
	return free / chips
}

// FabricationOutput evaluates Equation 1 of the paper: the upper bound on
// assembled MCMs given monolithic batch size B, monolithic size qm,
// chiplet size qc, chiplet yield Yc, and MCM dimension k x m:
//
//	N = Yc * (B * qm/qc) / (k*m)
func FabricationOutput(yc float64, batch, qm, qc, chips int) float64 {
	if qc <= 0 || chips <= 0 {
		return 0
	}
	return yc * float64(batch) * float64(qm) / float64(qc) / float64(chips)
}

// globalEdge maps a chip-local coupling to its global device edge for a
// chip placed at a base qubit offset.
func globalEdge(base int, e graph.Edge) graph.Edge {
	return graph.NewEdge(base+e.U, base+e.V)
}

// Package compiler maps logical benchmark circuits onto physical device
// topologies (paper Section VII-B): a BFS-center initial layout followed
// by shortest-path SWAP routing, producing circuits whose every
// two-qubit gate acts on a physically coupled pair. Inserted SWAPs are
// lowered to three CX gates, so compiled gate counts are directly
// comparable to the paper's Table II.
//
// A Result is read-only once Compile returns it. Besides the compiled
// circuit it carries a pair index: the distinct couplings the compiled
// two-qubit gates act on and, per gate, which one. eval.LogFidelity
// reads that index to look each coupling's error up once rather than
// once per gate, so editing Result.Compiled after Compile leaves the
// index stale.
package compiler

import (
	"fmt"
	"slices"

	"chipletqc/internal/circuit"
	"chipletqc/internal/graph"
	"chipletqc/internal/topo"
)

// Result is a compiled circuit with its qubit mapping bookkeeping.
type Result struct {
	// Compiled is the physical circuit over the device's qubits; every
	// two-qubit gate acts on a coupled pair.
	Compiled *circuit.Circuit
	// InitialLayout maps logical qubit -> physical qubit at circuit start.
	InitialLayout []int
	// FinalLayout maps logical qubit -> physical qubit after execution
	// (SWAP insertion permutes the mapping).
	FinalLayout []int
	// SwapsInserted counts routing SWAPs (each costing three CX).
	SwapsInserted int
	// Counts caches the compiled circuit's Table II metrics.
	Counts circuit.Counts

	// pairs lists the couplings the compiled two-qubit gates act on, in
	// order of first use; gatePair holds each compiled two-qubit gate's
	// index into pairs, in gate order. Both are nil unless Compile or
	// CompileWithOptions built the Result.
	pairs    []graph.Edge
	gatePair []int32
}

// PairIndex returns the Result's pair index: the distinct couplings the
// compiled two-qubit gates act on, in order of first use, and for every
// compiled two-qubit gate in gate order the index of its coupling in
// pairs. Both are nil for a Result that Compile or CompileWithOptions
// did not build. The slices belong to the Result and must not be modified.
func (r *Result) PairIndex() (pairs []graph.Edge, gatePair []int32) {
	return r.pairs, r.gatePair
}

// DisconnectedError reports a disconnected device whose component around
// the layout center holds fewer qubits than the circuit needs.
type DisconnectedError struct {
	Device    string
	Need      int // logical qubits in the circuit
	Reachable int // physical qubits connected to the layout center
}

func (e *DisconnectedError) Error() string {
	return fmt.Sprintf("compiler: circuit needs %d qubits, device %q is disconnected and only %d are reachable from its layout center",
		e.Need, e.Device, e.Reachable)
}

// Compile maps circuit c onto device dev with baseline options. The
// circuit is lowered to the native {1q, CX} basis first. It returns an
// error when the circuit needs more qubits than the device offers, and a
// *DisconnectedError when fewer of them are connected to the layout
// center than the circuit needs.
func Compile(c *circuit.Circuit, dev *topo.Device) (*Result, error) {
	return compile(c, dev, Options{})
}

// compile is the shared implementation behind Compile and
// CompileWithOptions.
func compile(c *circuit.Circuit, dev *topo.Device, opts Options) (*Result, error) {
	if c.NumQubits > dev.N {
		return nil, fmt.Errorf("compiler: circuit needs %d qubits, device %q has %d",
			c.NumQubits, dev.Name, dev.N)
	}
	native := circuit.Decompose(c)
	layout := initialLayout(dev, c.NumQubits)
	if len(layout) < c.NumQubits {
		return nil, &DisconnectedError{Device: dev.Name, Need: c.NumQubits, Reachable: len(layout)}
	}

	pos := append([]int(nil), layout...) // logical -> physical
	owner := make([]int, dev.N)          // physical -> logical (-1 free)
	for p := range owner {
		owner[p] = -1
	}
	for l, p := range pos {
		owner[p] = l
	}

	// Routing records compact steps; the circuit is emitted once at its
	// exact length afterwards. Routing only adds gates, so the lowered
	// gate count is a lower bound.
	steps := make([]step, 0, len(native.Gates))
	swaps, twoQ := 0, 0

	emitSwap := func(u, v int) {
		steps = append(steps, routingCX(u, v), routingCX(v, u), routingCX(u, v))
		lu, lv := owner[u], owner[v]
		owner[u], owner[v] = lv, lu
		if lu >= 0 {
			pos[lu] = v
		}
		if lv >= 0 {
			pos[lv] = u
		}
		swaps++
		twoQ += 3
	}

	// nextHop is the first step from physical qubit u toward v, or -1
	// when v is unreachable: the device's shared BFS routing table by
	// default, or a minimum-cost path under the configured edge costs.
	nextHop := func(u, v int) int {
		if opts.EdgeCost == nil {
			return dev.G.FirstHop(u, v)
		}
		p, _ := dev.G.ShortestPathWeighted(u, v, opts.EdgeCost)
		if p == nil {
			return -1
		}
		return p[1]
	}

	for i, g := range native.Gates {
		switch {
		case g.IsOneQubit():
			steps = append(steps, step{src: int32(i), u: int32(pos[g.Qubits[0]])})
		case g.IsTwoQubit():
			a, b := g.Qubits[0], g.Qubits[1]
			// Route a toward b along the chosen path until adjacent.
			for !dev.G.HasEdge(pos[a], pos[b]) {
				next := nextHop(pos[a], pos[b])
				if next < 0 {
					return nil, fmt.Errorf("compiler: no path between physical %d and %d",
						pos[a], pos[b])
				}
				emitSwap(pos[a], next)
			}
			steps = append(steps, step{src: int32(i), u: int32(pos[a]), v: int32(pos[b])})
			twoQ++
		default:
			return nil, fmt.Errorf("compiler: unexpected %d-qubit gate %q after lowering",
				len(g.Qubits), g.Name)
		}
	}

	out, pairs, gatePair := emit(native, steps, dev, twoQ)
	return &Result{
		Compiled:      out,
		InitialLayout: layout,
		FinalLayout:   pos,
		SwapsInserted: swaps,
		Counts:        out.Counts(),
		pairs:         pairs,
		gatePair:      gatePair,
	}, nil
}

// step is one gate of the compiled circuit before emission: src indexes
// the lowered circuit's gates, or is -1 for a routing CX, and u, v are
// its physical operands (v is unused by a one-qubit gate).
type step struct {
	src, u, v int32
}

// routingCX is the step of one CX of an inserted SWAP.
func routingCX(u, v int) step {
	return step{src: -1, u: int32(u), v: int32(v)}
}

// emit builds the compiled circuit from the routed steps, every gate
// through circuit.Append so its checks still run, with Gates allocated
// once at the exact length. Along the way it builds the pair index for
// the twoQ two-qubit gates. A coupling's id lives in a table keyed by
// its lower endpoint and the higher endpoint's slot in the lower's
// adjacency list, so no Edge is hashed.
func emit(native *circuit.Circuit, steps []step, dev *topo.Device, twoQ int) (*circuit.Circuit, []graph.Edge, []int32) {
	out := circuit.New(dev.N)
	out.Gates = make([]circuit.Gate, 0, len(steps))

	// ids[base[u]+j] is the pair id of (u, Neighbors(u)[j]), -1 until used.
	base := make([]int32, dev.N+1)
	for u := range dev.N {
		base[u+1] = base[u] + int32(dev.G.Degree(u))
	}
	ids := make([]int32, base[dev.N])
	for i := range ids {
		ids[i] = -1
	}
	var pairs []graph.Edge
	gatePair := make([]int32, 0, twoQ)

	for _, s := range steps {
		u, v := int(s.u), int(s.v)
		if s.src < 0 {
			out.CX(u, v)
		} else if g := native.Gates[s.src]; g.IsOneQubit() {
			out.Append(g.Name, g.Param, u)
			continue
		} else {
			out.Append(g.Name, g.Param, u, v)
		}
		lo, hi := min(u, v), max(u, v)
		slot := base[lo] + int32(slices.Index(dev.G.Neighbors(lo), hi))
		if ids[slot] < 0 {
			ids[slot] = int32(len(pairs))
			pairs = append(pairs, graph.Edge{U: lo, V: hi})
		}
		gatePair = append(gatePair, ids[slot])
	}
	return out, pairs, gatePair
}

// initialLayout picks a dense, central region of the device: BFS from the
// graph center (minimum eccentricity, lowest id on ties) and take the
// first n qubits discovered in deterministic order. On a disconnected
// device it returns fewer than n qubits when the center's component is
// too small.
func initialLayout(dev *topo.Device, n int) []int {
	order := bfsOrder(dev, graphCenter(dev))
	return order[:min(n, len(order))]
}

// graphCenter returns the vertex with minimum eccentricity. An
// unreachable vertex makes the eccentricity infinite, so on a
// disconnected device every vertex ties and the center is vertex 0.
func graphCenter(dev *topo.Device) int {
	best, bestEcc := 0, -1
	for v := 0; v < dev.N; v++ {
		ecc := dev.G.Eccentricity(v)
		if ecc >= 0 && (bestEcc < 0 || ecc < bestEcc) {
			best, bestEcc = v, ecc
		}
	}
	return best
}

// bfsOrder returns the vertices reachable from src in BFS discovery order
// with sorted neighbour visits for determinism. The order doubles as the
// BFS queue.
func bfsOrder(dev *topo.Device, src int) []int {
	seen := make([]bool, dev.N)
	order := make([]int, 1, dev.N)
	order[0] = src
	seen[src] = true
	var nbrs []int
	for i := 0; i < len(order); i++ {
		nbrs = append(nbrs[:0], dev.G.Neighbors(order[i])...)
		insertionSort(nbrs)
		for _, w := range nbrs {
			if !seen[w] {
				seen[w] = true
				order = append(order, w)
			}
		}
	}
	return order
}

func insertionSort(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

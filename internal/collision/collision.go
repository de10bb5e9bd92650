// Package collision implements the seven fixed-frequency transmon
// frequency-collision criteria of the paper's Table I. Violating any
// criterion is expected to push two-qubit CR gate error above ~1%,
// so a device is "collision-free" only when all seven return false for
// every coupling and every control/target triple.
//
// The criteria, with Qi the CR control and Qj/Qk its targets:
//
//	Type 1: fi = fj            +- 0.017 GHz   nearest neighbours Qi, Qj
//	Type 2: fi + a/2 = fj      +- 0.004 GHz   control Qi, target Qj
//	Type 3: fi = fj + a        +- 0.030 GHz   nearest neighbours Qi, Qj
//	Type 4: fj < fi + a  or  fi < fj          control Qi, target Qj
//	Type 5: fj = fk            +- 0.017 GHz   Qi controls Qj and/or Qk
//	Type 6: fj = fk + a (or fj + a = fk) +- 0.025 GHz  same triples
//	Type 7: 2fi + a = fj + fk  +- 0.017 GHz   same triples
//
// where a is the transmon anharmonicity (~ -0.330 GHz).
//
// A Checker compiles a device's couplings and control pairs once, each
// attached to the highest-indexed qubit it mentions. Free and
// Violations walk that layout whole; FreeAt checks only the criteria
// one qubit completes, so fab.Model.SampleFreeInto can refute a
// device at its first collision instead of drawing every frequency
// first. NewSeamChecker compiles the same layout over the seam
// criteria alone — those whose qubits span more than one chip — which
// is all that can change when assembly reshuffles known-good dies
// across an MCM's slots.
package collision

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"chipletqc/internal/graph"
	"chipletqc/internal/topo"
)

// Params holds the anharmonicity and the Table I thresholds, in GHz.
// All fields are positive half-widths except Anharmonicity, which is the
// signed alpha.
type Params struct {
	Anharmonicity float64 // alpha, negative for transmons
	T1            float64 // Type 1 half-width
	T2            float64 // Type 2 half-width
	T3            float64 // Type 3 half-width
	T5            float64 // Type 5 half-width
	T6            float64 // Type 6 half-width
	T7            float64 // Type 7 half-width
}

// DefaultParams reproduces Table I: alpha = -0.330 GHz and the published
// thresholds.
func DefaultParams() Params {
	return Params{
		Anharmonicity: -0.330,
		T1:            0.017,
		T2:            0.004,
		T3:            0.030,
		T5:            0.017,
		T6:            0.025,
		T7:            0.017,
	}
}

// NonFinite is the pseudo-criterion reported when a frequency is NaN or
// infinite: such assignments are rejected outright (never collision-free)
// instead of silently falling through the Table I comparisons, all of
// which evaluate false on NaN.
const NonFinite = -1

// Violation records one triggered criterion.
type Violation struct {
	Type    int // 1..7, or NonFinite
	Control int // control qubit (or first neighbour for types 1/3)
	Target  int // target qubit (or second neighbour)
	Target2 int // second target for types 5-7, else -1
}

// String renders the violation for diagnostics.
func (v Violation) String() string {
	if v.Type == NonFinite {
		return fmt.Sprintf("non-finite frequency: q%d or q%d", v.Control, v.Target)
	}
	if v.Target2 >= 0 {
		return fmt.Sprintf("type %d collision: control q%d targets q%d,q%d",
			v.Type, v.Control, v.Target, v.Target2)
	}
	return fmt.Sprintf("type %d collision: q%d-q%d", v.Type, v.Control, v.Target)
}

// criterion is one compiled Table I check: a coupling (t2 < 0; types
// 1-4 on control c and target t) or a control pair (types 5-7 on
// control c and targets t, t2).
type criterion struct {
	c, t, t2 int32
}

// violation is the criterion's Violation skeleton, Type unset.
func (k *criterion) violation() Violation {
	return Violation{Control: int(k.c), Target: int(k.t), Target2: int(k.t2)}
}

// Checker is a collision evaluator compiled against one device topology.
// Compiling once and reusing across Monte Carlo samples avoids rebuilding
// edge and control-pair tables in the hot loop.
//
// Its one constraint layout attaches every coupling and every control
// pair to the highest-indexed qubit it mentions (the rule the
// sequential importance proposal uses): crit[stage[q]:stage[q+1]] are
// the criteria completed at qubit q, couplings before control pairs,
// each in device order. Free, FreeInto and Violations walk crit whole;
// FreeAt walks one stage, which is what lets a sampler screen a device
// while drawing it.
type Checker struct {
	params Params
	crit   []criterion
	stage  []int32
	edges  int
}

// NewChecker compiles a checker for device d under params p.
func NewChecker(d *topo.Device, p Params) *Checker {
	return compile(d, p, d.G.Edges(), d.ControlPairs())
}

// NewSeamChecker compiles only the seam criteria of device d: the
// couplings and control pairs whose qubits lie on more than one chip
// (d.ChipOf). Every other criterion of NewChecker(d, p) involves one
// chip alone, so once each placed chip is known to pass its own
// criteria, the seam checker alone decides whether a placement of those
// chips is collision-free. Its layout, stages and orders are
// NewChecker's, restricted to the seam.
func NewSeamChecker(d *topo.Device, p Params) *Checker {
	on := d.ChipOf
	edges := slices.DeleteFunc(d.G.Edges(), func(e graph.Edge) bool { return on[e.U] == on[e.V] })
	pairs := slices.DeleteFunc(d.ControlPairs(), func(cp topo.ControlPair) bool {
		return on[cp.Control] == on[cp.T1] && on[cp.Control] == on[cp.T2]
	})
	return compile(d, p, edges, pairs)
}

// compile lays out the given couplings and control pairs of d, each in
// device order, as a Checker.
func compile(d *topo.Device, p Params, edges []graph.Edge, pairs []topo.ControlPair) *Checker {
	c := &Checker{
		params: p,
		crit:   make([]criterion, len(edges)+len(pairs)),
		stage:  make([]int32, d.N+1),
		edges:  len(edges),
	}
	// Counting sort by stage: count each stage's criteria, turn the
	// counts into stage ends, then fill back to front so every stage
	// keeps couplings before pairs in source order and stage[q] ends on
	// the stage's first criterion.
	for _, e := range edges {
		c.stage[max(e.U, e.V)]++
	}
	for _, cp := range pairs {
		c.stage[max(cp.Control, cp.T1, cp.T2)]++
	}
	for q := 1; q <= d.N; q++ {
		c.stage[q] += c.stage[q-1]
	}
	for i := len(pairs) - 1; i >= 0; i-- {
		cp := pairs[i]
		q := max(cp.Control, cp.T1, cp.T2)
		c.stage[q]--
		c.crit[c.stage[q]] = criterion{c: int32(cp.Control), t: int32(cp.T1), t2: int32(cp.T2)}
	}
	for i := len(edges) - 1; i >= 0; i-- {
		e := edges[i]
		q := max(e.U, e.V)
		c.stage[q]--
		c.crit[c.stage[q]] = criterion{
			c: int32(d.ControlOf(e.U, e.V)), t: int32(d.TargetOf(e.U, e.V)), t2: -1}
	}
	return c
}

// Params returns the thresholds the checker was compiled with.
func (c *Checker) Params() Params { return c.params }

// Edges returns the number of compiled couplings.
func (c *Checker) Edges() int { return c.edges }

// Qubits returns the qubit count of the device the checker was compiled
// for.
func (c *Checker) Qubits() int { return len(c.stage) - 1 }

// Free reports whether the frequency assignment f (GHz per qubit) is
// collision-free, returning at the first violation. NaN or infinite
// frequencies are never collision-free. It allocates nothing.
func (c *Checker) Free(f []float64) bool {
	return c.FreeInto(nil, f)
}

// FreeAt reports whether the criteria completed at qubit q — those
// whose highest-indexed qubit is q — hold on f. It reads only f[:q+1],
// so a sampler that draws qubits in index order can call it after each
// draw and stop at the first false: the device is collision-free
// exactly when FreeAt holds for every q.
func (c *Checker) FreeAt(q int, f []float64) bool {
	_, m := c.scan(c.stage[q], c.stage[q+1], f)
	return m == 0
}

// scan evaluates crit[lo:hi] on f in order and returns the index and
// mask of the first criterion that triggers, or (hi, 0) when none does.
// It is the one place a criterion is dispatched to its mask.
func (c *Checker) scan(lo, hi int32, f []float64) (int32, uint8) {
	p := &c.params
	for i := lo; i < hi; i++ {
		k := &c.crit[i]
		var m uint8
		if k.t2 < 0 {
			m = edgeMask(f[k.c], f[k.t], p)
		} else {
			m = pairMask(f[k.c], f[k.t], f[k.t2], p)
		}
		if m != 0 {
			return i, m
		}
	}
	return hi, 0
}

// FreeInto is Free with an allocation-free diagnostic: when the
// assignment is not collision-free it writes the first triggered
// criterion, in Violations' order, into *v (callers reuse one Violation
// across trials) and returns false. v may be nil to skip the
// diagnostic.
func (c *Checker) FreeInto(v *Violation, f []float64) bool {
	i, m := c.scan(0, int32(len(c.crit)), f)
	if m != 0 && v != nil {
		*v = c.crit[i].violation()
		v.Type = maskType(m)
	}
	return m == 0
}

// Violations returns every triggered criterion for assignment f, in
// the checker's stage order: by the highest-indexed qubit the criterion
// mentions; within one qubit, couplings (types 1-4) before control
// pairs (types 5-7), each in device order; within one coupling or pair,
// by type.
func (c *Checker) Violations(f []float64) []Violation {
	return c.ViolationsInto(nil, f)
}

// ViolationsInto appends every triggered criterion for assignment f to
// dst, in Violations' order, and returns the extended slice. Hot loops
// pass dst[:0] to reuse the backing array across trials instead of
// allocating per call.
func (c *Checker) ViolationsInto(dst []Violation, f []float64) []Violation {
	n := int32(len(c.crit))
	for lo := int32(0); lo < n; {
		i, m := c.scan(lo, n, f)
		if m == 0 {
			break
		}
		dst = appendMask(dst, m, c.crit[i].violation())
		lo = i + 1
	}
	return dst
}

// finite reports whether f is neither NaN nor infinite. The f-f trick
// compiles to one subtraction and compare, cheap enough for the per-edge
// hot path (NaN-NaN and Inf-Inf are NaN, which compares unequal to 0).
func finite(f float64) bool { return f-f == 0 }

// A mask is the set of criteria one coupling or control pair triggers:
// bit t is Table I type t. Bit 0 (nonFiniteBit) stands for NonFinite
// and is never combined with another bit, since no comparison is
// meaningful on a NaN or infinite frequency.
const nonFiniteBit = 1

// maskType returns the criterion Free reports for mask m: NonFinite,
// the lowest triggered type, or 0 for an empty mask.
func maskType(m uint8) int {
	if m == nonFiniteBit {
		return NonFinite
	}
	if m == 0 {
		return 0
	}
	return bits.TrailingZeros8(m)
}

// appendMask appends one copy of v per criterion in m, in type order.
func appendMask(dst []Violation, m uint8, v Violation) []Violation {
	if m == nonFiniteBit {
		v.Type = NonFinite
		return append(dst, v)
	}
	for ; m != 0; m &= m - 1 {
		v.Type = bits.TrailingZeros8(m)
		dst = append(dst, v)
	}
	return dst
}

// edgeMask evaluates the pairwise criteria (types 1-4) for control
// frequency fi and target frequency fj.
func edgeMask(fi, fj float64, p *Params) uint8 {
	if !finite(fi) || !finite(fj) {
		return nonFiniteBit
	}
	a := p.Anharmonicity
	var m uint8
	if math.Abs(fi-fj) <= p.T1 {
		m |= 1 << 1
	}
	if math.Abs(fi+a/2-fj) <= p.T2 {
		m |= 1 << 2
	}
	if math.Abs(fi-fj-a) <= p.T3 || math.Abs(fj-fi-a) <= p.T3 {
		m |= 1 << 3
	}
	// Type 4: the target must lie strictly inside the straddling regime
	// (fi + a, fi); outside it the CR interaction fails.
	if fj < fi+a || fi < fj {
		m |= 1 << 4
	}
	return m
}

// pairMask evaluates the spectator criteria (types 5-7) for control fi
// with targets fj, fk.
func pairMask(fi, fj, fk float64, p *Params) uint8 {
	if !finite(fi) || !finite(fj) || !finite(fk) {
		return nonFiniteBit
	}
	a := p.Anharmonicity
	var m uint8
	if math.Abs(fj-fk) <= p.T5 {
		m |= 1 << 5
	}
	if math.Abs(fj-fk-a) <= p.T6 || math.Abs(fj+a-fk) <= p.T6 {
		m |= 1 << 6
	}
	if math.Abs(2*fi+a-fj-fk) <= p.T7 {
		m |= 1 << 7
	}
	return m
}
